//! Metric names, sample statistics, output fingerprints and the JSON
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), reported on every workload. Must
/// match `end_to_end` in `BENCHMARK.json` (`run.py` checks).
pub const END_TO_END: &[(&str, &str)] = &[
    ("detect_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("recall", "ratio"),
    ("precision", "ratio"),
    ("probe_p50_ms", "ms"),
    ("ingest_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`). Must match `per_layer` in
/// `BENCHMARK.json`. Every ratio is accompanied by its numerator and
/// denominator.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.parse_s", "s"),
    ("xml.mb_per_s", "MB/s"),
    ("schema.infer_s", "s"),
    ("candidate.select_s", "s"),
    ("candidate.count", "count"),
    ("od.build_s", "s"),
    ("od.terms", "count"),
    ("od.tuples", "count"),
    ("od.heap_bytes", "bytes"),
    ("filter.reduce_s", "s"),
    ("filter.reduce_share", "ratio"),
    ("filter.plan_pairs", "count"),
    ("filter.all_pairs", "count"),
    ("filter.plan_frac", "ratio"),
    ("filter.gold_in_plan", "count"),
    ("filter.gold_pairs", "count"),
    ("filter.gold_kept", "ratio"),
    ("filter.pruned", "count"),
    ("sim.prepare_s", "s"),
    ("sim.compare_s", "s"),
    ("sim.compare_share", "ratio"),
    ("sim.pairs", "count"),
    ("sim.ns_per_pair", "ns"),
    ("sim.duplicates", "count"),
    ("sim.dup_yield", "ratio"),
    ("sim.memo_entries", "count"),
    ("cluster.s", "s"),
    ("cluster.count", "count"),
    ("incremental.detect_delta_ms.update", "ms"),
    ("incremental.detect_delta_ms.insert", "ms"),
    ("incremental.detect_delta_ms.remove", "ms"),
    ("incremental.rescore_frac.update", "ratio"),
    ("incremental.rescore_frac.insert", "ratio"),
    ("incremental.rescore_frac.remove", "ratio"),
    ("incremental.scored.update", "count"),
    ("incremental.scored.insert", "count"),
    ("incremental.scored.remove", "count"),
    ("incremental.considered.update", "count"),
    ("incremental.considered.insert", "count"),
    ("incremental.considered.remove", "count"),
    ("incremental.extractions_per_delta", "ratio"),
    ("incremental.extractions", "count"),
    ("incremental.deltas", "count"),
    ("probe.record_ms", "ms"),
    ("probe.probe_ms", "ms"),
    ("probe.examined_frac", "ratio"),
    ("probe.examined", "count"),
    ("probe.objects", "count"),
    ("probe.publish_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.commit_ms", "ms"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoints", "count"),
    ("wal.bytes_per_delta", "bytes"),
    ("wal.bytes", "bytes"),
    ("server.shed", "count"),
    ("server.probe_p99_ms", "ms"),
    ("server.ingest_p50_ms", "ms"),
    ("server.ingest_p90_ms", "ms"),
    ("server.error_rate", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (detection runs, probes, ingests).
    pub attempted: u64,
    /// Operations that failed (errors, `ERR` lines, timeouts,
    /// disconnects, fingerprint mismatches).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a metric; `name` must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a ratio together with its numerator and denominator
    /// (`0/0` reads as 0: nothing was attempted).
    pub fn ratio(
        &mut self,
        name: &'static str,
        num_name: &'static str,
        num: f64,
        den_name: &'static str,
        den: f64,
    ) {
        self.set(num_name, num);
        self.set(den_name, den);
        self.set(name, if den > 0.0 { num / den } else { 0.0 });
    }

    /// Marks the run incorrect, explaining why on stderr.
    pub fn fail_check(&mut self, why: &str) {
        eprintln!("perfbench: CHECK FAILED: {why}");
        self.correct = false;
    }

    /// The JSON result line for the metric set `trace` selects. Every
    /// declared metric must have been measured and be finite.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            // `{:?}` prints the shortest representation that reads back
            // as the same f64, so no digits are lost.
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Summary of a sample of timings (or any values).
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} [q1 {:.6}, q3 {:.6}, max {:.6}] n={}",
            self.median, self.q1, self.q3, self.max, self.n
        )
    }
}

/// Linear-interpolated quantile of a sorted sample (NaN when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Nearest-rank percentile of an unsorted sample; failed operations are
/// passed as `f64::INFINITY` so they count as missing every limit.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// 64-bit FNV-1a over a stream of words: the run fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a detection outcome: candidate count, every duplicate
/// and possible pair with the bits of its similarity, and the clusters.
pub fn fingerprint(
    candidates: usize,
    duplicates: &[(usize, usize, f64)],
    possible: &[(usize, usize, f64)],
    clusters: &[Vec<usize>],
) -> u64 {
    let mut h = Fingerprint::new();
    h.word(candidates as u64);
    for list in [duplicates, possible] {
        h.word(list.len() as u64);
        for &(i, j, sim) in list {
            h.word(i as u64);
            h.word(j as u64);
            h.word(sim.to_bits());
        }
    }
    h.word(clusters.len() as u64);
    for c in clusters {
        h.word(c.len() as u64);
        for &m in c {
            h.word(m as u64);
        }
    }
    h.finish()
}

/// Fingerprint of a [`dogmatix_core::DetectionResult`].
pub fn result_fingerprint(r: &dogmatix_core::DetectionResult) -> u64 {
    fingerprint(
        r.candidates.len(),
        &r.duplicate_pairs,
        &r.possible_pairs,
        &r.clusters,
    )
}

/// Resets the process's resident-set high-water mark to its current
/// resident set (Linux `clear_refs` 5), so the generator's memory does
/// not count as the workload's.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))
}

/// The process's resident-set high-water mark in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Pairwise recall and precision of `found` against entity ids.
pub fn quality(found: &[(usize, usize, f64)], eids: &[u64]) -> (f64, f64, usize, usize) {
    let true_found = found.iter().filter(|p| eids[p.0] == eids[p.1]).count();
    let mut sizes: BTreeMap<u64, usize> = BTreeMap::new();
    for &e in eids {
        *sizes.entry(e).or_default() += 1;
    }
    let gold: usize = sizes.values().map(|&s| s * s.saturating_sub(1) / 2).sum();
    let recall = true_found as f64 / gold.max(1) as f64;
    let precision = true_found as f64 / found.len().max(1) as f64;
    (recall, precision, true_found, gold)
}
