//! The size ladder: per-operation cost as the corpus grows.
//!
//! Each rung is CD Dataset 1 at `n` originals (`2n` candidates), run
//! through an `IncrementalSession` with `MinHashLshBlocking(48, 2)` for
//! both the detector and the probe index, `k_closest_descendants(6)`
//! descriptions, and one thread. Per rung the bench measures
//!
//! * **publish** — `publish_snapshot` after the initial detection
//!   (median of [`PUBLISHES`]);
//! * **probe** — `ProbeSnapshot::probe` over [`PROBES`] corpus records
//!   spread across the document (record parsing excluded): p50 latency
//!   and the mean number of candidates examined;
//! * **unmatched probe** — the p50 of probing those records with every
//!   tuple's type renamed to one the store never saw, so no candidate is
//!   examined: what a probe costs besides scoring (appending the record
//!   to a copy of the store, candidate generation);
//! * **copy** — the p50 of a flat clone of the snapshot's `OdSet`, the
//!   floor of appending to a copy,
//!
//! writes `BENCH_ladder.json` at the repo root, and gates
//!
//! * probe p50 at the top rung ≤ [`TOP_P50_MS`] ms ×
//!   `DOGMATIX_BASELINE_ALLOWANCE` (default 1);
//! * unmatched-probe p50 at the top rung ≤ [`UNMATCHED_PER_COPY`] × the
//!   copy p50 on the same rung. Both grow with |Ω|, so this ratio, not
//!   their growth across rungs, tells appending to a copy (about one
//!   copy) from re-interning every stored object (about 90 copies at
//!   8,000 candidates). It needs no allowance: both sides run on the
//!   same machine within the same rung;
//! * probe p50 per examined candidate at the top rung ≤
//!   [`PER_EXAMINED_GROWTH`] × its bottom-rung value — scoring one
//!   candidate must not grow with the corpus. Examined candidates grow
//!   about in proportion to |Ω| under LSH, so per-probe work that grows
//!   with |Ω| divides out here; the unmatched-probe gate checks that.
//!
//! Run with `cargo bench -p dogmatix_bench --bench ladder`.

use dogmatix_bench::CdFixture;
use dogmatix_core::filter::MinHashLshBlocking;
use dogmatix_core::heuristics::HeuristicExpr;
use dogmatix_core::od::RawTuple;
use dogmatix_core::pipeline::Dogmatix;
use dogmatix_core::probe::{ProbeBlocking, ProbeScratch};
use std::time::Instant;

/// Originals per rung (candidates are twice as many).
const RUNGS: [usize; 3] = [250, 1000, 4000];
/// Probes timed per rung.
const PROBES: usize = 60;
/// Publishes timed per rung.
const PUBLISHES: usize = 5;
/// Top-k asked of every probe.
const PROBE_K: usize = 10;
/// Gate: probe p50 at the top rung, in ms (times the allowance).
const TOP_P50_MS: f64 = 6.0;
/// Gate: top-rung p50 per examined candidate over the bottom rung's.
const PER_EXAMINED_GROWTH: f64 = 2.0;
/// Gate: top-rung unmatched-probe p50 over the same rung's copy p50.
const UNMATCHED_PER_COPY: f64 = 5.0;
/// Store copies timed per rung.
const COPIES: usize = 30;

struct Rung {
    n: usize,
    candidates: usize,
    probe_p50_ms: f64,
    mean_examined: f64,
    unmatched_p50_ms: f64,
    copy_p50_ms: f64,
    publish_ms: f64,
}

impl Rung {
    /// p50 probe latency per examined candidate, in ms.
    fn per_examined_ms(&self) -> f64 {
        self.probe_p50_ms / self.mean_examined.max(1.0)
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn lsh() -> MinHashLshBlocking {
    MinHashLshBlocking::new(48, 2)
}

fn measure(n: usize) -> Rung {
    let fixture = CdFixture::dataset1(n);
    let dx = Dogmatix::builder()
        .mapping(fixture.mapping.clone())
        .heuristic(HeuristicExpr::k_closest_descendants(6))
        .theta_tuple(dogmatix_eval::setup::THETA_TUPLE)
        .theta_cand(dogmatix_eval::setup::THETA_CAND)
        .filter(lsh())
        .threads(1)
        .build();
    let nodes = fixture.doc.select("/discs/disc").expect("select discs");
    let records: Vec<String> = (0..PROBES)
        .map(|k| fixture.doc.node_xml(nodes[k * nodes.len() / PROBES]))
        .collect();
    let mut session = dx
        .incremental_session(fixture.doc, fixture.schema, dogmatix_eval::setup::CD_TYPE)
        .expect("open CD session");
    dx.detect_delta(&mut session, &[])
        .expect("initial detection");

    let mut publish_ms = Vec::with_capacity(PUBLISHES);
    let mut snapshot = None;
    for _ in 0..PUBLISHES {
        let started = Instant::now();
        let published = session
            .publish_snapshot(&dx, ProbeBlocking::Lsh(lsh()))
            .expect("publish snapshot");
        publish_ms.push(started.elapsed().as_secs_f64() * 1e3);
        snapshot = Some(published);
    }
    let snapshot = snapshot.expect("at least one publish");

    let mut scratch = ProbeScratch::new();
    let mut probe_ms = Vec::with_capacity(PROBES);
    let mut unmatched_ms = Vec::with_capacity(PROBES);
    let mut examined = 0usize;
    for xml in &records {
        let record = snapshot.record_from_xml(xml).expect("resolve record");
        let started = Instant::now();
        let answer = snapshot
            .probe(&record, PROBE_K, &mut scratch)
            .expect("probe runs");
        probe_ms.push(started.elapsed().as_secs_f64() * 1e3);
        examined += answer.stats.candidates_examined;

        let unmatched: Vec<RawTuple> = record
            .into_iter()
            .map(|t| RawTuple {
                rw_type: "LADDER_UNSEEN".into(),
                ..t
            })
            .collect();
        let started = Instant::now();
        let answer = snapshot
            .probe(&unmatched, PROBE_K, &mut scratch)
            .expect("probe runs");
        unmatched_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(answer.stats.candidates_examined, 0, "unmatched probe");
    }
    let mut copy_ms = Vec::with_capacity(COPIES);
    for _ in 0..COPIES {
        let started = Instant::now();
        let copy = snapshot.ods().as_ref().clone();
        copy_ms.push(started.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(copy);
    }
    Rung {
        n,
        candidates: snapshot.len(),
        probe_p50_ms: median(&mut probe_ms),
        mean_examined: examined as f64 / PROBES as f64,
        unmatched_p50_ms: median(&mut unmatched_ms),
        copy_p50_ms: median(&mut copy_ms),
        publish_ms: median(&mut publish_ms),
    }
}

fn main() {
    let rungs: Vec<Rung> = RUNGS.iter().map(|&n| measure(n)).collect();
    let mut rows = Vec::new();
    for r in &rungs {
        println!(
            "ladder n={} ({} candidates): probe p50 {:.3} ms, {:.1} examined \
             ({:.2} µs each), unmatched probe {:.3} ms, store copy {:.3} ms, \
             publish {:.1} ms",
            r.n,
            r.candidates,
            r.probe_p50_ms,
            r.mean_examined,
            r.per_examined_ms() * 1e3,
            r.unmatched_p50_ms,
            r.copy_p50_ms,
            r.publish_ms
        );
        rows.push(format!(
            "    {{\"n\": {}, \"candidates\": {}, \"probe_p50_ms\": {:.4}, \
             \"mean_examined\": {:.2}, \"unmatched_p50_ms\": {:.4}, \
             \"copy_p50_ms\": {:.4}, \"publish_ms\": {:.3}}}",
            r.n,
            r.candidates,
            r.probe_p50_ms,
            r.mean_examined,
            r.unmatched_p50_ms,
            r.copy_p50_ms,
            r.publish_ms
        ));
    }
    let json = format!(
        "{{\n  \"corpus\": \"cd_dataset1\",\n  \"blocking\": \"lsh_48x2\",\n  \
         \"threads\": 1,\n  \"probes_per_rung\": {PROBES},\n  \"rungs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ladder.json");
    std::fs::write(out, json).expect("write BENCH_ladder.json");

    let (bottom, top) = (&rungs[0], &rungs[rungs.len() - 1]);
    let allowance: f64 = std::env::var("DOGMATIX_BASELINE_ALLOWANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    assert!(
        top.probe_p50_ms <= TOP_P50_MS * allowance,
        "probe p50 at n={} is {:.3} ms, over the {TOP_P50_MS} ms gate (allowance {allowance}x)",
        top.n,
        top.probe_p50_ms
    );
    let per_copy = top.unmatched_p50_ms / top.copy_p50_ms;
    assert!(
        per_copy <= UNMATCHED_PER_COPY,
        "unmatched probe p50 at n={} is {per_copy:.1}x a copy of the store \
         (gate {UNMATCHED_PER_COPY}x): a probe re-does O(|Ω|) work beyond appending to a copy",
        top.n
    );
    let growth = top.per_examined_ms() / bottom.per_examined_ms();
    assert!(
        growth <= PER_EXAMINED_GROWTH,
        "probe p50 per examined candidate grew {growth:.2}x from n={} to n={} \
         (gate {PER_EXAMINED_GROWTH}x): scoring one candidate grows with the corpus",
        bottom.n,
        top.n
    );
}
