//! The batch workloads: XML text → clusters through `Dogmatix::detect`,
//! single-threaded, repeated for the run's duration; then point queries
//! against the detected corpus (the CLI's `--probe` path).
//!
//! The traced run replays the pipeline stage by stage, calling each
//! layer's public entry point from here, and must reproduce the
//! untraced output bit for bit. At one thread the pipeline's comparison
//! step is a plain loop of `PreparedMeasure::sim` and `classify` over
//! the filter's plan, so the replay makes exactly the calls `detect`
//! makes.

use crate::report::{
    fingerprint, peak_rss_mib, percentile, quality, reset_peak_rss, result_fingerprint, Report,
    Summary,
};
use crate::serve;
use crate::speed;
use crate::trace::Tracer;
use crate::workload::{self, Data, DeltaClass, Setup, Workload};
use crate::Args;
use dogmatix_core::classify::Class;
use dogmatix_core::probe::{ProbeScratch, ProbeSnapshot};
use dogmatix_core::sim::DistCache;
use dogmatix_core::stage::{Clusterer, SimContext, SimilarityMeasure};
use dogmatix_core::{DetectionResult, DetectionSession};
use dogmatix_xml::{Document, Schema};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Corpora per run, generated from the seed. The timed repetitions cycle
/// through them; times are averaged over the corpora and quality is
/// pooled, so no single corpus swings a run's figures.
const CORPORA: usize = 5;
/// Set-ups (parse → schema → candidates → ODs → probe snapshot) per
/// corpus, timed for `setup_s`.
const SETUPS_PER_CORPUS: usize = 2;
/// Point queries after every detection run.
const PROBES_PER_REP: usize = 16;
/// Distinct probe records per corpus, cycled through.
const PROBE_POOL: usize = 96;
/// Top-k asked of every probe.
pub const PROBE_K: usize = 10;
/// Untraced detections and traced replays (alternating) of a traced run.
const TRACE_REPS: usize = 3;
/// Deltas of the streaming tail the traced run applies to the corpus,
/// so the incremental, probe and WAL layers are measured on it too.
const TAIL: [DeltaClass; 6] = [
    DeltaClass::Update,
    DeltaClass::Insert,
    DeltaClass::Update,
    DeltaClass::Remove,
    DeltaClass::Update,
    DeltaClass::Insert,
];

/// One generated corpus of an untraced run, without the generator's
/// own bookkeeping.
struct Corpus {
    xml: String,
    eids: Vec<u64>,
    probes: Vec<String>,
}

/// The dataset seed of corpus `k` of a run: disjoint across run seeds.
fn corpus_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(CORPORA as u64).wrapping_add(k as u64)
}

pub fn run(w: &Workload, args: &Args) -> Result<Report, String> {
    let setup = w.setup();
    let mut report = Report::new();
    if args.trace {
        let data = w.generate(corpus_seed(args.seed, 0));
        reset_peak_rss()?;
        traced(w, &setup, &data, args, &mut report)?;
    } else {
        let corpora: Vec<Corpus> = (0..CORPORA)
            .map(|k| {
                let data = w.generate(corpus_seed(args.seed, k));
                let mut rng = workload::rng(args.seed, 10 + k as u64);
                Corpus {
                    probes: data.probes(w.probe_parent(), PROBE_POOL, &mut rng),
                    eids: data.eids(),
                    xml: data.xml,
                }
            })
            .collect();
        reset_peak_rss()?;
        untraced(w, &setup, &corpora, args, &mut report)?;
    }
    report.set("peak_rss_mb", peak_rss_mib()?);
    Ok(report)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// XML text → clusters, as a user of the batch pipeline runs it.
fn detect_once(setup: &Setup, xml: &str) -> Result<DetectionResult, String> {
    let doc = Document::parse(xml).map_err(err)?;
    let schema = Schema::infer(&doc).map_err(err)?;
    let session = setup
        .dx
        .session(&doc, &schema, setup.rw_type)
        .map_err(err)?;
    setup.dx.detect(&session).map_err(err)
}

/// Records the first fingerprint of a corpus; a later repetition whose
/// fingerprint differs fails the run. Returns whether this was the first.
fn check_repeat(first: &mut Option<u64>, result: &DetectionResult, report: &mut Report) -> bool {
    let fp = result_fingerprint(result);
    match *first {
        None => {
            *first = Some(fp);
            return true;
        }
        Some(want) if want != fp => {
            report.failed += 1;
            report.fail_check(&format!(
                "a repetition's fingerprint {fp:016x} differs from the first {want:016x}"
            ));
        }
        Some(_) => {}
    }
    false
}

/// Everything built before the timed phase: the front end every
/// detection starts with (parse → schema → candidates → ODs) and the
/// probe snapshot.
fn set_up(setup: &Setup, xml: &str) -> Result<ProbeSnapshot, String> {
    let doc = Document::parse(xml).map_err(err)?;
    let schema = Schema::infer(&doc).map_err(err)?;
    let session =
        DetectionSession::new(&doc, &schema, setup.dx.mapping(), setup.rw_type).map_err(err)?;
    let selections = session
        .selections_for(&setup.stages.selector)
        .map_err(err)?;
    black_box(session.object_descriptions(&selections));
    ProbeSnapshot::from_batch(
        &setup.dx,
        &doc,
        &schema,
        setup.rw_type,
        setup.probe_blocking,
    )
    .map_err(err)
}

fn untraced(
    w: &Workload,
    setup: &Setup,
    corpora: &[Corpus],
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    // Every set-up and repetition runs between two reference-kernel
    // samples (`speed::timed`) and is scaled to the reference speed.
    let mut factors = Vec::new();
    let mut setup_s = vec![Vec::new(); corpora.len()];
    let mut setup_wall = Vec::new();
    let mut snapshots: Vec<Option<ProbeSnapshot>> = corpora.iter().map(|_| None).collect();
    for rep in 0..SETUPS_PER_CORPUS * corpora.len() {
        let k = rep % corpora.len();
        let (snap, wall, factor) = speed::timed(|| set_up(setup, &corpora[k].xml));
        setup_s[k].push(wall * factor);
        setup_wall.push(wall);
        factors.push(factor);
        snapshots[k] = Some(snap?);
    }
    let snapshots: Vec<ProbeSnapshot> = snapshots
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a corpus was never set up")?;
    // Timed phase: detections cycling through the corpora, each followed
    // by a few point queries against that corpus's snapshot (the CLI's
    // `--probe` path), so both sample the whole run.
    let mut scratch = ProbeScratch::new();
    let mut detect_s = vec![Vec::new(); corpora.len()];
    let mut detect_wall = Vec::new();
    let mut probe_ms = Vec::new();
    let mut firsts: Vec<Option<u64>> = corpora.iter().map(|_| None).collect();
    // Pooled over the corpora: true pairs found, pairs found, gold pairs.
    let (mut true_found, mut found, mut gold) = (0, 0, 0);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut rep = 0;
    while rep < corpora.len() || start.elapsed() + last <= budget {
        let k = rep % corpora.len();
        let t = Instant::now();
        report.attempted += 1;
        let (result, wall, factor) = speed::timed(|| detect_once(setup, &corpora[k].xml));
        let result = result.map_err(|e| format!("detection failed: {e}"))?;
        detect_s[k].push(wall * factor);
        detect_wall.push(wall);
        factors.push(factor);
        if check_repeat(&mut firsts[k], &result, report) {
            let data = &corpora[k];
            if result.candidates.len() != data.eids.len() {
                report.fail_check(&format!(
                    "{} candidates detected, the corpus has {}",
                    result.candidates.len(),
                    data.eids.len()
                ));
            }
            let (_, _, t, g) = quality(&result.duplicate_pairs, &data.eids);
            true_found += t;
            gold += g;
            found += result.duplicate_pairs.len();
        }
        drop(result);
        for i in 0..PROBES_PER_REP {
            let p = &corpora[k].probes[(rep / corpora.len() * PROBES_PER_REP + i) % PROBE_POOL];
            report.attempted += 1;
            let t_probe = Instant::now();
            let answer = snapshots[k]
                .record_from_xml(p)
                .and_then(|record| snapshots[k].probe(&record, PROBE_K, &mut scratch));
            match answer {
                Ok(a) => {
                    black_box(a);
                    probe_ms.push(t_probe.elapsed().as_secs_f64() * 1e3 * factor);
                }
                Err(e) => {
                    eprintln!("perfbench: probe failed: {e}");
                    report.failed += 1;
                    probe_ms.push(f64::INFINITY);
                }
            }
        }
        last = t.elapsed();
        rep += 1;
    }

    // Mean over the corpora of each corpus's median.
    let mean_median = |per_corpus: &[Vec<f64>]| {
        per_corpus
            .iter()
            .map(|v| Summary::of(v).median)
            .sum::<f64>()
            / per_corpus.len() as f64
    };
    let detect = mean_median(&detect_s);
    let probe_p50 = percentile(&probe_ms, 0.5);
    let recall = true_found as f64 / gold.max(1) as f64;
    let precision = true_found as f64 / found.max(1) as f64;
    let mean_candidates =
        corpora.iter().map(|c| c.eids.len()).sum::<usize>() as f64 / corpora.len() as f64;

    eprintln!(
        "perfbench: {} seed {} corpora {} (dataset seeds {}..{}), {mean_candidates} candidates each on average",
        w.name,
        args.seed,
        corpora.len(),
        corpus_seed(args.seed, 0),
        corpus_seed(args.seed, corpora.len() - 1)
    );
    eprintln!(
        "  speed      factor to the reference speed ({} s of kernel) {}",
        speed::NOMINAL_S,
        Summary::of(&factors)
    );
    eprintln!(
        "  detect_s   {detect:.6}; wall {}",
        Summary::of(&detect_wall)
    );
    eprintln!(
        "  setup_s    {:.6}; wall {}",
        mean_median(&setup_s),
        Summary::of(&setup_wall)
    );
    eprintln!(
        "  probe_ms   p50 {probe_p50:.4} p90 {:.4} n={}",
        percentile(&probe_ms, 0.9),
        probe_ms.len()
    );
    eprintln!(
        "  quality    recall {recall:.4} precision {precision:.4} ({true_found} of {gold} gold pairs, {found} found)"
    );
    report.set("detect_s", detect);
    report.set("setup_s", mean_median(&setup_s));
    report.set("recall", recall);
    report.set("precision", precision);
    report.set("probe_p50_ms", probe_p50);
    report.set("ingest_per_s", mean_candidates / detect);
    Ok(())
}

fn traced(
    w: &Workload,
    setup: &Setup,
    data: &Data,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    // Untraced detections and traced replays alternate; the overhead
    // compares their medians at the reference speed, so a machine slowing
    // down between the two does not read as tracing cost.
    let mut first = None;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::on();
    let eids = data.eids();
    let mut replay = None;
    for _ in 0..TRACE_REPS {
        report.attempted += 1;
        let (result, wall, factor) = speed::timed(|| detect_once(setup, &data.xml));
        let result = result.map_err(|e| format!("detection failed: {e}"))?;
        untraced.push(wall * factor);
        check_repeat(&mut first, &result, report);
        drop(result);
        let (r, _, factor) =
            speed::timed(|| replay_pipeline(setup, &data.xml, &eids, &mut tracer, 0, report));
        let r = r?;
        traced.push(r.total_s * factor);
        replay = Some(r);
    }
    let (untraced, traced) = (Summary::of(&untraced), Summary::of(&traced));
    let want = first.ok_or("no detection ran")?;
    let replay = replay.ok_or("no replay ran")?;
    if replay.fingerprint != want {
        report.fail_check(&format!(
            "traced replay fingerprint {:016x} differs from Dogmatix::detect {want:016x}",
            replay.fingerprint
        ));
    }
    let overhead = traced.median / untraced.median - 1.0;
    report.set("trace.overhead_frac", overhead);
    eprintln!(
        "perfbench: {} seed {} (dataset seed {}): at the reference speed, untraced detect {untraced}; \
         traced replay {traced} (overhead {:+.2} %)",
        w.name,
        args.seed,
        corpus_seed(args.seed, 0),
        overhead * 100.0
    );

    // Streaming tail: the writer's path of `dogmatixd` on this corpus.
    let mut rng = workload::rng(args.seed, 3);
    let steps = workload::script(data, TAIL.into_iter(), &[], w.insert_parent(), &mut rng);
    let probes = data.probes(w.probe_parent(), 4 * steps.len(), &mut rng);
    let tmp = serve::TempDir::new("tail")?;
    serve::replay_stream(
        setup,
        data,
        &steps,
        &probes,
        &mut tracer,
        Some(report),
        1,
        &tmp.0,
    )?;
    serve::not_served(report);
    tracer.write(&crate::out_dir().join(format!("spans-{}-seed{}.jsonl", w.name, args.seed)))
}

/// What a stage-by-stage replay produced.
pub struct PipelineReplay {
    pub fingerprint: u64,
    pub total_s: f64,
}

/// Runs parse → schema → candidates → ODs → filter → sim → classify →
/// cluster by calling each layer directly inside a span, and records the
/// per-layer metrics. Shares are of the replay's own wall time — the
/// same work `detect_s` times, at the same moment as the spans.
pub fn replay_pipeline(
    setup: &Setup,
    xml: &str,
    eids: &[u64],
    tr: &mut Tracer,
    request: u64,
    report: &mut Report,
) -> Result<PipelineReplay, String> {
    let stages = &setup.stages;
    let t0 = Instant::now();
    let root = tr.open("detect", request, None);
    let doc = tr
        .time("xml.parse", request, root, || Document::parse(xml))
        .map_err(err)?;
    let schema = tr
        .time("schema.infer", request, root, || Schema::infer(&doc))
        .map_err(err)?;
    let session = tr
        .time("candidate.select", request, root, || {
            DetectionSession::new(&doc, &schema, setup.dx.mapping(), setup.rw_type)
        })
        .map_err(err)?;
    let ods = tr
        .time("od.build", request, root, || {
            session
                .selections_for(&stages.selector)
                .map(|selections| session.object_descriptions(&selections))
        })
        .map_err(err)?;
    let decision = tr.time("filter.reduce", request, root, || {
        stages.filter.reduce(&ods)
    });
    let nodes = &session.candidates().nodes;
    let n = nodes.len();
    let prepared = tr.time("sim.prepare", request, root, || {
        stages.measure.prepare(SimContext {
            doc: &doc,
            candidates: nodes,
            ods: &ods,
        })
    });
    let pruned = &decision.pruned;
    let active: Vec<usize> = (0..n).filter(|&i| !pruned[i]).collect();
    let mut gold_in_plan = 0usize;
    let (mut dups, mut possible, scored, memo) = tr.time("sim.compare", request, root, || {
        let mut cache = DistCache::new();
        let mut dups = Vec::new();
        let mut possible = Vec::new();
        let mut scored = 0usize;
        let mut score = |i: usize, j: usize| {
            scored += 1;
            let sim = prepared.sim(i, j, &mut cache);
            match stages.classifier.classify(sim) {
                Class::Duplicate => dups.push((i, j, sim)),
                Class::Possible => possible.push((i, j, sim)),
                Class::NonDuplicate => {}
            }
        };
        match &decision.pairs {
            None => {
                for (a, &i) in active.iter().enumerate() {
                    for &j in &active[a + 1..] {
                        score(i, j);
                    }
                }
            }
            Some(plan) => {
                for &(i, j) in plan {
                    if !pruned[i] && !pruned[j] {
                        score(i, j);
                    }
                }
            }
        }
        (dups, possible, scored, cache.len())
    });
    drop(prepared);
    dups.sort_by_key(|p| (p.0, p.1));
    possible.sort_by_key(|p| (p.0, p.1));
    let pairs_only: Vec<(usize, usize)> = dups.iter().map(|&(i, j, _)| (i, j)).collect();
    let clusters = tr.time("cluster", request, root, || {
        stages.clusterer.cluster(n, &pairs_only)
    });
    tr.close(root);
    let total_s = t0.elapsed().as_secs_f64();

    // Gold pairs the plan keeps (counted outside the spans).
    match &decision.pairs {
        None => {
            for (a, &i) in active.iter().enumerate() {
                gold_in_plan += active[a + 1..]
                    .iter()
                    .filter(|&&j| eids[i] == eids[j])
                    .count();
            }
        }
        Some(plan) => {
            gold_in_plan = plan
                .iter()
                .filter(|&&(i, j)| !pruned[i] && !pruned[j] && eids[i] == eids[j])
                .count();
        }
    }
    let (_, _, _, gold_pairs) = quality(&[], eids);

    let parse_s = tr.last_secs("xml.parse");
    report.set("xml.parse_s", parse_s);
    report.set("xml.mb_per_s", xml.len() as f64 / 1e6 / parse_s);
    report.set("schema.infer_s", tr.last_secs("schema.infer"));
    report.set("candidate.select_s", tr.last_secs("candidate.select"));
    report.set("candidate.count", n as f64);
    report.set("od.build_s", tr.last_secs("od.build"));
    report.set("od.terms", ods.term_count() as f64);
    report.set(
        "od.tuples",
        (0..n).map(|i| ods.od(i).tuple_count()).sum::<usize>() as f64,
    );
    report.set("od.heap_bytes", ods.heap_bytes() as f64);
    let reduce_s = tr.last_secs("filter.reduce");
    report.set("filter.reduce_s", reduce_s);
    report.set("filter.reduce_share", reduce_s / total_s);
    report.ratio(
        "filter.plan_frac",
        "filter.plan_pairs",
        scored as f64,
        "filter.all_pairs",
        (n * n.saturating_sub(1) / 2) as f64,
    );
    report.ratio(
        "filter.gold_kept",
        "filter.gold_in_plan",
        gold_in_plan as f64,
        "filter.gold_pairs",
        gold_pairs as f64,
    );
    report.set("filter.pruned", (n - active.len()) as f64);
    let compare_s = tr.last_secs("sim.compare");
    report.set("sim.prepare_s", tr.last_secs("sim.prepare"));
    report.set("sim.compare_s", compare_s);
    report.set("sim.compare_share", compare_s / total_s);
    report.set("sim.ns_per_pair", compare_s * 1e9 / scored.max(1) as f64);
    report.ratio(
        "sim.dup_yield",
        "sim.duplicates",
        dups.len() as f64,
        "sim.pairs",
        scored as f64,
    );
    report.set("sim.memo_entries", memo as f64);
    report.set("cluster.s", tr.last_secs("cluster"));
    report.set("cluster.count", clusters.len() as f64);
    eprintln!(
        "perfbench: traced shares of the detection ({total_s:.6} s): filter.reduce {:.2} %, sim.compare {:.2} %",
        reduce_s / total_s * 100.0,
        compare_s / total_s * 100.0
    );
    Ok(PipelineReplay {
        fingerprint: fingerprint(n, &dups, &possible, &clusters),
        total_s,
    })
}
