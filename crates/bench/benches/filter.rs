//! Object-filter benches (paper Section 5.2 / Figure 8's motivation):
//! the cost of computing `f` for every candidate, the end-to-end
//! payoff of comparison reduction (pipeline with vs. without filter),
//! and the q-gram blocking plan build.
//!
//! Before the criterion groups run, a **q-gram plan sanity pass**
//! checks that building the blocking plan costs well under comparing
//! the pairs it plans (see [`qgram_plan_sanity`]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dogmatix_bench::CdFixture;
use dogmatix_core::filter::{ObjectFilter, QGramBlocking};
use dogmatix_core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_core::od::OdSet;
use dogmatix_core::sim::{DistCache, SimEngine};
use dogmatix_core::stage::ComparisonFilter;
use dogmatix_eval::setup::THETA_TUPLE;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_ods(fixture: &CdFixture, heuristic: HeuristicExpr) -> Arc<OdSet> {
    let session = fixture.session();
    let selections = session
        .selections_for(&heuristic)
        .expect("the CD schema has the candidate path");
    session.object_descriptions(&selections)
}

fn bench_filter_computation(c: &mut Criterion) {
    let mut group = c.benchmark_group("object_filter_compute");
    group.sample_size(10);
    let stage = ObjectFilter::new(0.15, 0.55);
    for n in [100usize, 250] {
        let fixture = CdFixture::dataset1(n);
        let ods = build_ods(&fixture, HeuristicExpr::k_closest_descendants(6));
        group.bench_with_input(BenchmarkId::from_parameter(n), &ods, |b, ods| {
            b.iter(|| stage.reduce(ods))
        });
    }
    group.finish();
}

fn bench_pipeline_with_without_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("comparison_reduction");
    group.sample_size(10);
    let fixture = CdFixture::dataset1(150);
    let session = fixture.session();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    for (label, use_filter) in [("with_filter", true), ("without_filter", false)] {
        let dx = fixture.detector(heuristic.clone(), use_filter);
        group.bench_function(label, |b| b.iter(|| dx.detect(&session).unwrap()));
    }
    group.finish();
}

/// The q-gram plan-build gate the CI relies on: on CD n=2000 (`rd:1`),
/// building the `QGramBlocking(2, θ_tuple)` plan must take at most half
/// the time of scoring the pairs it plans, single-threaded in the same
/// process. A ratio rather than an absolute time, so it holds on a slow
/// or shared machine. The plan build is the best of three runs; the
/// comparison pass, seconds long, runs once.
fn qgram_plan_sanity() {
    let fixture = CdFixture::dataset1(2000);
    let ods = build_ods(&fixture, HeuristicExpr::r_distant_descendants(1));
    let blocking = QGramBlocking::new(2, THETA_TUPLE);
    let mut build = Duration::MAX;
    let mut plan = blocking.plan(&ods);
    for _ in 0..3 {
        let t = Instant::now();
        plan = blocking.plan(&ods);
        build = build.min(t.elapsed());
    }

    let engine = SimEngine::new(&ods, THETA_TUPLE);
    let mut cache = DistCache::for_plan(plan.pairs.len());
    let t = Instant::now();
    let total: f64 = plan
        .pairs
        .iter()
        .map(|&(i, j)| engine.sim(i, j, &mut cache))
        .sum();
    let compare = t.elapsed();
    std::hint::black_box(total);

    let ratio = build.as_secs_f64() / compare.as_secs_f64();
    assert!(
        ratio <= 0.5,
        "q-gram plan build {build:?} is {ratio:.2}x the {compare:?} comparison \
         over its {} pairs (gate: <= 0.5x)",
        plan.pairs.len()
    );
    println!(
        "qgram plan sanity (cd n=2000, rd:1, q=2): build {build:?} vs comparison \
         {compare:?} over {} pairs ({ratio:.3}x)",
        plan.pairs.len()
    );
}

fn bench_qgram_plan(c: &mut Criterion) {
    qgram_plan_sanity();

    let mut group = c.benchmark_group("qgram_plan");
    group.sample_size(10);
    let blocking = QGramBlocking::new(2, THETA_TUPLE);
    for n in [250usize, 1000] {
        let fixture = CdFixture::dataset1(n);
        let ods = build_ods(&fixture, HeuristicExpr::r_distant_descendants(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &ods, |b, ods| {
            b.iter(|| blocking.plan(ods))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_qgram_plan,
    bench_filter_computation,
    bench_pipeline_with_without_filter
);
criterion_main!(benches);
