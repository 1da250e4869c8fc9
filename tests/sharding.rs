//! Differential suite for the comparison executor's worker sharding:
//! for ANY corpus, ANY comparison filter, and ANY thread count, the
//! pairs split round-robin over worker threads must produce a
//! `DetectionResult` **bit-identical** to the sequential `threads(1)`
//! pipeline — same pairs, same similarity scores (f64 equality), same
//! clusters, same stats. Threads partition execution, never semantics.
//!
//! The number of property cases honours the `PROPTEST_CASES` environment
//! override (ci.sh sets it to 128; local runs default lower).

mod common;

use common::{build_doc, cases, record_strategy, MiniRecord};
use dogmatix_repro::core::filter::{MinHashLshBlocking, QGramBlocking};
use dogmatix_repro::core::neighborhood::{SortedNeighborhoodFilter, TopKBlocking};
use dogmatix_repro::core::pipeline::Dogmatix;
use dogmatix_repro::datagen::datasets::dataset1_sized;
use dogmatix_repro::eval::setup;
use dogmatix_repro::xml::Schema;
use proptest::prelude::*;

/// Thread counts the differential checks against the `threads(1)`
/// baseline: explicit 1, 2, 8 plus auto (0 = available parallelism).
const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 0];

// ---- corpus ----------------------------------------------------------

/// A corpus plus clone instructions, so generated documents contain real
/// duplicate pairs (otherwise most comparisons would score nothing).
fn corpus_strategy() -> impl Strategy<Value = Vec<MiniRecord>> {
    (
        proptest::collection::vec(record_strategy(), 3..9),
        proptest::collection::vec(0usize..16, 0..3),
    )
        .prop_map(|(mut records, clones)| {
            for c in clones {
                let copy = records[c % records.len()].clone();
                records.push(copy);
            }
            records
        })
}

// ---- detector matrix --------------------------------------------------

/// Every bundled comparison filter the thread count must be neutral under.
const FILTERS: [FilterKind; 6] = [
    FilterKind::Object,
    FilterKind::NoFilter,
    FilterKind::TopK,
    FilterKind::SortedNeighborhood,
    FilterKind::QGram,
    FilterKind::Lsh,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FilterKind {
    Object,
    NoFilter,
    TopK,
    SortedNeighborhood,
    QGram,
    Lsh,
}

/// A detector with the given filter stage and comparison thread count.
fn detector(kind: FilterKind, theta_tuple: f64, threads: usize) -> Dogmatix {
    let b = Dogmatix::builder()
        .add_type("ITEM", ["/db/item"])
        .theta_tuple(theta_tuple)
        .threads(threads);
    match kind {
        FilterKind::Object => b, // the paper-default object filter
        FilterKind::NoFilter => b.no_filter(),
        FilterKind::TopK => b.filter(TopKBlocking::new(2)),
        FilterKind::SortedNeighborhood => b.filter(SortedNeighborhoodFilter::new(3)),
        FilterKind::QGram => b.filter(QGramBlocking::new(2, theta_tuple)),
        FilterKind::Lsh => b.filter(MinHashLshBlocking::new(8, 2)),
    }
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// The centrepiece: under every filter, thread counts 1/2/8/auto
    /// reproduce the `threads(1)` result bit for bit.
    #[test]
    fn sharded_execution_is_bit_identical_under_every_filter(
        records in corpus_strategy(),
        theta in 0.10f64..0.6,
    ) {
        let doc = build_doc(&records);
        let schema = Schema::infer(&doc).expect("non-empty docs infer");
        for kind in FILTERS {
            let baseline = detector(kind, theta, 1)
                .run(&doc, &schema, "ITEM")
                .expect("sequential pipeline runs");
            for threads in THREAD_COUNTS {
                let parallel = detector(kind, theta, threads)
                    .run(&doc, &schema, "ITEM")
                    .expect("threaded pipeline runs");
                // Whole-result equality: candidates, ODs, filter values,
                // duplicate pairs with f64-equal scores, possible pairs,
                // clusters, and stats (pairs_compared included — every
                // thread count executes the same plan).
                prop_assert_eq!(
                    &parallel, &baseline,
                    "filter {:?} threads {} diverged", kind, threads
                );
            }
        }
    }
}

// ---- directed cases ---------------------------------------------------

/// The seeded CD corpus through the paper-default detector: results
/// must be bit-identical to `threads(1)` at every thread count. The
/// corpus is large enough (80 candidates) that threads > 1 really split
/// the pairs over workers.
#[test]
fn cd_corpus_sharded_matches_unsharded() {
    let (doc, _) = dataset1_sized(7, 40);
    let schema = setup::cd_schema();
    let base_builder = || {
        Dogmatix::builder()
            .mapping(setup::cd_mapping())
            .theta_tuple(setup::THETA_TUPLE)
            .theta_cand(setup::THETA_CAND)
    };
    let baseline = base_builder()
        .threads(1)
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .expect("sequential run");
    assert!(
        !baseline.duplicate_pairs.is_empty(),
        "the seeded corpus must contain detectable duplicates"
    );
    assert!(
        baseline.stats.pairs_compared >= 2048,
        "the corpus must be large enough for the worker split"
    );
    for threads in THREAD_COUNTS {
        let parallel = base_builder()
            .threads(threads)
            .build()
            .run(&doc, &schema, setup::CD_TYPE)
            .expect("threaded run");
        assert_eq!(parallel, baseline, "threads={threads}");
    }
}

/// Thread counts compose with the blocking filters on the CD corpus:
/// each filter's pair plan scores bit for bit the same at every count.
#[test]
fn cd_corpus_blocking_filters_shard_cleanly() {
    let (doc, _) = dataset1_sized(3, 25);
    let schema = setup::cd_schema();
    for (name, filter) in [
        ("qgram", FilterKind::QGram),
        ("lsh", FilterKind::Lsh),
        ("topk", FilterKind::TopK),
        ("snm", FilterKind::SortedNeighborhood),
    ] {
        let build = |threads: usize| {
            let b = Dogmatix::builder()
                .mapping(setup::cd_mapping())
                .theta_tuple(setup::THETA_TUPLE)
                .theta_cand(setup::THETA_CAND)
                .threads(threads);
            match filter {
                FilterKind::QGram => b.filter(QGramBlocking::new(2, setup::THETA_TUPLE)),
                FilterKind::Lsh => b.filter(MinHashLshBlocking::new(16, 2)),
                FilterKind::TopK => b.filter(TopKBlocking::new(3)),
                FilterKind::SortedNeighborhood => b.filter(SortedNeighborhoodFilter::new(4)),
                _ => unreachable!(),
            }
            .build()
            .run(&doc, &schema, setup::CD_TYPE)
            .expect("pipeline runs")
        };
        let baseline = build(1);
        for threads in THREAD_COUNTS {
            assert_eq!(build(threads), baseline, "{name} threads={threads}");
        }
    }
}
