//! Cross-crate integration tests: generated corpora through the full
//! pipeline (datagen → xml → core → eval).

use dogmatix_repro::core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_repro::core::pipeline::Dogmatix;
use dogmatix_repro::datagen::datasets::{dataset1_sized, dataset2_sized};
use dogmatix_repro::eval::metrics::pair_metrics;
use dogmatix_repro::eval::setup;

#[test]
fn dataset1_detection_is_effective_at_k6() {
    let (doc, gold) = dataset1_sized(21, 60);
    let schema = setup::cd_schema();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    let dx = setup::paper_detector(heuristic, setup::cd_mapping());
    let result = dx.run(&doc, &schema, setup::CD_TYPE).unwrap();
    let m = pair_metrics(&result.duplicate_pairs, &gold);
    assert!(m.recall() > 0.85, "recall {}", m.recall());
    assert!(m.precision() > 0.7, "precision {}", m.precision());
}

#[test]
fn without_filter_detects_a_superset_of_pairs() {
    let (doc, _) = dataset1_sized(3, 40);
    let schema = setup::cd_schema();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    let with = setup::paper_detector(heuristic.clone(), setup::cd_mapping())
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    let without = Dogmatix::builder()
        .mapping(setup::cd_mapping())
        .heuristic(heuristic)
        .theta_tuple(setup::THETA_TUPLE)
        .theta_cand(setup::THETA_CAND)
        .threads(0)
        .no_filter()
        .build()
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    // The filter can only remove pairs, never invent them.
    for pair in &with.duplicate_pairs {
        assert!(
            without.duplicate_pairs.contains(pair),
            "pair {pair:?} appears only with the filter"
        );
    }
    assert!(without.stats.pairs_compared >= with.stats.pairs_compared);
}

#[test]
fn parallel_equals_sequential_on_dataset1() {
    let (doc, _) = dataset1_sized(9, 50);
    let schema = setup::cd_schema();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(4), 1);
    let run_with = |threads: usize| {
        Dogmatix::builder()
            .mapping(setup::cd_mapping())
            .heuristic(heuristic.clone())
            .theta_tuple(setup::THETA_TUPLE)
            .theta_cand(setup::THETA_CAND)
            .threads(threads)
            .build()
            .run(&doc, &schema, setup::CD_TYPE)
            .unwrap()
    };
    let seq = run_with(1);
    let par = run_with(4);
    assert_eq!(seq.duplicate_pairs, par.duplicate_pairs);
    assert_eq!(seq.clusters, par.clusters);
    assert_eq!(seq.pruned, par.pruned);
}

#[test]
fn detection_is_deterministic() {
    let (doc, _) = dataset1_sized(5, 40);
    let schema = setup::cd_schema();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(5), 2);
    let run = || {
        setup::paper_detector(heuristic.clone(), setup::cd_mapping())
            .run(&doc, &schema, setup::CD_TYPE)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.duplicate_pairs, b.duplicate_pairs);
    assert_eq!(a.f_values, b.f_values);
}

#[test]
fn detected_pairs_only_involve_unpruned_candidates() {
    let (doc, _) = dataset1_sized(31, 60);
    let schema = setup::cd_schema();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    let result = setup::paper_detector(heuristic, setup::cd_mapping())
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    for (i, j, sim) in &result.duplicate_pairs {
        assert!(!result.pruned[*i] && !result.pruned[*j]);
        assert!(*sim > setup::THETA_CAND);
    }
}

#[test]
fn clusters_are_the_transitive_closure_of_pairs() {
    let (doc, _) = dataset1_sized(13, 60);
    let schema = setup::cd_schema();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(3), 1);
    let result = setup::paper_detector(heuristic, setup::cd_mapping())
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    // Every detected pair lands in the same cluster.
    let cluster_of = |x: usize| result.clusters.iter().position(|c| c.contains(&x));
    for (i, j, _) in &result.duplicate_pairs {
        assert_eq!(cluster_of(*i), cluster_of(*j));
        assert!(cluster_of(*i).is_some());
    }
    // Every cluster member of size-2 clusters appears in some pair.
    for cluster in &result.clusters {
        assert!(cluster.len() >= 2);
        for &m in cluster {
            assert!(result
                .duplicate_pairs
                .iter()
                .any(|(i, j, _)| *i == m || *j == m));
        }
    }
}

#[test]
fn dataset2_cross_source_duplicates_are_found() {
    let (doc, gold) = dataset2_sized(19, 50);
    let schema = setup::movie_schema(&doc);
    let heuristic = table4_heuristic(HeuristicExpr::r_distant_descendants(2), 2);
    let result = setup::paper_detector(heuristic, setup::movie_mapping())
        .run(&doc, &schema, setup::MOVIE_TYPE)
        .unwrap();
    let m = pair_metrics(&result.duplicate_pairs, &gold);
    assert!(m.recall() > 0.3, "recall {}", m.recall());
    assert!(m.precision() > 0.5, "precision {}", m.precision());
    // At least one detected pair crosses the two sources.
    let n = gold.len() / 2;
    assert!(
        result
            .duplicate_pairs
            .iter()
            .any(|(i, j, _)| (*i < n) != (*j < n)),
        "expected a cross-source duplicate"
    );
}

#[test]
fn output_document_roundtrips_through_the_parser() {
    let (doc, _) = dataset1_sized(2, 30);
    let schema = setup::cd_schema();
    let heuristic = table4_heuristic(HeuristicExpr::k_closest_descendants(6), 1);
    let result = setup::paper_detector(heuristic, setup::cd_mapping())
        .run(&doc, &schema, setup::CD_TYPE)
        .unwrap();
    let out = result.to_xml(&doc);
    let reparsed = dogmatix_repro::xml::Document::parse(&out.to_xml()).unwrap();
    assert_eq!(
        reparsed.select("/duplicates/dupcluster").unwrap().len(),
        result.clusters.len()
    );
}
