//! Robustness: the pipeline on degenerate and messy corpora must produce
//! sensible results (or typed errors) — never panics.

use dogmatix_repro::core::fusion::fuse_clusters;
use dogmatix_repro::core::heuristics::HeuristicExpr;
use dogmatix_repro::core::pipeline::{Dogmatix, DEFAULT_THETA_TUPLE};
use dogmatix_repro::core::Mapping;
use dogmatix_repro::xml::{Document, Schema};

fn run(xml: &str, candidate: &str) -> dogmatix_repro::core::DetectionResult {
    let doc = Document::parse(xml).unwrap();
    let schema = Schema::infer(&doc).unwrap();
    let mut mapping = Mapping::new();
    mapping.add_type("T", [candidate]);
    Dogmatix::builder()
        .mapping(mapping)
        .heuristic(HeuristicExpr::r_distant_descendants(2))
        .build()
        .run(&doc, &schema, "T")
        .expect("pipeline must handle degenerate corpora")
}

#[test]
fn single_candidate_yields_nothing() {
    let r = run("<db><item><v>x</v></item></db>", "/db/item");
    assert_eq!(r.stats.candidates, 1);
    assert!(r.duplicate_pairs.is_empty());
    assert!(r.clusters.is_empty());
}

#[test]
fn all_identical_candidates_form_one_cluster() {
    let r = run(
        "<db><item><v>same</v></item><item><v>same</v></item>\
             <item><v>same</v></item><item><v>other</v></item></db>",
        "/db/item",
    );
    assert_eq!(r.clusters.len(), 1);
    assert_eq!(r.clusters[0], vec![0, 1, 2]);
}

#[test]
fn textless_candidates_are_all_pruned_or_unmatched() {
    let r = run(
        "<db><item><sub/><sub/></item><item><sub/></item></db>",
        "/db/item",
    );
    assert!(r.duplicate_pairs.is_empty());
}

#[test]
fn whitespace_and_entity_heavy_values() {
    let r = run(
        "<db><item><v>  a &amp; b  </v></item><item><v>a &amp; b</v></item>\
             <item><v>c &lt; d</v></item><item><v>e &gt; f</v></item></db>",
        "/db/item",
    );
    // Normalisation makes the first two identical.
    assert!(r.is_duplicate(0, 1));
    assert!(!r.is_duplicate(2, 3));
}

#[test]
fn unicode_values_compare_correctly() {
    let r = run(
        "<db><item><v>Fahrvergnügen Straße</v></item>\
             <item><v>Fahrvergnügen Strasse</v></item>\
             <item><v>日本語のタイトル</v></item>\
             <item><v>日本語のタイトレ</v></item></db>",
        "/db/item",
    );
    // ß→ss is 2 edits over 20 chars (0.1 < 0.15) → duplicates.
    assert!(r.is_duplicate(0, 1), "{:?}", r.duplicate_pairs);
    // One kana of 8 differs (0.125 < 0.15) → duplicates.
    assert!(r.is_duplicate(2, 3), "{:?}", r.duplicate_pairs);
    assert!(!r.is_duplicate(0, 2));
}

#[test]
fn mixed_content_candidates() {
    let r = run(
        "<db><item>prefix <v>x</v> suffix</item><item>prefix <v>x</v> suffix</item>\
             <item>other <v>y</v> thing</item></db>",
        "/db/item",
    );
    assert!(r.is_duplicate(0, 1));
}

#[test]
fn wildly_heterogeneous_structures_do_not_crash() {
    let r = run(
        "<db>\
           <item><a><b><c>deep</c></b></a></item>\
           <item>flat text</item>\
           <item><x>1</x><x>2</x><x>3</x><x>4</x><x>5</x></item>\
           <item/>\
         </db>",
        "/db/item",
    );
    assert_eq!(r.stats.candidates, 4);
}

#[test]
fn fusion_of_detected_clusters_shrinks_the_corpus() {
    let xml = "<db><item><v>dup val</v></item><item><v>dup val</v></item>\
                   <item><v>solo</v></item></db>";
    let doc = Document::parse(xml).unwrap();
    let schema = Schema::infer(&doc).unwrap();
    let mut mapping = Mapping::new();
    mapping.add_type("T", ["/db/item"]);
    let result = Dogmatix::builder()
        .mapping(mapping)
        .heuristic(HeuristicExpr::r_distant_descendants(1))
        .no_filter()
        .build()
        .run(&doc, &schema, "T")
        .unwrap();
    assert_eq!(result.clusters.len(), 1);
    let fused = fuse_clusters(
        &doc,
        &result.candidates,
        &result.clusters,
        DEFAULT_THETA_TUPLE,
    );
    assert_eq!(fused.select("/db/item").unwrap().len(), 2);
}

#[test]
fn query_formulation_matches_pipeline_selection() {
    // The emitted XQuery must reference exactly the paths the heuristic
    // selected.
    let doc = Document::parse("<db><item><a>1</a><b><c>2</c></b></item><item><a>3</a></item></db>")
        .unwrap();
    let schema = Schema::infer(&doc).unwrap();
    let e0 = schema.find_by_path("/db/item").unwrap();
    let heuristic = HeuristicExpr::r_distant_descendants(2);
    let selection = heuristic.select_paths(&schema, e0);
    let q = dogmatix_repro::core::query::description_query("/db/item", &selection);
    assert!(q.contains("$c/a"));
    assert!(q.contains("$c/b/c"));
    assert!(q.contains("for $c in $doc/db/item"));
}

#[test]
fn threshold_extremes() {
    let xml = "<db><item><v>alpha</v></item><item><v>alpha</v></item>\
                   <item><v>beta</v></item></db>";
    let doc = Document::parse(xml).unwrap();
    let schema = Schema::infer(&doc).unwrap();
    let mut mapping = Mapping::new();
    mapping.add_type("T", ["/db/item"]);
    let run_theta = |theta_cand: f64| {
        Dogmatix::builder()
            .mapping(mapping.clone())
            .heuristic(HeuristicExpr::r_distant_descendants(1))
            .theta_cand(theta_cand)
            .no_filter()
            .build()
            .run(&doc, &schema, "T")
            .unwrap()
    };
    // θ_cand = 1.0: sim > 1 is impossible → nothing detected.
    assert!(run_theta(1.0).duplicate_pairs.is_empty());
    // θ_cand = 0.0: any positive similarity is a duplicate.
    assert!(run_theta(0.0).is_duplicate(0, 1));
}
