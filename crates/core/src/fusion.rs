//! Data fusion: merging duplicate clusters into one representative.
//!
//! The framework's closing remark: "the resulting identified data may be
//! input to many applications, such as data fusion methods or ETL
//! tools." This module provides that next step — given the detected
//! clusters, it produces a deduplicated document in which each cluster
//! is replaced by one fused element:
//!
//! * child elements are merged per name path: values that are
//!   ned-similar are conflated (the longest survives — typically the
//!   least truncated spelling), distinct values are kept side by side,
//! * missing data is filled from any cluster member (the complement of
//!   the paper's "missing data should not be penalized"),
//! * non-clustered candidates are copied through unchanged.

use crate::cluster::UnionFind;
use dogmatix_textsim::{ned_within, normalize_value};
use dogmatix_xml::{Document, NodeId};

/// Fuses duplicate clusters into representatives, returning a new
/// document with one element per real-world object.
///
/// `candidates` and `clusters` come from a
/// [`crate::pipeline::DetectionResult`]; the output root carries the
/// same name as the source root. Values within the normalised edit
/// distance `theta_tuple` are conflated (pass the detection run's
/// `θ_tuple` for consistency).
pub fn fuse_clusters(
    doc: &Document,
    candidates: &[NodeId],
    clusters: &[Vec<usize>],
    theta_tuple: f64,
) -> Document {
    let root_name = doc
        .root_element()
        .and_then(|r| doc.name(r))
        .unwrap_or("fused")
        .to_string();
    let mut out = Document::with_root(&root_name);
    // dxlint: allow(no-panic) — with_root just created that root element
    let out_root = out.root_element().expect("with_root creates a root");

    // Union-find over candidates to know each one's cluster (if any).
    let mut uf = UnionFind::new(candidates.len());
    for cluster in clusters {
        for w in cluster.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    let mut emitted: std::collections::HashSet<usize> = Default::default();

    for i in 0..candidates.len() {
        let rep = uf.find(i);
        if !emitted.insert(rep) {
            continue; // cluster already fused
        }
        let members: Vec<NodeId> = (0..candidates.len())
            .filter(|j| uf.find(*j) == rep)
            .map(|j| candidates[j])
            .collect();
        fuse_members(doc, &members, &mut out, out_root, theta_tuple);
    }
    out
}

/// Builds one fused element from cluster members.
fn fuse_members(
    doc: &Document,
    members: &[NodeId],
    out: &mut Document,
    parent: NodeId,
    theta_tuple: f64,
) {
    let name = doc.name(members[0]).unwrap_or("object");
    let fused = out.add_element(parent, name);
    if members.len() > 1 {
        out.set_attr(fused, "fused-from", &members.len().to_string());
    }

    // Collect child element names in first-appearance order across
    // members.
    let mut child_names: Vec<String> = Vec::new();
    for &m in members {
        for c in doc.child_elements(m) {
            // Child elements always carry a name; skip rather than
            // panic if the DOM invariant is ever broken.
            let Some(n) = doc.name(c).map(str::to_string) else {
                continue;
            };
            if !child_names.contains(&n) {
                child_names.push(n);
            }
        }
    }

    for child_name in &child_names {
        // Gather all instances of this child across members.
        let instances: Vec<NodeId> = members
            .iter()
            .flat_map(|m| doc.child_elements(*m))
            .filter(|c| doc.name(*c) == Some(child_name.as_str()))
            .collect();
        let has_grandchildren = instances
            .iter()
            .any(|c| doc.child_elements(*c).next().is_some());
        if has_grandchildren {
            // Complex child (e.g. <tracks>): fuse recursively, merging
            // all instances into one.
            fuse_members(doc, &instances, out, fused, theta_tuple);
        } else {
            // Simple children: conflate ned-similar values.
            let mut kept: Vec<String> = Vec::new();
            for inst in &instances {
                let Some(value) = doc.direct_text(*inst) else {
                    continue;
                };
                let norm = normalize_value(&value);
                match kept
                    .iter_mut()
                    .find(|k| ned_within(&normalize_value(k), &norm, theta_tuple).is_some())
                {
                    Some(existing) => {
                        // Keep the longer spelling (less truncation).
                        if value.len() > existing.len() {
                            *existing = value;
                        }
                    }
                    None => kept.push(value),
                }
            }
            for v in kept {
                out.add_text_element(fused, child_name, &v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DEFAULT_THETA_TUPLE;

    fn fuse(xml: &str, clusters: &[Vec<usize>]) -> Document {
        let doc = Document::parse(xml).unwrap();
        let root = doc.root_element().unwrap();
        let candidates: Vec<NodeId> = doc.child_elements(root).collect();
        fuse_clusters(&doc, &candidates, clusters, DEFAULT_THETA_TUPLE)
    }

    #[test]
    fn cluster_members_merge_into_one_element() {
        let out = fuse(
            "<discs>\
               <disc><title>Blue Train</title><year>1957</year></disc>\
               <disc><title>Blue Trainn</title><year>1957</year></disc>\
               <disc><title>Other Album</title><year>1960</year></disc>\
             </discs>",
            &[vec![0, 1]],
        );
        let discs = out.select("/discs/disc").unwrap();
        assert_eq!(discs.len(), 2, "{}", out.to_xml_pretty());
        // The fused disc keeps one title (the longer/clean spelling set
        // by first-wins among equal lengths) and one year.
        let fused = discs
            .iter()
            .find(|d| out.attr(**d, "fused-from").is_some())
            .copied()
            .unwrap();
        assert_eq!(out.select_from(fused, "./title").unwrap().len(), 1);
        assert_eq!(out.select_from(fused, "./year").unwrap().len(), 1);
        assert_eq!(out.attr(fused, "fused-from"), Some("2"));
    }

    #[test]
    fn missing_data_is_filled_from_members() {
        let out = fuse(
            "<discs>\
               <disc><title>A</title></disc>\
               <disc><title>A</title><genre>Jazz</genre></disc>\
             </discs>",
            &[vec![0, 1]],
        );
        let fused = out.select("/discs/disc").unwrap()[0];
        // The genre from member 2 survives in the fused element.
        assert_eq!(out.select_from(fused, "./genre").unwrap().len(), 1);
    }

    #[test]
    fn distinct_values_are_kept_side_by_side() {
        let out = fuse(
            "<movies>\
               <movie><actor>Keanu Reeves</actor></movie>\
               <movie><actor>Laurence Fishburne</actor></movie>\
             </movies>",
            &[vec![0, 1]],
        );
        let fused = out.select("/movies/movie").unwrap()[0];
        assert_eq!(out.select_from(fused, "./actor").unwrap().len(), 2);
    }

    #[test]
    fn longest_spelling_wins_conflation() {
        let out = fuse(
            "<discs>\
               <disc><title>Blue Trai</title></disc>\
               <disc><title>Blue Train</title></disc>\
             </discs>",
            &[vec![0, 1]],
        );
        let title = out.select("/discs/disc/title").unwrap();
        assert_eq!(title.len(), 1);
        assert_eq!(
            out.direct_text(title[0]).as_deref(),
            Some("Blue Train"),
            "the longer spelling survives"
        );
    }

    #[test]
    fn singletons_pass_through() {
        let out = fuse("<discs><disc><title>Solo</title></disc></discs>", &[]);
        let discs = out.select("/discs/disc").unwrap();
        assert_eq!(discs.len(), 1);
        assert_eq!(out.attr(discs[0], "fused-from"), None);
    }

    #[test]
    fn nested_complex_children_merge_recursively() {
        let out = fuse(
            "<discs>\
               <disc><tracks><title>One</title></tracks></disc>\
               <disc><tracks><title>One</title><title>Two</title></tracks></disc>\
             </discs>",
            &[vec![0, 1]],
        );
        let fused = out.select("/discs/disc").unwrap()[0];
        assert_eq!(out.select_from(fused, "./tracks").unwrap().len(), 1);
        let titles = out.select_from(fused, "./tracks/title").unwrap();
        assert_eq!(titles.len(), 2, "{}", out.to_xml_pretty());
    }

    #[test]
    fn transitive_clusters_fuse_fully() {
        let out = fuse(
            "<r><m><t>A</t></m><m><t>A</t></m><m><t>A</t></m></r>",
            &[vec![0, 1, 2]],
        );
        assert_eq!(out.select("/r/m").unwrap().len(), 1);
    }
}
