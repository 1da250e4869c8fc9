//! Single-record duplicate probes over a pinned store snapshot — the
//! query core behind `dogmatixd`, the CLI `--probe` one-shot mode, and
//! the differential suite (`tests/server.rs`). One code path serves all
//! three.
//!
//! A [`ProbeSnapshot`] pins everything a point-query needs: the
//! candidate nodes, their cached raw OD tuples, the interned
//! [`OdSet`], the similarity/classifier stage `Arc`s, and a one-sided
//! blocking index ([`crate::filter::QGramTermIndex`] /
//! [`crate::filter::LshBucketIndex`]). Snapshots are immutable — a
//! server swaps an `Arc<ProbeSnapshot>` at delta-batch boundaries while
//! probe threads keep reading the one they pinned.
//!
//! ### Why probe answers equal batch verdicts
//!
//! [`ProbeSnapshot::probe`] re-interns the snapshot's cached raw tuples
//! with the probe record appended **last**. First-occurrence interning
//! means every stored term/type/path id is unchanged by the append
//! (pinned by the `build_from_raw` differential tests), so similarities
//! — including the global softIDF weights over `|Ω| + 1` objects — are
//! bit-identical to a from-scratch batch run over corpus + record. The
//! candidate set comes from the same posting lookups the batch blocking
//! plans use ([`crate::filter`] builds both from one code path), so
//! membership matches the batch plan's pairs involving the record.
//!
//! ```
//! use dogmatix_core::pipeline::Dogmatix;
//! use dogmatix_core::probe::{ProbeBlocking, ProbeScratch, ProbeSnapshot};
//! use dogmatix_xml::{Document, Schema};
//!
//! let doc = Document::parse(
//!     "<db><m><t>Midnight Journey</t></m>\
//!          <m><t>Something Else</t></m></db>")?;
//! let schema = Schema::infer(&doc)?;
//! let dx = Dogmatix::builder().add_type("M", ["/db/m"]).build();
//! let snapshot = ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", ProbeBlocking::default())?;
//! let record = snapshot.record_from_xml("<m><t>Midnigth Journey</t></m>")?;
//! let mut scratch = ProbeScratch::new();
//! let answer = snapshot.probe(&record, 5, &mut scratch)?;
//! assert_eq!(answer.matches[0].index, 0);
//! assert!(answer.stats.candidates_examined <= answer.stats.total_objects);
//! # Ok::<(), dogmatix_core::DogmatixError>(())
//! ```

use crate::candidate::select_candidates;
use crate::classify::Class;
use crate::error::DogmatixError;
use crate::exec::{execute, Pairs};
use crate::filter::{
    LookupScratch, LshBucketIndex, MinHashLshBlocking, QGramBlocking, QGramTermIndex,
};
use crate::mapping::Mapping;
use crate::od::{extract_raw_tuples, OdSet, RawTuple};
use crate::pipeline::{selections_for_paths, Dogmatix};
use crate::stage::{PairClassifier, SimContext, SimilarityMeasure};
use dogmatix_textsim::{mix64, word_token_hashes_into};
use dogmatix_xml::{Document, NodeId};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Which one-sided blocking index a snapshot builds for candidate
/// generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeBlocking {
    /// Sublinear candidates through the q-gram length/count bounds —
    /// exact for measures where "no similar tuple" implies `sim = 0`
    /// (the paper's softIDF measure): the candidate set equals the
    /// batch [`QGramBlocking`] plan's pairs involving the record.
    QGram(QGramBlocking),
    /// Sublinear probabilistic candidates through banded MinHash — the
    /// batch [`MinHashLshBlocking`] plan's pairs involving the record.
    Lsh(MinHashLshBlocking),
    /// Score every stored object (`NoFilter` semantics) — linear, but
    /// exact for *any* measure.
    Exhaustive,
}

impl Default for ProbeBlocking {
    /// The paper-default pairing: 2-grams at `θ_tuple = 0.15`.
    fn default() -> Self {
        ProbeBlocking::QGram(QGramBlocking::new(2, crate::pipeline::DEFAULT_THETA_TUPLE))
    }
}

/// The built per-snapshot lookup structure behind [`ProbeBlocking`].
#[derive(Debug)]
enum ProbeIndex {
    QGram(Box<QGramTermIndex>),
    Lsh(LshBucketIndex),
    Exhaustive,
}

/// One answered duplicate (or possible-duplicate) of a probe record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeMatch {
    /// Candidate index within the snapshot (`0..total_objects`).
    pub index: usize,
    /// The matched candidate's document node.
    pub node: NodeId,
    /// Similarity of (candidate, probe record) — bit-identical to the
    /// batch pipeline's score for the same pair.
    pub sim: f64,
    /// The classifier's verdict for that similarity.
    pub class: Class,
}

/// Diagnostics of one probe: how sublinear the candidate lookup was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// `|Ω|`: objects held by the snapshot.
    pub total_objects: usize,
    /// Candidates the blocking index surfaced and the measure scored.
    pub candidates_examined: usize,
}

/// The result of [`ProbeSnapshot::probe`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeAnswer {
    /// Candidates classified [`Class::Duplicate`], sorted by similarity
    /// descending (ties by index), truncated to the requested `k`.
    pub matches: Vec<ProbeMatch>,
    /// Candidates in the classifier's possible-duplicate zone (empty
    /// for the default single-threshold classifier), same order/cap.
    pub possible: Vec<ProbeMatch>,
    /// Lookup diagnostics.
    pub stats: ProbeStats,
}

/// Reusable per-connection scratch so steady-state probes perform no
/// per-request `String` allocation in the lookup path (the no-hot-alloc
/// gate covers this module).
#[derive(Debug, Default)]
pub struct ProbeScratch {
    lookup: LookupScratch,
    candidates: BTreeSet<usize>,
    type_ids: Vec<u32>,
    tokens: BTreeSet<u64>,
    token_list: Vec<u64>,
    word_hashes: Vec<u64>,
    ext_nodes: Vec<NodeId>,
    pairs: Vec<(usize, usize)>,
    scored: Vec<ProbeMatch>,
}

impl ProbeScratch {
    /// Fresh scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        ProbeScratch::default()
    }
}

/// An immutable, consistent view of one detection state, answering
/// point-queries ("does this record have duplicates, and which?")
/// concurrently with ongoing ingest. See the module docs for the
/// equality guarantees.
#[derive(Debug)]
pub struct ProbeSnapshot {
    /// The served document at snapshot time (batch-parity runs in the
    /// stress suite re-detect over exactly this document).
    doc: Arc<Document>,
    /// Candidate nodes, aligned with `parts` and `ods` object indices.
    nodes: Vec<NodeId>,
    /// Candidate schema paths (for mapping probe XML fragments onto a
    /// candidate path in [`ProbeSnapshot::record_from_xml`]).
    schema_paths: Vec<String>,
    /// The active heuristic's description selection per candidate path.
    selections: HashMap<String, BTreeSet<String>>,
    /// The mapping the snapshot's extractions ran under.
    mapping: Mapping,
    /// Cached raw OD tuples per candidate — the probe re-interns these
    /// with the record appended.
    parts: Vec<Arc<Vec<RawTuple>>>,
    /// The interned snapshot store the lookup indexes were built over.
    ods: Arc<OdSet>,
    /// Pinned scoring stages (shared with the session that published
    /// the snapshot — `Arc` pointer equality, not copies).
    measure: Arc<dyn SimilarityMeasure>,
    classifier: Arc<dyn PairClassifier>,
    /// One-sided candidate lookup.
    index: ProbeIndex,
    /// Node id lent to the appended record during extended interning
    /// (`None` only when the document holds no element at all).
    probe_node: Option<NodeId>,
}

impl ProbeSnapshot {
    /// Assembles a snapshot from already-extracted parts. `ods` must be
    /// the interning of `parts` in order (both construction paths —
    /// batch and incremental — guarantee this; the audit gate checks
    /// structural invariants on every build).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        doc: Arc<Document>,
        nodes: Vec<NodeId>,
        schema_paths: Vec<String>,
        selections: HashMap<String, BTreeSet<String>>,
        mapping: Mapping,
        parts: Vec<Arc<Vec<RawTuple>>>,
        ods: Arc<OdSet>,
        measure: Arc<dyn SimilarityMeasure>,
        classifier: Arc<dyn PairClassifier>,
        blocking: ProbeBlocking,
    ) -> Self {
        let index = match blocking {
            ProbeBlocking::QGram(b) => ProbeIndex::QGram(Box::new(QGramTermIndex::new(b, &ods))),
            ProbeBlocking::Lsh(b) => ProbeIndex::Lsh(LshBucketIndex::new(b, &ods)),
            ProbeBlocking::Exhaustive => ProbeIndex::Exhaustive,
        };
        let probe_node = doc.root_element().or_else(|| nodes.first().copied());
        ProbeSnapshot {
            doc,
            nodes,
            schema_paths,
            selections,
            mapping,
            parts,
            ods,
            measure,
            classifier,
            index,
            probe_node,
        }
    }

    /// Builds a snapshot directly from a document — the CLI `--probe`
    /// entry point and the seed for differential tests. The pipeline's
    /// candidate selection, heuristic description selection, and
    /// extraction run exactly as a batch `detect` would.
    pub fn from_batch(
        dx: &Dogmatix,
        doc: &Document,
        schema: &dogmatix_xml::Schema,
        rw_type: &str,
        blocking: ProbeBlocking,
    ) -> Result<Self, DogmatixError> {
        dx.validate()?;
        if !dx.measure_stage().store_based() {
            return Err(DogmatixError::Config {
                // dxlint: allow(no-hot-alloc) — cold configuration-error path, not the lookup loop
                message: format!(
                    "measure {:?} walks the document and cannot score probe records; \
                     use a store-based measure",
                    dx.measure_stage()
                ),
            });
        }
        let candidates = select_candidates(doc, schema, dx.mapping(), rw_type)?;
        let selections = selections_for_paths(
            schema,
            &candidates.schema_paths,
            dx.selector_stage().as_ref(),
        )?;
        let mut parts: Vec<Arc<Vec<RawTuple>>> = Vec::with_capacity(candidates.nodes.len());
        for &node in &candidates.nodes {
            let path = doc.name_path(node);
            parts.push(Arc::new(extract_raw_tuples(
                doc,
                node,
                selections.get(&path),
                dx.mapping(),
            )));
        }
        let ods = Arc::new(OdSet::build_from_raw(
            candidates
                .nodes
                .iter()
                .copied()
                .zip(parts.iter().map(|p| p.as_slice())),
        ));
        crate::store::audit::audit_gate(&ods, "probe snapshot OD interning");
        Ok(ProbeSnapshot::from_parts(
            Arc::new(doc.clone()),
            candidates.nodes,
            candidates.schema_paths,
            selections,
            dx.mapping().clone(),
            parts,
            ods,
            Arc::clone(dx.measure_stage()),
            Arc::clone(dx.classifier_stage()),
            blocking,
        ))
    }

    /// The served document at snapshot time.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Objects held by the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the snapshot holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The interned snapshot store.
    pub fn ods(&self) -> &Arc<OdSet> {
        &self.ods
    }

    /// Candidate schema paths the snapshot accepts probe records for.
    pub fn schema_paths(&self) -> &[String] {
        &self.schema_paths
    }

    /// Extracts probe tuples from an XML fragment holding one candidate
    /// record (e.g. `<movie><title>…</title></movie>`). The fragment's
    /// root element is matched against the candidate paths' last
    /// segments (first match wins), wrapped in that path's ancestor
    /// elements, and extracted with the snapshot's own description
    /// selection and mapping — so the tuples equal what batch insertion
    /// of the same fragment would extract, as long as real ancestors
    /// carry no direct text (true for well-formed record corpora).
    pub fn record_from_xml(&self, xml: &str) -> Result<Vec<RawTuple>, DogmatixError> {
        let fragment = Document::parse(xml)?;
        let root = fragment
            .root_element()
            .ok_or_else(|| DogmatixError::Protocol {
                // dxlint: allow(no-hot-alloc) — cold malformed-request path, not the lookup loop
                message: "probe fragment holds no element".to_string(),
            })?;
        let root_path = fragment.name_path(root);
        let root_name = root_path.trim_start_matches('/');
        let path = self
            .schema_paths
            .iter()
            .find(|p| p.rsplit('/').next() == Some(root_name))
            .ok_or_else(|| DogmatixError::Protocol {
                // dxlint: allow(no-hot-alloc) — cold malformed-request path, not the lookup loop
                message: format!(
                    "probe element <{root_name}> matches no candidate path (expected one of {:?})",
                    self.schema_paths
                ),
            })?;

        // Wrap the fragment in the candidate path's ancestor chain so
        // name paths resolve as they would in the served document.
        // dxlint: allow(no-hot-alloc) — per-request XML assembly, not the per-candidate lookup loop
        let mut wrapped = String::new();
        let parents: Vec<&str> = path
            .trim_start_matches('/')
            .split('/')
            .collect::<Vec<_>>()
            .split_last()
            .map(|(_, init)| init.to_vec())
            .unwrap_or_default();
        for parent in &parents {
            wrapped.push('<');
            wrapped.push_str(parent);
            wrapped.push('>');
        }
        wrapped.push_str(xml);
        for parent in parents.iter().rev() {
            wrapped.push('<');
            wrapped.push('/');
            wrapped.push_str(parent);
            wrapped.push('>');
        }
        let doc = Document::parse(&wrapped)?;
        let node = doc
            .select(path)?
            .first()
            .copied()
            .ok_or_else(|| DogmatixError::Protocol {
                // dxlint: allow(no-hot-alloc) — cold malformed-request path, not the lookup loop
                message: format!("wrapped probe fragment does not resolve at {path}"),
            })?;
        Ok(extract_raw_tuples(
            &doc,
            node,
            self.selections.get(path),
            &self.mapping,
        ))
    }

    /// Resolves the record's real-world type names to the type ids
    /// append-last interning would assign: stored names keep their ids,
    /// unseen names get fresh ids (`type_count()`, `type_count()+1`, …)
    /// in first-occurrence order.
    fn resolve_type_ids(&self, record: &[RawTuple], out: &mut Vec<u32>) {
        let store = self.ods.store();
        let known = store.type_count() as u32;
        out.clear();
        let mut fresh = 0u32;
        for (pos, tuple) in record.iter().enumerate() {
            let id = match (0..known).find(|&ty| store.type_name(ty) == tuple.rw_type) {
                Some(ty) => ty,
                None => {
                    let earlier = record[..pos]
                        .iter()
                        .zip(out.iter())
                        .find(|(prev, id)| **id >= known && prev.rw_type == tuple.rw_type)
                        .map(|(_, &id)| id);
                    match earlier {
                        Some(id) => id,
                        None => {
                            let id = known + fresh;
                            fresh += 1;
                            id
                        }
                    }
                }
            };
            out.push(id);
        }
    }

    /// Answers a point-query: the top-`k` duplicates of `record` among
    /// the snapshot's objects, with batch-identical similarities.
    ///
    /// Candidate generation runs through the snapshot's one-sided
    /// blocking index (sublinear for the q-gram/LSH indexes); scoring
    /// re-interns the snapshot's cached parts with the record appended
    /// last and runs the pinned `SimilarityMeasure`/`PairClassifier`
    /// stages over the extended store. Doc-walking measures are
    /// rejected with a graceful `Config` error.
    pub fn probe(
        &self,
        record: &[RawTuple],
        k: usize,
        scratch: &mut ProbeScratch,
    ) -> Result<ProbeAnswer, DogmatixError> {
        if !self.measure.store_based() {
            return Err(DogmatixError::Config {
                // dxlint: allow(no-hot-alloc) — cold configuration-error path, not the lookup loop
                message: format!(
                    "measure {:?} walks the document and cannot score probe records; \
                     use a store-based measure",
                    self.measure
                ),
            });
        }
        let n = self.nodes.len();
        let (Some(probe_node), false) = (self.probe_node, n == 0) else {
            return Ok(ProbeAnswer {
                matches: Vec::new(),
                possible: Vec::new(),
                stats: ProbeStats {
                    total_objects: n,
                    candidates_examined: 0,
                },
            });
        };

        // 1. Candidate generation through the one-sided posting lookups.
        scratch.candidates.clear();
        match &self.index {
            ProbeIndex::Exhaustive => {
                scratch.candidates.extend(0..n);
            }
            ProbeIndex::QGram(ix) => {
                self.resolve_type_ids(record, &mut scratch.type_ids);
                let known = self.ods.store().type_count() as u32;
                for (tuple, &ty) in record.iter().zip(scratch.type_ids.iter()) {
                    if ty < known {
                        ix.lookup_into(
                            ty,
                            &tuple.norm,
                            &mut scratch.lookup,
                            &mut scratch.candidates,
                        );
                    }
                }
            }
            ProbeIndex::Lsh(ix) => {
                self.resolve_type_ids(record, &mut scratch.type_ids);
                scratch.tokens.clear();
                for (tuple, &ty) in record.iter().zip(scratch.type_ids.iter()) {
                    let salt = mix64(u64::from(ty) ^ ix.blocking().seed);
                    word_token_hashes_into(&tuple.norm, &mut scratch.word_hashes);
                    for &h in &scratch.word_hashes {
                        scratch.tokens.insert(h ^ salt);
                    }
                }
                scratch.token_list.clear();
                scratch.token_list.extend(scratch.tokens.iter().copied());
                ix.lookup_into(
                    &scratch.token_list,
                    &mut scratch.lookup,
                    &mut scratch.candidates,
                );
            }
        }
        let examined = scratch.candidates.len();

        // 2. Extended interning: append the record *last* so every
        // stored term/type/path id — and therefore every softIDF weight
        // over |Ω| + 1 — matches a batch run over corpus + record.
        let ext = OdSet::build_from_raw(
            self.nodes
                .iter()
                .copied()
                .zip(self.parts.iter().map(|p| p.as_slice()))
                .chain(std::iter::once((probe_node, record))),
        );

        // 3. Score (candidate, record) pairs through the pinned stages on
        // this thread. The executor audits the extended set and keeps one
        // cache per probe: the record's fresh term ids alias across probes.
        scratch.ext_nodes.clear();
        scratch.ext_nodes.extend(self.nodes.iter().copied());
        scratch.ext_nodes.push(probe_node);
        let prepared = self.measure.prepare(SimContext {
            doc: &self.doc,
            candidates: &scratch.ext_nodes,
            ods: &ext,
        });
        scratch.pairs.clear();
        scratch
            .pairs
            .extend(scratch.candidates.iter().map(|&j| (j, n)));
        scratch.scored.clear();
        execute(
            &ext,
            Pairs::Plan(&scratch.pairs),
            1,
            prepared.as_ref(),
            self.classifier.as_ref(),
            &mut scratch.scored,
            |j, _, sim, class| {
                (class != Class::NonDuplicate).then(|| ProbeMatch {
                    index: j,
                    node: self.nodes[j],
                    sim,
                    class,
                })
            },
        );
        scratch
            .scored
            .sort_by(|a, b| b.sim.total_cmp(&a.sim).then(a.index.cmp(&b.index)));
        let mut matches = Vec::new();
        let mut possible = Vec::new();
        for m in scratch.scored.iter() {
            match m.class {
                Class::Duplicate if matches.len() < k => matches.push(*m),
                Class::Possible if possible.len() < k => possible.push(*m),
                _ => {}
            }
        }
        Ok(ProbeAnswer {
            matches,
            possible,
            stats: ProbeStats {
                total_objects: n,
                candidates_examined: examined,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::NoFilter;
    use dogmatix_xml::Schema;

    fn corpus() -> (Document, Schema, Dogmatix) {
        let doc = Document::parse(
            "<db>\
               <m><t>Midnight Journey</t><y>1999</y></m>\
               <m><t>Something Else</t><y>2002</y></m>\
               <m><t>Fourth Record</t><y>1971</y></m>\
             </db>",
        )
        .unwrap();
        let schema = Schema::infer(&doc).unwrap();
        let dx = Dogmatix::builder().add_type("M", ["/db/m"]).build();
        (doc, schema, dx)
    }

    /// For every blocking mode, a probe's verdicts equal a batch run
    /// over corpus + record: membership, classification, and bitwise
    /// similarity.
    #[test]
    fn probe_equals_batch_over_appended_record() {
        let (doc, schema, dx) = corpus();
        let record_xml = "<m><t>Midnigth Journey</t><y>1999</y></m>";
        // Batch ground truth: the corpus with the record appended.
        let ext_doc = Document::parse(
            "<db>\
               <m><t>Midnight Journey</t><y>1999</y></m>\
               <m><t>Something Else</t><y>2002</y></m>\
               <m><t>Fourth Record</t><y>1971</y></m>\
               <m><t>Midnigth Journey</t><y>1999</y></m>\
             </db>",
        )
        .unwrap();
        let ext_schema = Schema::infer(&ext_doc).unwrap();
        let batch_dx = Dogmatix::builder()
            .add_type("M", ["/db/m"])
            .filter(NoFilter)
            .build();
        let batch = batch_dx.run(&ext_doc, &ext_schema, "M").unwrap();
        let n = 3usize;
        let expected: Vec<(usize, f64)> = batch
            .duplicate_pairs
            .iter()
            .filter(|&&(_, j, _)| j == n)
            .map(|&(i, _, s)| (i, s))
            .collect();
        assert!(
            !expected.is_empty(),
            "the typo record must have a duplicate"
        );

        for blocking in [
            ProbeBlocking::Exhaustive,
            ProbeBlocking::QGram(QGramBlocking::new(2, 0.15)),
            ProbeBlocking::Lsh(MinHashLshBlocking::new(48, 2)),
        ] {
            let snapshot = ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", blocking).unwrap();
            let record = snapshot.record_from_xml(record_xml).unwrap();
            let mut scratch = ProbeScratch::new();
            let answer = snapshot.probe(&record, usize::MAX, &mut scratch).unwrap();
            let got: Vec<(usize, f64)> = answer.matches.iter().map(|m| (m.index, m.sim)).collect();
            let mut want = expected.clone();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            assert_eq!(got, want, "blocking {blocking:?} diverged from batch");
            assert_eq!(answer.stats.total_objects, n);
        }
    }

    #[test]
    fn qgram_probe_examines_fewer_candidates_than_exhaustive() {
        let (doc, schema, dx) = corpus();
        let snapshot = ProbeSnapshot::from_batch(
            &dx,
            &doc,
            &schema,
            "M",
            ProbeBlocking::QGram(QGramBlocking::new(2, 0.15)),
        )
        .unwrap();
        let record = snapshot
            .record_from_xml("<m><t>Midnigth Journey</t><y>1999</y></m>")
            .unwrap();
        let mut scratch = ProbeScratch::new();
        let answer = snapshot.probe(&record, 5, &mut scratch).unwrap();
        assert!(
            answer.stats.candidates_examined < answer.stats.total_objects,
            "{:?}",
            answer.stats
        );
        assert_eq!(answer.matches[0].index, 0);
    }

    #[test]
    fn unseen_record_types_probe_to_no_candidates() {
        let (doc, schema, dx) = corpus();
        let snapshot = ProbeSnapshot::from_batch(
            &dx,
            &doc,
            &schema,
            "M",
            ProbeBlocking::QGram(QGramBlocking::new(2, 0.15)),
        )
        .unwrap();
        // A record whose tuples all carry a type name the store never
        // interned: resolved to fresh ids, no stored term can pair.
        let record = vec![RawTuple {
            value: "Midnight Journey".into(),
            path: "/db/m/q".into(),
            rw_type: "NEVER_SEEN".into(),
            norm: "midnight journey".into(),
        }];
        let mut scratch = ProbeScratch::new();
        let answer = snapshot.probe(&record, 5, &mut scratch).unwrap();
        assert_eq!(answer.stats.candidates_examined, 0);
        assert!(answer.matches.is_empty());
    }

    #[test]
    fn doc_walking_measures_are_rejected_gracefully() {
        let (doc, schema, _) = corpus();
        let dx = Dogmatix::builder()
            .add_type("M", ["/db/m"])
            .measure(crate::baseline::TreeEditMeasure)
            .build();
        let err = ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", ProbeBlocking::Exhaustive)
            .unwrap_err();
        assert!(matches!(err, DogmatixError::Config { .. }), "{err}");
    }

    #[test]
    fn record_from_xml_rejects_unknown_elements_and_garbage() {
        let (doc, schema, dx) = corpus();
        let snapshot =
            ProbeSnapshot::from_batch(&dx, &doc, &schema, "M", ProbeBlocking::default()).unwrap();
        let err = snapshot.record_from_xml("<zz><t>X</t></zz>").unwrap_err();
        assert!(matches!(err, DogmatixError::Protocol { .. }), "{err}");
        assert!(snapshot.record_from_xml("<m><t>broken").is_err());
    }

    #[test]
    fn empty_snapshot_answers_empty() {
        let doc = Arc::new(Document::parse("<db><other/></db>").unwrap());
        let dx = Dogmatix::builder().add_type("M", ["/db/m"]).build();
        let snapshot = ProbeSnapshot::from_parts(
            doc,
            Vec::new(),
            vec!["/db/m".to_string()],
            HashMap::new(),
            Mapping::new(),
            Vec::new(),
            Arc::new(OdSet::build_from_raw(std::iter::empty::<(
                NodeId,
                &[RawTuple],
            )>())),
            Arc::clone(dx.measure_stage()),
            Arc::clone(dx.classifier_stage()),
            ProbeBlocking::default(),
        );
        assert!(snapshot.is_empty());
        let record = vec![];
        let mut scratch = ProbeScratch::new();
        let answer = snapshot.probe(&record, 5, &mut scratch).unwrap();
        assert_eq!(answer.stats.total_objects, 0);
        assert!(answer.matches.is_empty());
    }
}
