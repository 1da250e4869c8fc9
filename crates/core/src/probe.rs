//! Single-record duplicate probes over a pinned store snapshot — the
//! query core behind `dogmatixd`, the CLI `--probe` one-shot mode, and
//! the differential suite (`tests/server.rs`). One code path serves all
//! three.
//!
//! A [`ProbeSnapshot`] pins everything a point-query needs: the
//! candidate nodes, the interned [`OdSet`] with its interner frozen,
//! the similarity/classifier stage `Arc`s, and a one-sided blocking
//! index ([`crate::filter::QGramTermIndex`] /
//! [`crate::filter::LshBucketIndex`]). It holds no document: probes
//! score through store-based measures only. Snapshots are immutable — a
//! server swaps an `Arc<ProbeSnapshot>` at delta-batch boundaries while
//! probe threads keep reading the one they pinned.
//!
//! ### Why probe answers equal batch verdicts
//!
//! A snapshot keeps its store's interner, frozen: the lookups from type
//! name, `(type, norm)`, path and raw value to their ids and spans that
//! the build of the store grew (`OdSet::build_frozen`). A
//! probe copies the store into its scratch and appends the record
//! **last** through those frozen lookups, exactly as interning
//! corpus + record from scratch would: a seen term gains the record's
//! posting, anything unseen takes the next id, and the IDF column is
//! re-weighted for `|Ω| + 1` objects. The extended set is `==` to
//! `OdSet::build_from_raw` over corpus + record (the `od.rs`
//! differential pins this), so similarities — including the global
//! softIDF weights — are bit-identical to a from-scratch batch run over
//! corpus + record, at a copy's cost instead of a re-intern's. The
//! candidate set comes from the same posting lookups the batch blocking
//! plans use ([`crate::filter`] builds both from one code path), keyed by
//! the record's type ids in the extended set, so membership matches the
//! batch plan's pairs involving the record.
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
use crate::od::{extract_raw_tuples, AppendScratch, OdSet, RawTuple};
use crate::pipeline::{selections_for_paths, Dogmatix};
use crate::stage::{PairClassifier, SimContext, SimilarityMeasure};
use crate::store::FrozenInterner;
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
/// gate covers this module), and refill the extended store into
/// buffers already grown to its size.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    lookup: LookupScratch,
    candidates: BTreeSet<usize>,
    tokens: BTreeSet<u64>,
    token_list: Vec<u64>,
    word_hashes: Vec<u64>,
    /// The snapshot's store with the probe record appended.
    ext: OdSet,
    append: AppendScratch,
    /// Stands in for the document in the measure context: store-based
    /// measures never read it.
    empty_doc: Document,
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
    /// Candidate nodes, aligned with `ods` object indices.
    nodes: Vec<NodeId>,
    /// Candidate schema paths (for mapping probe XML fragments onto a
    /// candidate path in [`ProbeSnapshot::record_from_xml`]).
    schema_paths: Vec<String>,
    /// The active heuristic's description selection per candidate path.
    selections: HashMap<String, BTreeSet<String>>,
    /// The mapping the snapshot's extractions ran under.
    mapping: Mapping,
    /// The interned snapshot store the lookup indexes were built over.
    ods: Arc<OdSet>,
    /// `ods`' interner, frozen: probes append their record through it.
    frozen: Arc<FrozenInterner>,
    /// Pinned scoring stages (shared with the session that published
    /// the snapshot — `Arc` pointer equality, not copies).
    measure: Arc<dyn SimilarityMeasure>,
    classifier: Arc<dyn PairClassifier>,
    /// One-sided candidate lookup.
    index: ProbeIndex,
    /// Node id lent to the appended record in the extended store
    /// (`None` only when the document holds no element at all).
    probe_node: Option<NodeId>,
}

impl ProbeSnapshot {
    /// Assembles a snapshot over an interned store. `ods` must be the
    /// interning of the candidates' extractions in order (both
    /// construction paths — batch and incremental — guarantee this; the
    /// audit gate checks structural invariants on every build), and
    /// `frozen` the interner that built it ([`OdSet::build_frozen`]).
    /// `probe_node` is the node lent to appended records: the document's
    /// root element, else the first candidate.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        probe_node: Option<NodeId>,
        nodes: Vec<NodeId>,
        schema_paths: Vec<String>,
        selections: HashMap<String, BTreeSet<String>>,
        mapping: Mapping,
        ods: Arc<OdSet>,
        frozen: Arc<FrozenInterner>,
        measure: Arc<dyn SimilarityMeasure>,
        classifier: Arc<dyn PairClassifier>,
        blocking: ProbeBlocking,
    ) -> Self {
        let index = match blocking {
            ProbeBlocking::QGram(b) => ProbeIndex::QGram(Box::new(QGramTermIndex::new(b, &ods))),
            ProbeBlocking::Lsh(b) => ProbeIndex::Lsh(LshBucketIndex::new(b, &ods)),
            ProbeBlocking::Exhaustive => ProbeIndex::Exhaustive,
        };
        ProbeSnapshot {
            nodes,
            schema_paths,
            selections,
            mapping,
            frozen,
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
        let parts: Vec<Vec<RawTuple>> = candidates
            .nodes
            .iter()
            .map(|&node| {
                let path = doc.name_path(node);
                extract_raw_tuples(doc, node, selections.get(&path), dx.mapping())
            })
            .collect();
        let (ods, frozen) = OdSet::build_frozen(
            candidates
                .nodes
                .iter()
                .copied()
                .zip(parts.iter().map(Vec::as_slice)),
        );
        let ods = Arc::new(ods);
        crate::store::audit::audit_gate(&ods, "probe snapshot OD interning");
        let probe_node = doc
            .root_element()
            .or_else(|| candidates.nodes.first().copied());
        Ok(ProbeSnapshot::from_parts(
            probe_node,
            candidates.nodes,
            candidates.schema_paths,
            selections,
            dx.mapping().clone(),
            ods,
            Arc::new(frozen),
            Arc::clone(dx.measure_stage()),
            Arc::clone(dx.classifier_stage()),
            blocking,
        ))
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

    /// Answers a point-query: the top-`k` duplicates of `record` among
    /// the snapshot's objects, with batch-identical similarities.
    ///
    /// The record is appended last to a scratch copy of the snapshot's
    /// store through the frozen interner; candidate generation runs
    /// through the snapshot's one-sided blocking index (sublinear for
    /// the q-gram/LSH indexes) under the record's extended type ids;
    /// scoring runs the pinned `SimilarityMeasure`/`PairClassifier`
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

        // 1. Append the record *last* to a copy of the frozen store, so
        // every stored term/type/path id — and every softIDF weight over
        // |Ω| + 1 — matches a batch run over corpus + record.
        scratch.ext.refill_appended(
            &self.ods,
            &self.frozen,
            probe_node,
            record,
            &mut scratch.append,
        );
        let record_types = scratch.ext.od(n).tuples().map(|t| t.type_id());

        // 2. Candidate generation through the one-sided posting lookups,
        // keyed by the record's type ids in the extended store.
        scratch.candidates.clear();
        match &self.index {
            ProbeIndex::Exhaustive => {
                scratch.candidates.extend(0..n);
            }
            ProbeIndex::QGram(ix) => {
                let known = self.ods.store().type_count() as u32;
                for (tuple, ty) in record.iter().zip(record_types) {
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
                scratch.tokens.clear();
                for (tuple, ty) in record.iter().zip(record_types) {
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

        // 3. Score (candidate, record) pairs through the pinned stages on
        // this thread. The executor audits the extended set and keeps one
        // cache per probe: the record's fresh term ids alias across probes.
        let ext = &scratch.ext;
        let prepared = self.measure.prepare(SimContext {
            doc: &scratch.empty_doc,
            candidates: ext.nodes(),
            ods: ext,
        });
        scratch.pairs.clear();
        scratch
            .pairs
            .extend(scratch.candidates.iter().map(|&j| (j, n)));
        scratch.scored.clear();
        execute(
            ext,
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

    /// For the exhaustive, q-gram and LSH indexes, on the toy corpus and
    /// on the movie corpus (both sources, PERSON composite), a probe's
    /// verdicts equal a batch run over corpus + record whose filter is
    /// the index's batch plan: membership, classification, and bitwise
    /// similarity. Every index finds a duplicate on each corpus, and on
    /// the toy typo record every index answers exactly what an
    /// unfiltered batch run finds.
    #[test]
    fn probe_equals_batch_over_appended_record() {
        let (toy_doc, _, _) = corpus();
        let (movie_doc, _) = dogmatix_datagen::datasets::dataset2_sized(3, 8);
        // A fragment rooted <movie> resolves to the first candidate path
        // (imdb), so records shaped like imdb movies extract as batch
        // insertion under /integrated/imdb would.
        let movie_records: Vec<String> = movie_doc.select("/integrated/imdb/movie").unwrap()[..4]
            .iter()
            .map(|&n| movie_doc.node_xml(n))
            .collect();
        let mut toy_mapping = Mapping::new();
        toy_mapping.add_type("M", ["/db/m"]);
        // (corpus, mapping, heuristic, type, insertion parent, records,
        // whether every index must answer the unfiltered batch verdicts)
        let cases = [
            (
                &toy_doc,
                toy_mapping,
                crate::heuristics::HeuristicExpr::k_closest_descendants(6),
                "M",
                "/db",
                vec!["<m><t>Midnigth Journey</t><y>1999</y></m>".to_string()],
                true,
            ),
            (
                &movie_doc,
                crate::od::tests::movie_mapping(),
                crate::heuristics::HeuristicExpr::r_distant_descendants(3),
                "MOVIE",
                "/integrated/imdb",
                movie_records,
                false,
            ),
        ];
        for (doc, mapping, heuristic, rw_type, parent, records, complete) in cases {
            let schema = Schema::infer(doc).unwrap();
            let dx = |filter: Option<ProbeBlocking>| {
                let builder = Dogmatix::builder()
                    .mapping(mapping.clone())
                    .heuristic(heuristic.clone());
                match filter {
                    None => builder.build(),
                    Some(ProbeBlocking::QGram(b)) => builder.filter(b).build(),
                    Some(ProbeBlocking::Lsh(b)) => builder.filter(b).build(),
                    Some(ProbeBlocking::Exhaustive) => builder.filter(NoFilter).build(),
                }
            };
            // Batch ground truth: the duplicates of the record appended
            // last to the corpus, under `filter`'s batch plan, ordered as
            // a probe ranks them.
            let batch_answer = |filter: ProbeBlocking, record_xml: &str| {
                let mut ext_doc = doc.clone();
                let at = ext_doc.select(parent).unwrap()[0];
                ext_doc.append_xml(at, record_xml).unwrap();
                let ext_schema = Schema::infer(&ext_doc).unwrap();
                let batch = dx(Some(filter))
                    .run(&ext_doc, &ext_schema, rw_type)
                    .unwrap();
                let n = batch.candidates.len() - 1;
                let mut want: Vec<(usize, f64)> = batch
                    .duplicate_pairs
                    .iter()
                    .filter(|&&(_, j, _)| j == n)
                    .map(|&(i, _, s)| (i, s))
                    .collect();
                want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                (n, want)
            };
            for blocking in [
                ProbeBlocking::Exhaustive,
                ProbeBlocking::QGram(QGramBlocking::new(2, 0.15)),
                ProbeBlocking::Lsh(MinHashLshBlocking::new(48, 2)),
            ] {
                let snapshot =
                    ProbeSnapshot::from_batch(&dx(None), doc, &schema, rw_type, blocking).unwrap();
                let mut scratch = ProbeScratch::new();
                let mut found = 0;
                for record_xml in &records {
                    let (n, want) = batch_answer(blocking, record_xml);
                    assert_eq!(n, snapshot.len());
                    if complete {
                        let (_, unfiltered) = batch_answer(ProbeBlocking::Exhaustive, record_xml);
                        assert_eq!(
                            want, unfiltered,
                            "{rw_type} {blocking:?} plan misses a pair"
                        );
                    }

                    let record = snapshot.record_from_xml(record_xml).unwrap();
                    let answer = snapshot.probe(&record, usize::MAX, &mut scratch).unwrap();
                    let got: Vec<(usize, f64)> =
                        answer.matches.iter().map(|m| (m.index, m.sim)).collect();
                    assert_eq!(got, want, "{rw_type} {blocking:?} diverged from batch");
                    assert_eq!(answer.stats.total_objects, n);
                    found += got.len();
                }
                assert!(
                    found > 0,
                    "no {rw_type} {blocking:?} probe found a duplicate"
                );
            }
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
        let doc = Document::parse("<db><other/></db>").unwrap();
        let dx = Dogmatix::builder().add_type("M", ["/db/m"]).build();
        let (ods, frozen) = OdSet::build_frozen(std::iter::empty::<(NodeId, &[RawTuple])>());
        let snapshot = ProbeSnapshot::from_parts(
            doc.root_element(),
            Vec::new(),
            vec!["/db/m".to_string()],
            HashMap::new(),
            Mapping::new(),
            Arc::new(ods),
            Arc::new(frozen),
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
