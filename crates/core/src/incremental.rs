//! Streaming ingest: incremental duplicate detection over a mutating
//! document.
//!
//! The batch pipeline ([`Dogmatix::detect`]) assumes a static snapshot;
//! a production service sees a stream of inserts, removals, and field
//! updates instead. This module keeps detection state consistent across
//! such [`DocumentDelta`]s the way incremental view maintenance keeps a
//! materialised view consistent with its base tables: apply the delta,
//! surgically invalidate exactly the derived state it can have touched,
//! and recompute only that.
//!
//! An [`IncrementalSession`] owns the document and maintains, across
//! [`Dogmatix::detect_delta`] calls:
//!
//! * the **candidate set** (updated in place via
//!   [`CandidateSet::insert_node`] / [`CandidateSet::remove_node`]
//!   instead of re-running the candidate query),
//! * a per-candidate **description-extraction cache** (raw OD tuples;
//!   only candidates touched by a delta are re-extracted — the term
//!   table is then re-interned in one cheap pass so ids stay identical
//!   to a batch build),
//! * the previous run's **pair classifications**, replayed for every
//!   pair whose similarity provably cannot have changed.
//!
//! ## Which pairs must be re-compared?
//!
//! `sim(OD_i, OD_j)` (and every bundled [`SimilarityMeasure`]) reads
//! three things: the two descriptions, the posting lists of their terms
//! (IDF weights), and the candidate count `|Ω|`. Hence, after a delta:
//!
//! * a **field update** re-compares only pairs touching an *affected*
//!   candidate — one that was edited, or one containing a term whose
//!   posting list changed (its IDF moved). All other pairs replay their
//!   cached similarity bit-for-bit;
//! * an **object insert/remove** changes `|Ω|`, which shifts *every*
//!   softIDF weight, so the comparison step falls back to a full
//!   re-score (extraction and candidate caches still carry over).
//!
//! Comparison reduction (step 4) is always re-run — the object filter
//! and blocking plans are global, and they cost about one similarity
//! evaluation per *object*, not per pair. The classifier's verdicts are
//! replayed per pair, so blocking filters compose: reuse applies to
//! whatever pair plan the [`ComparisonFilter`] emits.
//!
//! The contract "incremental result == batch result over the final
//! state" is enforced by the differential property suite in
//! `tests/incremental.rs`.
//!
//! ```
//! use dogmatix_core::incremental::DocumentDelta;
//! use dogmatix_core::pipeline::Dogmatix;
//! use dogmatix_xml::Document;
//!
//! let doc = Document::parse(
//!     "<db><item><t>alpha ray</t></item><item><t>beta ray</t></item>\
//!      <item><t>gamma burst</t></item><item><t>delta wave</t></item></db>")?;
//! let dx = Dogmatix::builder()
//!     .add_type("ITEM", ["/db/item"])
//!     .theta_tuple(0.25)
//!     .no_filter()
//!     .build();
//! let mut session = dx.incremental_session_inferred(doc, "ITEM")?;
//! let initial = dx.detect_delta(&mut session, &[])?;
//! assert!(initial.duplicate_pairs.is_empty());
//!
//! // A typo fix turns item 1 into a duplicate of item 0.
//! let fixed = dx.detect_delta(&mut session, &[DocumentDelta::UpdateText {
//!     index: 1,
//!     path: "t".into(),
//!     occurrence: 0,
//!     value: "alpha ray".into(),
//! }])?;
//! assert_eq!(fixed.clusters, vec![vec![0, 1]]);
//! # Ok::<(), dogmatix_core::DogmatixError>(())
//! ```
//!
//! [`SimilarityMeasure`]: crate::stage::SimilarityMeasure
//! [`ComparisonFilter`]: crate::stage::ComparisonFilter

use crate::candidate::{select_candidates, CandidateSet};
use crate::classify::Class;
use crate::error::DogmatixError;
use crate::exec::{execute, unpruned, Pairs};
use crate::mapping::Mapping;
use crate::od::{extract_raw_tuples, OdSet, RawTuple};
use crate::pipeline::{selections_for_paths, DetectionResult, Dogmatix, RunStats};
use crate::stage::{FilterDecision, PairClassifier, SimContext, SimilarityMeasure};
use crate::store::FrozenInterner;
use dogmatix_xml::{Document, NodeId, Schema};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// One edit against the session's document.
///
/// Elements inside a candidate are addressed by the candidate's
/// **current index** (position in [`DetectionResult::candidates`] /
/// [`IncrementalSession::candidates`]) plus a *relative* XPath and an
/// occurrence number (0-based, document order). Within one
/// [`Dogmatix::detect_delta`] batch, deltas apply in order and indices
/// refer to the candidate set *as mutated so far* — a `RemoveObject`
/// shifts later candidates down immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocumentDelta {
    /// Parse `xml` (one element with arbitrary content) and append it
    /// under the first element matching the absolute `parent_path` —
    /// typically a whole new candidate object arriving on the stream,
    /// e.g. `parent_path: "/discs"`, `xml: "<disc>…</disc>"`. Any
    /// element of the fragment whose schema path is mapped to the
    /// session's type joins the candidate set.
    InsertXml {
        /// Absolute XPath of the parent element (first match is used).
        parent_path: String,
        /// The XML fragment to append.
        xml: String,
    },
    /// Remove the candidate object at `index` (and its whole subtree).
    RemoveObject {
        /// Current candidate index.
        index: usize,
    },
    /// Replace the direct text of the `occurrence`-th element matching
    /// `path` relative to candidate `index` (`"."` addresses the
    /// candidate element itself). An empty `value` clears the text,
    /// turning the element back into "no data" per the paper's
    /// content-model rule.
    UpdateText {
        /// Current candidate index.
        index: usize,
        /// Relative XPath from the candidate element.
        path: String,
        /// 0-based occurrence among the matches, in document order.
        occurrence: usize,
        /// The new text value.
        value: String,
    },
    /// Parse `xml` and append it under the `occurrence`-th element
    /// matching `path` relative to candidate `index` — adding a field
    /// (or a whole nested structure) to an existing object.
    InsertUnder {
        /// Current candidate index.
        index: usize,
        /// Relative XPath from the candidate element (`"."` = the
        /// candidate itself).
        path: String,
        /// 0-based occurrence among the matches, in document order.
        occurrence: usize,
        /// The XML fragment to append.
        xml: String,
    },
    /// Detach the `occurrence`-th element matching `path` relative to
    /// candidate `index` (removing a field). Use
    /// [`DocumentDelta::RemoveObject`] to remove the candidate itself.
    RemoveElement {
        /// Current candidate index.
        index: usize,
        /// Relative XPath from the candidate element.
        path: String,
        /// 0-based occurrence among the matches, in document order.
        occurrence: usize,
    },
}

fn delta_err(message: String) -> DogmatixError {
    DogmatixError::Delta { message }
}

impl DocumentDelta {
    /// Parses the one-line delta grammar shared by the CLI `--deltas`
    /// scripts and the `dogmatixd` `INGEST` command:
    ///
    /// ```text
    /// insert <parent_path> <xml>
    /// remove <index>
    /// update <index> <rel_path> <occurrence> [<value>]
    /// insert-under <index> <rel_path> <occurrence> <xml>
    /// remove-element <index> <rel_path> <occurrence>
    /// ```
    ///
    /// Unparseable lines are a [`DogmatixError::Protocol`] — the server
    /// answers them as structured `ERR` responses. Line terminators are
    /// trimmed uniformly: a trailing `\r\n` or `\n` (e.g. from `nc -C`
    /// or CRLF-emitting shells) is never part of the delta.
    ///
    /// ```
    /// use dogmatix_core::incremental::DocumentDelta;
    /// let d = DocumentDelta::parse("insert /db <m><t>X</t></m>")?;
    /// assert!(matches!(d, DocumentDelta::InsertXml { .. }));
    /// assert_eq!(DocumentDelta::parse("remove 3\r\n")?, DocumentDelta::parse("remove 3")?);
    /// assert!(DocumentDelta::parse("frobnicate 3").is_err());
    /// # Ok::<(), dogmatix_core::DogmatixError>(())
    /// ```
    pub fn parse(line: &str) -> Result<DocumentDelta, DogmatixError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let proto = |message: String| DogmatixError::Protocol { message };
        let mut words = line.splitn(2, char::is_whitespace);
        let cmd = words.next().unwrap_or_default();
        let rest = words.next().unwrap_or("").trim();
        let index = |s: &str| -> Result<usize, DogmatixError> {
            s.parse()
                .map_err(|_| proto(format!("'{s}' is not a candidate index in '{line}'")))
        };
        let occurrence = index;
        match cmd {
            "insert" => {
                let (parent, xml) = rest.split_once(char::is_whitespace).ok_or_else(|| {
                    proto(format!("insert needs '<parent_path> <xml>' in '{line}'"))
                })?;
                Ok(DocumentDelta::InsertXml {
                    parent_path: parent.to_string(),
                    xml: xml.trim().to_string(),
                })
            }
            "remove" => Ok(DocumentDelta::RemoveObject {
                index: index(rest)?,
            }),
            "update" => {
                let parts: Vec<&str> = rest.splitn(3, char::is_whitespace).collect();
                let [idx, path, tail] = parts[..] else {
                    return Err(proto(format!(
                        "update needs '<index> <rel_path> <occurrence> <value>' in '{line}'"
                    )));
                };
                let (occ, value) = tail
                    .trim()
                    .split_once(char::is_whitespace)
                    .map(|(o, v)| (o, v.trim()))
                    .unwrap_or((tail.trim(), ""));
                Ok(DocumentDelta::UpdateText {
                    index: index(idx)?,
                    path: path.to_string(),
                    occurrence: occurrence(occ)?,
                    value: value.to_string(),
                })
            }
            "insert-under" => {
                let parts: Vec<&str> = rest.splitn(4, char::is_whitespace).collect();
                let [idx, path, occ, xml] = parts[..] else {
                    return Err(proto(format!(
                        "insert-under needs '<index> <rel_path> <occurrence> <xml>' in '{line}'"
                    )));
                };
                Ok(DocumentDelta::InsertUnder {
                    index: index(idx)?,
                    path: path.to_string(),
                    occurrence: occurrence(occ)?,
                    xml: xml.trim().to_string(),
                })
            }
            "remove-element" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [idx, path, occ] = parts[..] else {
                    return Err(proto(format!(
                        "remove-element needs '<index> <rel_path> <occurrence>' in '{line}'"
                    )));
                };
                Ok(DocumentDelta::RemoveElement {
                    index: index(idx)?,
                    path: path.to_string(),
                    occurrence: occurrence(occ)?,
                })
            }
            other => Err(proto(format!(
                "unknown delta command '{other}' in '{line}'"
            ))),
        }
    }
}

/// Cumulative counters over the lifetime of an [`IncrementalSession`] —
/// the evidence that delta replay does less work than re-detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestCounters {
    /// Deltas applied.
    pub deltas_applied: usize,
    /// Detection runs completed.
    pub detect_runs: usize,
    /// Candidate descriptions (re-)extracted from the document.
    pub extractions: usize,
    /// Pairs scored with the similarity measure.
    pub pairs_scored: usize,
    /// Pairs replayed from the previous run without re-scoring.
    pub pairs_reused: usize,
}

/// Canonical (sorted) form of the per-path selections, mirroring the
/// batch session's OD-cache key.
type SelectionKey = Vec<(String, Vec<String>)>;

/// A clean session's interned store and the selections it was built
/// under — what a checkpoint embeds for warm-started recovery.
pub(crate) type CleanStore<'a> = (&'a Arc<OdSet>, HashMap<String, BTreeSet<String>>);

/// State carried from the previous detection run.
struct PrevRun {
    selection_key: SelectionKey,
    /// The stages the cached classifications were produced by. Holding
    /// the `Arc`s keeps the allocations alive, so comparing allocation
    /// addresses against the next detector's stages cannot be fooled by
    /// a freed-and-reused allocation.
    measure: Arc<dyn SimilarityMeasure>,
    classifier: Arc<dyn PairClassifier>,
    ods: Arc<OdSet>,
    /// `ods`' interner, frozen, shared with every snapshot published
    /// from this run.
    frozen: Arc<FrozenInterner>,
    /// `(i, j) → (sim, class)` for every pair compared (or replayed) in
    /// the previous run, including non-duplicates.
    pair_classes: HashMap<(u32, u32), (f64, Class)>,
}

impl PrevRun {
    /// Whether the cached verdicts were produced by the same stage
    /// objects the given detector carries.
    fn same_stages(&self, dx: &Dogmatix) -> bool {
        let same = |a: *const (), b: *const ()| a == b;
        same(
            Arc::as_ptr(&self.measure) as *const (),
            Arc::as_ptr(dx.measure_stage()) as *const (),
        ) && same(
            Arc::as_ptr(&self.classifier) as *const (),
            Arc::as_ptr(dx.classifier_stage()) as *const (),
        )
    }
}

/// A mutable detection session: owns the document, applies
/// [`DocumentDelta`]s, and carries candidate / description / pair caches
/// across [`Dogmatix::detect_delta`] calls.
///
/// Like [`DetectionSession`](crate::pipeline::DetectionSession), the
/// session resolves data concerns (candidates, descriptions, type
/// comparability) against the mapping it was opened with; open sessions
/// through [`Dogmatix::incremental_session`] unless several detectors
/// sharing one mapping deliberately feed on the same stream. Detector
/// *stages* may differ between calls — the session notices a changed
/// measure or classifier and drops the replay cache.
pub struct IncrementalSession {
    doc: Document,
    schema: Schema,
    /// Re-infer the schema from the document after deltas (schemaless
    /// corpora); `false` = the schema is fixed (XSD-backed corpora).
    infer_schema: bool,
    schema_stale: bool,
    mapping: Mapping,
    candidates: CandidateSet,
    /// Per-candidate raw description tuples for the current selection.
    extraction: HashMap<NodeId, Arc<Vec<RawTuple>>>,
    /// Candidates whose subtree was touched since the last run.
    dirty: BTreeSet<NodeId>,
    /// Candidate membership changed since the last run (`|Ω|` moved, so
    /// every softIDF weight did too → full re-score).
    structure_changed: bool,
    prev: Option<PrevRun>,
    /// Selection the extraction cache was prefilled under by checkpoint
    /// recovery ([`crate::wal`]); the first detection run drops the
    /// prefill if its own selection differs.
    prefill_key: Option<SelectionKey>,
    counters: IngestCounters,
}

impl IncrementalSession {
    /// Opens a session over an owned document with a fixed `schema`.
    pub fn new(
        doc: Document,
        schema: Schema,
        mapping: &Mapping,
        rw_type: &str,
    ) -> Result<Self, DogmatixError> {
        let candidates = select_candidates(&doc, &schema, mapping, rw_type)?;
        Ok(IncrementalSession {
            doc,
            schema,
            infer_schema: false,
            schema_stale: false,
            mapping: mapping.clone(),
            candidates,
            extraction: HashMap::new(),
            dirty: BTreeSet::new(),
            structure_changed: false,
            prev: None,
            prefill_key: None,
            counters: IngestCounters::default(),
        })
    }

    /// Opens a session that infers its schema from the document and
    /// re-infers it after each delta batch — matching what a batch
    /// rebuild with [`Schema::infer`] over the final state would see.
    pub fn with_inferred_schema(
        doc: Document,
        mapping: &Mapping,
        rw_type: &str,
    ) -> Result<Self, DogmatixError> {
        let schema = Schema::infer(&doc)?;
        let mut session = IncrementalSession::new(doc, schema, mapping, rw_type)?;
        session.infer_schema = true;
        Ok(session)
    }

    /// The session's current document state.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Consumes the session, handing back the final document state.
    pub fn into_doc(self) -> Document {
        self.doc
    }

    /// The session's current schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The mapping `M` the session resolves types against.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The real-world type this session detects duplicates of.
    pub fn rw_type(&self) -> &str {
        &self.candidates.rw_type
    }

    /// The maintained candidate set (`Ω_T` over the current state).
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// Cumulative work counters.
    pub fn counters(&self) -> IngestCounters {
        self.counters
    }

    /// Number of candidates whose descriptions are currently cached.
    pub fn cached_extractions(&self) -> usize {
        self.extraction.len()
    }

    /// Number of candidates marked dirty since the last detection run.
    pub fn pending_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// Publishes an immutable [`ProbeSnapshot`](crate::probe::ProbeSnapshot)
    /// of the session's current detection state — the consistency unit
    /// `dogmatixd` swaps at delta-batch boundaries. Requires a clean
    /// session: a detection run must have happened ([`Dogmatix::detect_delta`])
    /// with the same stages and no deltas applied since, so the cached
    /// extractions, the interned store, and the candidate set all agree.
    pub fn publish_snapshot(
        &self,
        dx: &Dogmatix,
        blocking: crate::probe::ProbeBlocking,
    ) -> Result<crate::probe::ProbeSnapshot, DogmatixError> {
        dx.validate()?;
        if !dx.measure_stage().store_based() {
            return Err(DogmatixError::Config {
                message: format!(
                    "measure {:?} walks the document and cannot score probe records; \
                     use a store-based measure",
                    dx.measure_stage()
                ),
            });
        }
        let prev = self.prev.as_ref().ok_or_else(|| DogmatixError::Snapshot {
            message: "no detection state to publish — run detect_delta first".into(),
        })?;
        if !self.dirty.is_empty() || self.structure_changed || self.schema_stale {
            return Err(DogmatixError::Snapshot {
                message: "pending deltas not yet detected — run detect_delta before publishing"
                    .into(),
            });
        }
        if !prev.same_stages(dx) {
            return Err(DogmatixError::Snapshot {
                message: "detector stages changed since the last run — re-run detect_delta".into(),
            });
        }
        let selections = selections_for_paths(
            &self.schema,
            &self.candidates.schema_paths,
            dx.selector_stage().as_ref(),
        )?;
        let mut selection_key: SelectionKey = selections
            .iter()
            .map(|(path, sel)| (path.clone(), sel.iter().cloned().collect()))
            .collect();
        selection_key.sort();
        if selection_key != prev.selection_key {
            return Err(DogmatixError::Snapshot {
                message: "description selection changed since the last run — re-run detect_delta"
                    .into(),
            });
        }
        debug_assert_eq!(prev.ods.len(), self.candidates.len());
        let probe_node = self
            .doc
            .root_element()
            .or_else(|| self.candidates.nodes.first().copied());
        Ok(crate::probe::ProbeSnapshot::from_parts(
            probe_node,
            self.candidates.nodes.clone(),
            self.candidates.schema_paths.clone(),
            selections,
            self.mapping.clone(),
            Arc::clone(&prev.ods),
            Arc::clone(&prev.frozen),
            Arc::clone(&prev.measure),
            Arc::clone(&prev.classifier),
            blocking,
        ))
    }

    /// Applies one delta to the document and to the maintained candidate
    /// set, marking exactly the touched derived state for rebuild. No
    /// detection runs; [`Dogmatix::detect_delta`] applies its batch
    /// through this and then detects.
    pub fn apply(&mut self, delta: &DocumentDelta) -> Result<(), DogmatixError> {
        match delta {
            DocumentDelta::InsertXml { parent_path, xml } => {
                let parent = *self.doc.select(parent_path)?.first().ok_or_else(|| {
                    delta_err(format!("insert parent '{parent_path}' matches no element"))
                })?;
                let new = self.doc.append_xml(parent, xml)?;
                self.mark_node_and_ancestors(parent);
                self.adopt_subtree(new);
            }
            DocumentDelta::RemoveObject { index } => {
                let node = self.candidate_at(*index)?;
                self.mark_node_and_ancestors(node);
                self.evict_subtree(node);
                self.doc.detach(node);
                self.structure_changed = true;
            }
            DocumentDelta::UpdateText {
                index,
                path,
                occurrence,
                value,
            } => {
                let cand = self.candidate_at(*index)?;
                let target = self.resolve(cand, path, *occurrence)?;
                if !self.doc.is_element(target) {
                    return Err(delta_err(format!("'{path}' does not address an element")));
                }
                self.doc.set_text(target, value);
                self.mark_node_and_ancestors(target);
                // A text change propagates downward too: candidates
                // nested below the target read its value through
                // ancestor selection paths.
                self.mark_descendant_candidates(target);
            }
            DocumentDelta::InsertUnder {
                index,
                path,
                occurrence,
                xml,
            } => {
                let cand = self.candidate_at(*index)?;
                let target = self.resolve(cand, path, *occurrence)?;
                let new = self.doc.append_xml(target, xml)?;
                self.mark_node_and_ancestors(target);
                self.adopt_subtree(new);
            }
            DocumentDelta::RemoveElement {
                index,
                path,
                occurrence,
            } => {
                let cand = self.candidate_at(*index)?;
                let target = self.resolve(cand, path, *occurrence)?;
                if target == cand {
                    return Err(delta_err(
                        "RemoveElement addresses the candidate itself; \
                         use RemoveObject"
                            .to_string(),
                    ));
                }
                self.mark_node_and_ancestors(target);
                self.evict_subtree(target);
                self.doc.detach(target);
            }
        }
        // Any delta may shift an inferred schema (new paths, changed
        // cardinalities, a content model flipping on added/cleared text).
        self.schema_stale = true;
        self.counters.deltas_applied += 1;
        Ok(())
    }

    fn candidate_at(&self, index: usize) -> Result<NodeId, DogmatixError> {
        self.candidates.nodes.get(index).copied().ok_or_else(|| {
            delta_err(format!(
                "candidate index {index} out of range (have {})",
                self.candidates.len()
            ))
        })
    }

    /// Resolves a relative path + occurrence from a candidate element.
    fn resolve(
        &self,
        cand: NodeId,
        path: &str,
        occurrence: usize,
    ) -> Result<NodeId, DogmatixError> {
        if path == "." || path.is_empty() {
            return Ok(cand);
        }
        let matches = self.doc.select_from(cand, path)?;
        matches.get(occurrence).copied().ok_or_else(|| {
            delta_err(format!(
                "'{path}' occurrence {occurrence} not found under candidate \
                 {} ({} matches)",
                self.doc.absolute_path(cand),
                matches.len()
            ))
        })
    }

    /// Marks the node and every enclosing candidate dirty: descriptions
    /// may include the touched value via descendant *or* ancestor
    /// selection paths, and candidates can nest.
    fn mark_node_and_ancestors(&mut self, node: NodeId) {
        if self.candidates.position_of(node).is_some() {
            self.mark_dirty(node);
        }
        let ancestors: Vec<NodeId> = self.doc.ancestors(node).collect();
        for anc in ancestors {
            if self.candidates.position_of(anc).is_some() {
                self.mark_dirty(anc);
            }
        }
    }

    fn mark_dirty(&mut self, cand: NodeId) {
        self.dirty.insert(cand);
        self.extraction.remove(&cand);
    }

    /// Marks candidate elements nested below `node` dirty — their
    /// descriptions may include `node`'s text as an ancestor instance.
    fn mark_descendant_candidates(&mut self, node: NodeId) {
        for el in self.doc.descendant_elements(node) {
            if self.candidates.position_of(el).is_some() {
                self.mark_dirty(el);
            }
        }
    }

    /// Registers any candidate elements inside a freshly grafted subtree.
    fn adopt_subtree(&mut self, root: NodeId) {
        let mut nodes = vec![root];
        nodes.extend(self.doc.descendant_elements(root));
        for el in nodes {
            let path = self.doc.name_path(el);
            if self.candidates.matches_path(&path) {
                self.candidates.insert_node(el);
                self.structure_changed = true;
            }
        }
    }

    /// Drops any candidates inside a subtree about to be detached.
    fn evict_subtree(&mut self, root: NodeId) {
        let mut nodes = vec![root];
        nodes.extend(self.doc.descendant_elements(root));
        for el in nodes {
            if self.candidates.remove_node(el).is_some() {
                self.structure_changed = true;
                self.dirty.remove(&el);
                self.extraction.remove(&el);
            }
        }
    }

    // ---- durability hooks (see `crate::wal`) --------------------------

    /// Whether the session re-infers its schema after deltas (opened via
    /// [`IncrementalSession::with_inferred_schema`]); checkpoints record
    /// this so recovery rebuilds the same kind of session.
    pub(crate) fn infers_schema(&self) -> bool {
        self.infer_schema
    }

    /// The interned store of the last detection run plus the selections
    /// it was built under — available only while the session is *clean*
    /// (a run happened and nothing was applied since), so the store
    /// provably describes the current document. `None` while deltas are
    /// pending: a checkpoint then stores the document alone and recovery
    /// re-extracts.
    pub(crate) fn clean_store(&self) -> Option<CleanStore<'_>> {
        if !self.dirty.is_empty() || self.structure_changed || self.schema_stale {
            return None;
        }
        let prev = self.prev.as_ref()?;
        let selections = prev
            .selection_key
            .iter()
            .map(|(path, sel)| (path.clone(), sel.iter().cloned().collect()))
            .collect();
        Some((&prev.ods, selections))
    }

    /// Exports the session's current term index as a snapshot file at
    /// `path` (the DXTS v2 format WAL checkpoints also embed), installed
    /// atomically (tmp + rename). [`crate::backend::SnapshotBackend`] —
    /// `--index-load`, with `--mem-budget` for a bounded pool — can
    /// later warm-start from it.
    ///
    /// Only a *clean* session can be exported: the store must describe
    /// the current document, so pending deltas (or a session that never
    /// ran a detection) are an error, not a silently stale dump. Returns
    /// the size of the written image in bytes.
    pub fn save_index(&self, path: &std::path::Path) -> Result<u64, DogmatixError> {
        let (ods, selections) = self.clean_store().ok_or_else(|| DogmatixError::Snapshot {
            message: "cannot export the term index: the session has pending deltas \
                          or no completed detection — run a detection first"
                .into(),
        })?;
        crate::backend::paged::save_snapshot(
            ods,
            &selections,
            crate::backend::doc_fingerprint(self.doc()),
            path,
            crate::backend::paged::DEFAULT_PAGE_SIZE,
        )
    }

    /// Prefills the per-candidate extraction cache from a
    /// checkpoint-loaded store so recovery skips re-extracting the whole
    /// corpus. Rows of `ods` must align with the current candidate set
    /// (the caller validates object count and document fingerprint
    /// first); [`OdSet::build_from_raw`] preserves tuple order, so the
    /// next detection re-interns to a bit-identical store. The recorded
    /// selection key guards the prefill: the first detection run drops
    /// it if the live selector chooses differently.
    pub(crate) fn prefill_extraction(
        &mut self,
        ods: &OdSet,
        selections: &HashMap<String, BTreeSet<String>>,
    ) {
        for (i, &node) in self.candidates.nodes.iter().enumerate() {
            let raw: Vec<RawTuple> = ods
                .od(i)
                .tuples()
                .map(|t| RawTuple {
                    value: t.value().to_string(),
                    path: t.path().to_string(),
                    rw_type: t.rw_type().to_string(),
                    norm: ods.term(t.term()).norm().to_string(),
                })
                .collect();
            self.extraction.insert(node, Arc::new(raw));
        }
        let mut key: SelectionKey = selections
            .iter()
            .map(|(path, sel)| (path.clone(), sel.iter().cloned().collect()))
            .collect();
        key.sort();
        self.prefill_key = Some(key);
    }
}

impl std::fmt::Debug for IncrementalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSession")
            .field("rw_type", &self.candidates.rw_type)
            .field("candidates", &self.candidates.len())
            .field("cached_extractions", &self.extraction.len())
            .field("pending_dirty", &self.dirty.len())
            .field("structure_changed", &self.structure_changed)
            .field("counters", &self.counters)
            .finish()
    }
}

/// The incremental detection path behind [`Dogmatix::detect_delta`].
pub(crate) fn detect_incremental(
    dx: &Dogmatix,
    s: &mut IncrementalSession,
    deltas: &[DocumentDelta],
) -> Result<DetectionResult, DogmatixError> {
    dx.validate()?;
    for delta in deltas {
        s.apply(delta)?;
    }
    if s.schema_stale {
        if s.infer_schema {
            s.schema = Schema::infer(&s.doc)?;
        }
        s.schema_stale = false;
    }
    // Parity with the batch candidate query: a mapped path that fell out
    // of the (inferred) schema is an error there too.
    for path in &s.candidates.schema_paths {
        if s.schema.find_by_path(path).is_none() {
            return Err(DogmatixError::PathNotInSchema { path: path.clone() });
        }
    }

    let n = s.candidates.len();

    // Steps 2+3: selections (dependent on the current schema), then ODs
    // from the per-candidate extraction cache.
    let selections = selections_for_paths(
        &s.schema,
        &s.candidates.schema_paths,
        dx.selector_stage().as_ref(),
    )?;
    let mut selection_key: SelectionKey = selections
        .iter()
        .map(|(path, sel)| (path.clone(), sel.iter().cloned().collect()))
        .collect();
    selection_key.sort();
    if let Some(prev) = &s.prev {
        if prev.selection_key != selection_key {
            // A different selection describes candidates differently:
            // extractions and cached verdicts are both stale.
            s.extraction.clear();
            s.prev = None;
        } else if !prev.same_stages(dx) {
            // Same descriptions, different measure/classifier: cached
            // verdicts are stale but extractions survive.
            s.prev = None;
        }
    }
    if let Some(key) = s.prefill_key.take() {
        // A checkpoint-recovered extraction cache is only valid under
        // the selection it was built with; drop it if the live selector
        // chooses differently.
        if key != selection_key {
            s.extraction.clear();
        }
    }

    let mut parts: Vec<Arc<Vec<RawTuple>>> = Vec::with_capacity(n);
    for &node in &s.candidates.nodes {
        if !s.extraction.contains_key(&node) {
            let cand_path = s.doc.name_path(node);
            let raw = extract_raw_tuples(&s.doc, node, selections.get(&cand_path), &s.mapping);
            s.extraction.insert(node, Arc::new(raw));
            s.counters.extractions += 1;
        }
        parts.push(Arc::clone(&s.extraction[&node]));
    }
    let (ods, frozen) = OdSet::build_frozen(
        s.candidates
            .nodes
            .iter()
            .copied()
            .zip(parts.iter().map(|p| p.as_slice())),
    );
    let ods = Arc::new(ods);
    // The delta-maintained extraction cache must re-intern to exactly
    // the structure a batch build would produce; audit it before the
    // filter and comparison stages index into it.
    crate::store::audit::audit_gate(&ods, "incremental OD re-interning");

    // Step 4 is global: always re-run it so pruning and pair plans
    // track the new state. The object filter costs about one sim
    // evaluation per object, but a blocking filter rebuilds its whole
    // pair plan on every delta — the dominant per-delta cost until
    // inserts and removes go incremental (ROADMAP item 2).
    let FilterDecision {
        f_values,
        pruned,
        pairs,
    } = dx.filter_stage().reduce(&ods);
    let pruned_by_filter = pruned.iter().filter(|p| **p).count();
    let (active, plan) = unpruned(&pruned, pairs);
    let effective = plan.as_deref().map_or(Pairs::All(&active), Pairs::Plan);

    // Step 5: replay verdicts for pairs that provably cannot have
    // changed, score the rest.
    let affected = match (&s.prev, s.structure_changed) {
        (Some(prev), false) => affected_candidates(n, s, prev, &ods),
        _ => vec![true; n],
    };
    let mut reused: Vec<(usize, usize, f64, Class)> = Vec::new();
    let mut to_score: Vec<(usize, usize)> = Vec::new();
    effective.for_each(|i, j| {
        let cached = (!affected[i] && !affected[j])
            .then_some(s.prev.as_ref())
            .flatten()
            .and_then(|p| p.pair_classes.get(&(i as u32, j as u32)));
        match cached {
            Some(&(sim, class)) => reused.push((i, j, sim, class)),
            None => to_score.push((i, j)),
        }
    });

    let prepared = dx.measure_stage().prepare(SimContext {
        doc: &s.doc,
        candidates: &s.candidates.nodes,
        ods: &ods,
    });
    // Every verdict is kept, non-duplicates included, so it can be
    // replayed after the next delta.
    let mut scored = Vec::with_capacity(to_score.len());
    execute(
        &ods,
        Pairs::Plan(&to_score),
        dx.threads(),
        prepared.as_ref(),
        dx.classifier_stage().as_ref(),
        &mut scored,
        |i, j, sim, class| Some((i, j, sim, class)),
    );
    drop(prepared);
    scored.sort_by_key(|&(i, j, _, _)| (i, j));
    s.counters.pairs_scored += scored.len();
    s.counters.pairs_reused += reused.len();

    let mut pair_classes: HashMap<(u32, u32), (f64, Class)> =
        HashMap::with_capacity(reused.len() + scored.len());
    let mut duplicate_pairs: Vec<(usize, usize, f64)> = Vec::new();
    let mut possible_pairs: Vec<(usize, usize, f64)> = Vec::new();
    for &(i, j, sim, class) in reused.iter().chain(scored.iter()) {
        pair_classes.insert((i as u32, j as u32), (sim, class));
        match class {
            Class::Duplicate => duplicate_pairs.push((i, j, sim)),
            Class::Possible => possible_pairs.push((i, j, sim)),
            Class::NonDuplicate => {}
        }
    }
    duplicate_pairs.sort_by_key(|p| (p.0, p.1));
    possible_pairs.sort_by_key(|p| (p.0, p.1));

    // Step 6: clusters over the full (replayed + rescored) pair set.
    let pairs_only: Vec<(usize, usize)> =
        duplicate_pairs.iter().map(|(i, j, _)| (*i, *j)).collect();
    let clusters = dx.clusterer_stage().cluster(n, &pairs_only);

    let result = DetectionResult {
        candidates: s.candidates.nodes.clone(),
        ods: Arc::clone(&ods),
        f_values,
        pruned,
        duplicate_pairs,
        possible_pairs,
        clusters,
        stats: RunStats {
            candidates: n,
            pruned_by_filter,
            pairs_total: n * n.saturating_sub(1) / 2,
            pairs_compared: to_score.len(),
        },
    };
    s.prev = Some(PrevRun {
        selection_key,
        measure: Arc::clone(dx.measure_stage()),
        classifier: Arc::clone(dx.classifier_stage()),
        ods,
        frozen: Arc::new(frozen),
        pair_classes,
    });
    s.dirty.clear();
    s.structure_changed = false;
    s.counters.detect_runs += 1;
    Ok(result)
}

/// Which candidates may compare differently than in the previous run?
///
/// Valid only when candidate membership is unchanged (indices line up
/// between the previous and current OD sets): a candidate is affected if
/// it was edited, or if any term it contains gained/lost occurrences —
/// including terms it *used to* contain — since posting lists feed the
/// softIDF weights.
fn affected_candidates(n: usize, s: &IncrementalSession, prev: &PrevRun, ods: &OdSet) -> Vec<bool> {
    let mut affected = vec![false; n];
    for (i, node) in s.candidates.nodes.iter().enumerate() {
        if s.dirty.contains(node) {
            affected[i] = true;
        }
    }
    let mark = |postings: &[u32], affected: &mut Vec<bool>| {
        for &p in postings {
            if let Some(slot) = affected.get_mut(p as usize) {
                *slot = true;
            }
        }
    };
    let prev_terms: HashMap<(&str, &str), &[u32]> = prev
        .ods
        .terms()
        .map(|t| ((t.rw_type(), t.norm()), t.postings()))
        .collect();
    let mut new_keys: HashSet<(&str, &str)> = HashSet::with_capacity(ods.term_count());
    for t in ods.terms() {
        let key = (t.rw_type(), t.norm());
        new_keys.insert(key);
        match prev_terms.get(&key) {
            Some(old) if *old == t.postings() => {}
            Some(old) => {
                mark(old, &mut affected);
                mark(t.postings(), &mut affected);
            }
            None => mark(t.postings(), &mut affected),
        }
    }
    for t in prev.ods.terms() {
        if !new_keys.contains(&(t.rw_type(), t.norm())) {
            mark(t.postings(), &mut affected);
        }
    }
    affected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DetectionSession, Dogmatix};
    use dogmatix_xml::Document;

    fn movie_xml() -> &'static str {
        "<moviedoc>\
           <movie><title>The Matrix</title><year>1999</year>\
             <actor><name>Keanu Reeves</name><role>Neo</role></actor>\
             <actor><name>L. Fishburne</name><role>Morpheus</role></actor></movie>\
           <movie><title>The Matrrix</title><year>1999</year>\
             <actor><name>Keanu Reeves</name><role>The One</role></actor></movie>\
           <movie><title>Signs</title><year>2002</year>\
             <actor><name>Mel Gibson</name><role>Graham Hess</role></actor></movie>\
           <movie><title>Distant Echo</title><year>1988</year>\
             <actor><name>Nobody Atall</name><role>Lead</role></actor></movie>\
         </moviedoc>"
    }

    fn movie_detector() -> Dogmatix {
        Dogmatix::builder()
            .add_type("MOVIE", ["/moviedoc/movie"])
            .build()
    }

    /// Batch detection over the session's current document state.
    fn batch(dx: &Dogmatix, s: &IncrementalSession) -> DetectionResult {
        let doc = s.doc().clone();
        let schema = if s.infer_schema {
            Schema::infer(&doc).expect("non-empty")
        } else {
            s.schema().clone()
        };
        let session = DetectionSession::new(&doc, &schema, s.mapping(), s.rw_type())
            .expect("batch session opens");
        dx.detect(&session).expect("batch detect runs")
    }

    /// Everything except `stats` (the incremental path deliberately
    /// reports fewer compared pairs).
    fn assert_same_outcome(a: &DetectionResult, b: &DetectionResult) {
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.ods, b.ods);
        assert_eq!(a.f_values, b.f_values);
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(a.duplicate_pairs, b.duplicate_pairs);
        assert_eq!(a.possible_pairs, b.possible_pairs);
        assert_eq!(a.clusters, b.clusters);
    }

    #[test]
    fn initial_run_matches_batch() {
        let dx = movie_detector();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        let inc = dx.detect_delta(&mut s, &[]).unwrap();
        assert_same_outcome(&inc, &batch(&dx, &s));
        assert_eq!(inc.clusters, vec![vec![0, 1]]);
    }

    #[test]
    fn update_text_replays_untouched_pairs() {
        let dx = Dogmatix::builder()
            .add_type("MOVIE", ["/moviedoc/movie"])
            .no_filter()
            .build();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx.detect_delta(&mut s, &[]).unwrap();
        // Touch a value unique to candidate 3: only its 3 pairs rescore.
        let inc = dx
            .detect_delta(
                &mut s,
                &[DocumentDelta::UpdateText {
                    index: 3,
                    path: "title".into(),
                    occurrence: 0,
                    value: "Distant Echoes".into(),
                }],
            )
            .unwrap();
        assert_same_outcome(&inc, &batch(&dx, &s));
        assert_eq!(inc.stats.pairs_compared, 3, "only pairs touching 3");
        assert_eq!(s.counters().pairs_reused, 3);
    }

    #[test]
    fn no_op_batch_rescores_nothing() {
        let dx = movie_detector();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx.detect_delta(&mut s, &[]).unwrap();
        let again = dx.detect_delta(&mut s, &[]).unwrap();
        assert_eq!(again.stats.pairs_compared, 0, "pure replay");
        assert_same_outcome(&again, &batch(&dx, &s));
    }

    #[test]
    fn insert_remove_objects_match_batch() {
        let dx = movie_detector();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx.detect_delta(&mut s, &[]).unwrap();
        // A new duplicate of Signs arrives.
        let inc = dx
            .detect_delta(
                &mut s,
                &[DocumentDelta::InsertXml {
                    parent_path: "/moviedoc".into(),
                    xml: "<movie><title>Signs</title><year>2002</year>\
                          <actor><name>Mel Gibson</name></actor></movie>"
                        .into(),
                }],
            )
            .unwrap();
        assert_eq!(inc.stats.candidates, 5);
        assert_same_outcome(&inc, &batch(&dx, &s));
        assert!(inc
            .clusters
            .iter()
            .any(|c| c.contains(&2) && c.contains(&4)));
        // Removing the original Signs dissolves that cluster again.
        let inc = dx
            .detect_delta(&mut s, &[DocumentDelta::RemoveObject { index: 2 }])
            .unwrap();
        assert_eq!(inc.stats.candidates, 4);
        assert_same_outcome(&inc, &batch(&dx, &s));
    }

    #[test]
    fn field_insert_and_remove_match_batch() {
        let dx = movie_detector();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx.detect_delta(&mut s, &[]).unwrap();
        let inc = dx
            .detect_delta(
                &mut s,
                &[
                    DocumentDelta::InsertUnder {
                        index: 2,
                        path: ".".into(),
                        occurrence: 0,
                        xml: "<actor><name>Joaquin Phoenix</name></actor>".into(),
                    },
                    DocumentDelta::RemoveElement {
                        index: 0,
                        path: "actor".into(),
                        occurrence: 1,
                    },
                ],
            )
            .unwrap();
        assert_same_outcome(&inc, &batch(&dx, &s));
        assert_eq!(
            s.doc().select("/moviedoc/movie/actor").unwrap().len(),
            5 + 1 - 1
        );
    }

    #[test]
    fn blocking_filter_pair_plans_compose_with_replay() {
        use crate::neighborhood::TopKBlocking;
        let dx = Dogmatix::builder()
            .add_type("MOVIE", ["/moviedoc/movie"])
            .filter(TopKBlocking::new(2))
            .build();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx.detect_delta(&mut s, &[]).unwrap();
        let inc = dx
            .detect_delta(
                &mut s,
                &[DocumentDelta::UpdateText {
                    index: 3,
                    path: "year".into(),
                    occurrence: 0,
                    value: "1989".into(),
                }],
            )
            .unwrap();
        assert_same_outcome(&inc, &batch(&dx, &s));
    }

    #[test]
    fn changed_stages_invalidate_the_replay_cache() {
        let doc = Document::parse(movie_xml()).unwrap();
        let dx1 = movie_detector();
        let mut s = dx1.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx1.detect_delta(&mut s, &[]).unwrap();
        // A different θ_cand must not replay the old verdicts.
        let dx2 = Dogmatix::builder()
            .add_type("MOVIE", ["/moviedoc/movie"])
            .theta_cand(0.99)
            .build();
        let inc = dx2.detect_delta(&mut s, &[]).unwrap();
        assert_same_outcome(&inc, &batch(&dx2, &s));
        assert!(inc.stats.pairs_compared > 0, "cache was dropped");
    }

    #[test]
    fn nested_candidates_see_ancestor_text_updates() {
        use crate::stage::ManualSelection;
        // Candidates nest (/db/item and /db/item/sub/item are both
        // mapped); the inner candidates describe themselves partly via
        // the *ancestor* outer item's direct text. Editing that text
        // must invalidate the nested candidates' cached extractions too.
        let doc = Document::parse(
            "<db>\
               <item>alpha block<sub><item><t>one</t></item></sub></item>\
               <item>alpha block<sub><item><t>one</t></item></sub></item>\
               <item>other stuff<sub><item><t>three</t></item></sub></item>\
             </db>",
        )
        .unwrap();
        let dx = Dogmatix::builder()
            .add_type("ITEM", ["/db/item", "/db/item/sub/item"])
            .selector(
                ManualSelection::new()
                    .with("/db/item", ["/db/item/sub/item/t"])
                    .with("/db/item/sub/item", ["/db/item", "/db/item/sub/item/t"]),
            )
            .no_filter()
            .build();
        let mut s = dx.incremental_session_inferred(doc, "ITEM").unwrap();
        let initial = dx.detect_delta(&mut s, &[]).unwrap();
        assert_same_outcome(&initial, &batch(&dx, &s));
        // Candidate 0 is the first outer item; "." addresses its own
        // direct text, which inner candidates read as ancestor data.
        let inc = dx
            .detect_delta(
                &mut s,
                &[DocumentDelta::UpdateText {
                    index: 0,
                    path: ".".into(),
                    occurrence: 0,
                    value: "changed block".into(),
                }],
            )
            .unwrap();
        assert_same_outcome(&inc, &batch(&dx, &s));
        // The nested candidate's OD really carries the new ancestor text.
        assert!(inc
            .ods
            .iter()
            .any(|od| od.tuples().any(|t| t.value() == "changed block")));
    }

    #[test]
    fn dropped_detector_cannot_spoof_the_replay_cache() {
        // The session pins the previous run's stage Arcs, so a new
        // detector reusing a freed allocation (same address, different
        // thresholds) can never be mistaken for the old one.
        let make = |theta_cand: f64| {
            Dogmatix::builder()
                .add_type("MOVIE", ["/moviedoc/movie"])
                .theta_cand(theta_cand)
                .build()
        };
        let doc = Document::parse(movie_xml()).unwrap();
        let dx1 = make(0.55);
        let mut s = dx1.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx1.detect_delta(&mut s, &[]).unwrap();
        drop(dx1);
        let dx2 = make(0.99);
        let inc = dx2.detect_delta(&mut s, &[]).unwrap();
        assert_same_outcome(&inc, &batch(&dx2, &s));
        assert!(inc.stats.pairs_compared > 0, "stale verdicts replayed");
    }

    #[test]
    fn bad_deltas_error_cleanly() {
        let dx = movie_detector();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        for (delta, needle) in [
            (DocumentDelta::RemoveObject { index: 99 }, "out of range"),
            (
                DocumentDelta::UpdateText {
                    index: 0,
                    path: "nosuch".into(),
                    occurrence: 0,
                    value: "x".into(),
                },
                "not found",
            ),
            (
                DocumentDelta::InsertXml {
                    parent_path: "/nowhere".into(),
                    xml: "<movie/>".into(),
                },
                "matches no element",
            ),
            (
                DocumentDelta::RemoveElement {
                    index: 0,
                    path: ".".into(),
                    occurrence: 0,
                },
                "RemoveObject",
            ),
        ] {
            let err = dx.detect_delta(&mut s, &[delta]).unwrap_err();
            assert!(
                matches!(err, DogmatixError::Delta { .. }),
                "unexpected error kind: {err}"
            );
            assert!(err.to_string().contains(needle), "{err}");
        }
        // Malformed XML surfaces as an Xml error.
        let err = dx
            .detect_delta(
                &mut s,
                &[DocumentDelta::InsertXml {
                    parent_path: "/moviedoc".into(),
                    xml: "<broken".into(),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, DogmatixError::Xml(_)));
        // The session is still usable and consistent with batch.
        let inc = dx.detect_delta(&mut s, &[]).unwrap();
        assert_same_outcome(&inc, &batch(&dx, &s));
    }

    #[test]
    fn clearing_text_removes_the_tuple() {
        let dx = movie_detector();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx.detect_delta(&mut s, &[]).unwrap();
        let inc = dx
            .detect_delta(
                &mut s,
                &[DocumentDelta::UpdateText {
                    index: 1,
                    path: "year".into(),
                    occurrence: 0,
                    value: String::new(),
                }],
            )
            .unwrap();
        assert_same_outcome(&inc, &batch(&dx, &s));
        assert!(inc
            .ods
            .od(1)
            .tuples()
            .all(|t| t.path() != "/moviedoc/movie/year"));
    }

    #[test]
    fn delta_lines_parse_and_reject() {
        assert!(matches!(
            DocumentDelta::parse("insert /moviedoc <movie><title>X</title></movie>").unwrap(),
            DocumentDelta::InsertXml { .. }
        ));
        assert_eq!(
            DocumentDelta::parse("remove 2").unwrap(),
            DocumentDelta::RemoveObject { index: 2 }
        );
        assert!(matches!(
            DocumentDelta::parse("update 1 title 0 The Matrix").unwrap(),
            DocumentDelta::UpdateText { index: 1, .. }
        ));
        assert!(matches!(
            DocumentDelta::parse("insert-under 0 . 0 <tag>x</tag>").unwrap(),
            DocumentDelta::InsertUnder { .. }
        ));
        assert!(matches!(
            DocumentDelta::parse("remove-element 0 actor 1").unwrap(),
            DocumentDelta::RemoveElement { occurrence: 1, .. }
        ));
        for bad in ["frobnicate 3", "remove x", "update 1 title", "insert solo"] {
            let err = DocumentDelta::parse(bad).unwrap_err();
            assert!(
                matches!(err, DogmatixError::Protocol { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn published_snapshot_probes_match_batch_over_live_state() {
        use crate::probe::{ProbeBlocking, ProbeScratch};

        let dx = movie_detector();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        dx.detect_delta(&mut s, &[]).unwrap();

        // Ingest a new movie, detect, publish, probe for its typo twin.
        dx.detect_delta(
            &mut s,
            &[DocumentDelta::parse(
                "insert /moviedoc <movie><title>Signs</title><year>2002</year>\
                 <actor><name>Mel Gibson</name><role>Graham Hess</role></actor></movie>",
            )
            .unwrap()],
        )
        .unwrap();
        let snapshot = s.publish_snapshot(&dx, ProbeBlocking::default()).unwrap();
        assert_eq!(snapshot.len(), 5);

        let probe_xml = "<movie><title>Signs</title><year>2002</year>\
                         <actor><name>Mel Gibson</name><role>Graham Hess</role></actor></movie>";
        let record = snapshot.record_from_xml(probe_xml).unwrap();
        let mut scratch = ProbeScratch::new();
        let answer = snapshot.probe(&record, 10, &mut scratch).unwrap();

        // Ground truth: batch over the live doc + the probe record.
        let mut ext = s.doc().clone();
        let root = ext.root_element().unwrap();
        ext.append_xml(root, probe_xml).unwrap();
        let schema = Schema::infer(&ext).unwrap();
        let batch = dx.run(&ext, &schema, "MOVIE").unwrap();
        let n = 5usize;
        let mut want: Vec<(usize, f64)> = batch
            .duplicate_pairs
            .iter()
            .filter(|&&(_, j, _)| j == n)
            .map(|&(i, _, sim)| (i, sim))
            .collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let got: Vec<(usize, f64)> = answer.matches.iter().map(|m| (m.index, m.sim)).collect();
        assert_eq!(got, want);
        assert!(
            got.iter().any(|&(i, _)| i == 2 || i == 4),
            "the Signs twins"
        );
    }

    #[test]
    fn publishing_requires_a_clean_detected_session() {
        use crate::probe::ProbeBlocking;

        let dx = movie_detector();
        let doc = Document::parse(movie_xml()).unwrap();
        let mut s = dx.incremental_session_inferred(doc, "MOVIE").unwrap();
        // No run yet.
        let err = s
            .publish_snapshot(&dx, ProbeBlocking::default())
            .unwrap_err();
        assert!(matches!(err, DogmatixError::Snapshot { .. }), "{err}");

        dx.detect_delta(&mut s, &[]).unwrap();
        s.apply(&DocumentDelta::parse("update 0 title 0 Something").unwrap())
            .unwrap();
        // Applied but undetected delta.
        let err = s
            .publish_snapshot(&dx, ProbeBlocking::default())
            .unwrap_err();
        assert!(matches!(err, DogmatixError::Snapshot { .. }), "{err}");

        dx.detect_delta(&mut s, &[]).unwrap();
        assert!(s.publish_snapshot(&dx, ProbeBlocking::default()).is_ok());

        // A different detector (fresh stage Arcs) must not publish
        // against this session's cached verdicts.
        let other = movie_detector();
        let err = s
            .publish_snapshot(&other, ProbeBlocking::default())
            .unwrap_err();
        assert!(matches!(err, DogmatixError::Snapshot { .. }), "{err}");
    }
}
