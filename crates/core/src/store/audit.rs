//! Live-store invariant auditing: one shared implementation of every
//! structural and semantic invariant a [`TermStore`] + [`OdSet`] pair
//! must uphold.
//!
//! The snapshot loader ([`crate::backend`]) has always validated span
//! bounds, CSR monotonicity, and id ranges before trusting a file — but
//! those checks ran only at load time, against raw columns, and nothing
//! ever re-checked a *live* store built in memory. This module factors
//! the loader's validation into a reusable [`StoreAuditor`] and extends
//! it with the invariants a loader cannot see in isolation:
//!
//! * **interner bucket consistency** — no two interned terms share a
//!   `(type, normalised value)` key ([`AuditKind::DuplicateTerm`]);
//! * **IDF ↔ postings agreement** — every stored IDF weight equals
//!   `idf(|Ω|, |postings|)` bit for bit ([`AuditKind::IdfMismatch`]);
//! * **group/tuple CSR cross-consistency** — every OD-local tuple index
//!   is covered by exactly one group, groups are sorted by type, and a
//!   group's type matches its member terms
//!   ([`AuditKind::GroupOffsetsBroken`], [`AuditKind::GroupTypeMismatch`]);
//! * **candidate ↔ OD ↔ posting bijection** — the CSR posting lists are
//!   exactly the lists recomputed from the tuple columns
//!   ([`AuditKind::PostingMismatch`]).
//!
//! The auditor is wired in at stage boundaries of the batch pipeline,
//! the incremental path, probe serving, and the comparison executor under
//! `cfg(any(debug_assertions, feature = "audit"))` — every debug-mode
//! differential test run also audits structure, and
//! `cargo test --features audit` forces the audits into release builds.
//! Release builds without the feature compile the gate to nothing.
//!
//! Violations are **root-caused**: checks run in dependency order
//! (column alignment → span bounds → CSR shape → id ranges → ordering →
//! semantics → cross-consistency) and the auditor stops at the first
//! category that fails, so a single seeded corruption reports the
//! invariant it actually broke rather than a cascade of knock-on
//! failures. The auditor itself uses only checked access and never
//! panics on malformed data (`tests/audit.rs` seeds every corruption
//! class and asserts exactly one kind fires).

use super::{Span, TermStore};
use crate::od::OdSet;
use std::fmt;

/// The invariant classes the auditor can report — machine-readable so
/// the mutation suite can assert *which* invariant a corruption broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// Parallel term/tuple/stats columns disagree on their length.
    ColumnsMisaligned,
    /// Candidate nodes, OD count, and `|Ω|` disagree.
    NodeCountMismatch,
    /// A span dangles past the arena or off a UTF-8 boundary.
    SpanOutOfBounds,
    /// A CSR offset table has the wrong shape (entry count or end).
    CsrShape,
    /// A CSR offset table is not monotone.
    CsrNotMonotone,
    /// A term or group carries a type id outside the type table.
    TypeIdOutOfRange,
    /// A posting references an object index `≥ |Ω|` (stale od id).
    PostingOutOfRange,
    /// A tuple references a term id outside the term table.
    TupleTermOutOfRange,
    /// A tuple references a path id outside the path table.
    TuplePathOutOfRange,
    /// A posting list is not strictly ascending (sorted + deduped).
    PostingUnsorted,
    /// Two interned terms share a `(type, norm)` key — the interner's
    /// hash buckets can no longer resolve them consistently.
    DuplicateTerm,
    /// A stored IDF weight disagrees with `idf(|Ω|, |postings|)`.
    IdfMismatch,
    /// A stored character length disagrees with the normalised value.
    CharLenMismatch,
    /// Per-type statistics disagree with a recount of the columns.
    StatsMismatch,
    /// An OD's groups do not cover its tuples exactly once, or a group
    /// member index is out of the OD's range.
    GroupOffsetsBroken,
    /// Group types are unsorted within an OD, or a group's type
    /// disagrees with the type of a member tuple's term.
    GroupTypeMismatch,
    /// A posting list disagrees with the list recomputed from the tuple
    /// columns (the candidate↔od bijection is broken).
    PostingMismatch,
}

/// One violated invariant: the machine-readable class plus a located,
/// human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Which invariant class failed.
    pub kind: AuditKind,
    /// Where and how, e.g. `"term norm span 12..999 out of bounds"`.
    pub message: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

fn violation(kind: AuditKind, message: String) -> AuditViolation {
    AuditViolation { kind, message }
}

/// The outcome of one audit pass: every violation found before the
/// first failing category stopped the pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every violation found, in check order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// The distinct violated invariant classes, in first-seen order —
    /// what the mutation suite asserts against.
    pub fn kinds(&self) -> Vec<AuditKind> {
        let mut kinds = Vec::new();
        for v in &self.violations {
            if !kinds.contains(&v.kind) {
                kinds.push(v.kind);
            }
        }
        kinds
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return f.write_str("store audit: clean");
        }
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "audit[{:?}]: {}", v.kind, v.message)?;
        }
        Ok(())
    }
}

/// Audits live [`TermStore`] + [`OdSet`] structure.
///
/// The same column-level checks back the snapshot loader (which runs
/// them before trusting a file) and the stage-boundary gates (which run
/// them against freshly built or mutated in-memory state).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreAuditor;

impl StoreAuditor {
    /// Audits a store on its own (no tuple/group cross-checks).
    pub fn audit_store(store: &TermStore) -> AuditReport {
        let mut out = Vec::new();
        check_store(store, &mut out);
        AuditReport { violations: out }
    }

    /// Audits a full OD set: the store plus the tuple and group columns
    /// and every store↔set cross-invariant.
    ///
    /// An empty `nodes` list is accepted (a freshly loaded snapshot has
    /// no candidates attached yet); a non-empty one must align with the
    /// OD count.
    pub fn audit(ods: &OdSet) -> AuditReport {
        let mut out = Vec::new();
        check_odset(ods, &mut out);
        AuditReport { violations: out }
    }
}

// ---- shared column-level checks (also used by the snapshot loader) ----

/// Every span must lie on UTF-8 boundaries inside the arena.
pub(crate) fn check_spans(arena: &str, spans: &[Span], what: &str, out: &mut Vec<AuditViolation>) {
    for s in spans {
        let (start, end) = (s.start_raw() as usize, s.end());
        if end > arena.len() || !arena.is_char_boundary(start) || !arena.is_char_boundary(end) {
            out.push(violation(
                AuditKind::SpanOutOfBounds,
                format!("{what} span {start}..{end} out of bounds"),
            ));
            return;
        }
    }
}

/// A CSR offset table must hold `rows + 1` monotone entries starting at
/// zero and ending exactly at `data_len`.
pub(crate) fn check_csr(
    starts: &[u32],
    rows: usize,
    data_len: usize,
    what: &str,
    out: &mut Vec<AuditViolation>,
) {
    if starts.len() != rows + 1 {
        out.push(violation(
            AuditKind::CsrShape,
            format!(
                "{what}: offset table holds {} entries, expected {}",
                starts.len(),
                rows + 1
            ),
        ));
        return;
    }
    if starts.first() != Some(&0) || starts.windows(2).any(|w| w[0] > w[1]) {
        out.push(violation(
            AuditKind::CsrNotMonotone,
            format!("{what}: offsets are not monotone"),
        ));
        return;
    }
    if starts.last().map(|&e| e as usize) != Some(data_len) {
        out.push(violation(
            AuditKind::CsrShape,
            format!(
                "{what}: offsets end at {} but the data holds {data_len} entries",
                starts.last().copied().unwrap_or(0)
            ),
        ));
    }
}

/// Every id must be below `bound`.
pub(crate) fn check_ids(
    ids: &[u32],
    bound: usize,
    what: &str,
    kind: AuditKind,
    out: &mut Vec<AuditViolation>,
) {
    if let Some(bad) = ids.iter().find(|&&v| (v as usize) >= bound) {
        out.push(violation(
            kind,
            format!("{what}: id {bad} out of range (< {bound})"),
        ));
    }
}

/// CSR row `t` of `data` under `starts`, or `None` if the offsets are
/// unusable (the CSR category must have been checked first).
fn csr_row<'a>(starts: &[u32], data: &'a [u32], t: usize) -> Option<&'a [u32]> {
    let lo = *starts.get(t)? as usize;
    let hi = *starts.get(t + 1)? as usize;
    data.get(lo..hi)
}

// ---- store-level categories ------------------------------------------

/// Store checks in dependency order; stops at the first dirty category.
/// Returns `true` when the store is clean (cross-checks may proceed).
fn check_store(store: &TermStore, out: &mut Vec<AuditViolation>) -> bool {
    let terms = store.term_norm.len();

    // Category 1: parallel columns must agree on their lengths.
    if store.term_type.len() != terms
        || store.term_char_len.len() != terms
        || store.term_idf.len() != terms
    {
        out.push(violation(
            AuditKind::ColumnsMisaligned,
            "term columns disagree on the term count".to_string(),
        ));
    }
    if store.type_stats.len() != store.type_names.len() {
        out.push(violation(
            AuditKind::ColumnsMisaligned,
            "per-type stats disagree with the type table".to_string(),
        ));
    }
    if !out.is_empty() {
        return false;
    }

    // Category 2: spans must land inside the arena on char boundaries.
    check_spans(&store.arena, &store.term_norm, "term norm", out);
    check_spans(&store.arena, &store.type_names, "type name", out);
    check_spans(&store.arena, &store.path_names, "path name", out);
    if !out.is_empty() {
        return false;
    }

    // Category 3: the posting CSR must be well-shaped.
    check_csr(
        &store.posting_starts,
        terms,
        store.postings.len(),
        "postings",
        out,
    );
    if !out.is_empty() {
        return false;
    }

    // Category 4: ids must be in range.
    check_ids(
        &store.term_type,
        store.type_names.len(),
        "term type",
        AuditKind::TypeIdOutOfRange,
        out,
    );
    check_ids(
        &store.postings,
        store.object_count as usize,
        "posting",
        AuditKind::PostingOutOfRange,
        out,
    );
    if !out.is_empty() {
        return false;
    }

    // Category 5: posting lists are sorted + deduped (the merge joins
    // and `merged_count` rely on strict ascent).
    for t in 0..terms {
        if let Some(list) = csr_row(&store.posting_starts, &store.postings, t) {
            if list.windows(2).any(|w| w[0] >= w[1]) {
                out.push(violation(
                    AuditKind::PostingUnsorted,
                    format!("postings of term {t} are not strictly ascending"),
                ));
            }
        }
    }
    if !out.is_empty() {
        return false;
    }

    // Category 6: interner consistency and derived per-term columns.
    check_term_semantics(store, out);
    out.is_empty()
}

/// Duplicate-key, IDF, and char-length agreement (category 6). Requires
/// spans, CSR, and id ranges to be valid already.
fn check_term_semantics(store: &TermStore, out: &mut Vec<AuditViolation>) {
    let terms = store.term_norm.len();
    let mut seen: std::collections::HashMap<(u32, &str), usize> =
        std::collections::HashMap::with_capacity(terms);
    for t in 0..terms {
        let norm = store.term_norm[t].resolve(&store.arena);
        let type_id = store.term_type[t];
        if let Some(&first) = seen.get(&(type_id, norm)) {
            out.push(violation(
                AuditKind::DuplicateTerm,
                format!("terms {first} and {t} both intern ({type_id}, {norm:?})"),
            ));
        } else {
            seen.insert((type_id, norm), t);
        }
        let expected_idf =
            dogmatix_textsim::idf(store.object_count as usize, store.posting_len(t).max(1));
        if store.term_idf[t].to_bits() != expected_idf.to_bits() {
            out.push(violation(
                AuditKind::IdfMismatch,
                format!(
                    "term {t}: stored idf {} but postings imply {expected_idf}",
                    store.term_idf[t]
                ),
            ));
        }
        if store.term_char_len[t] as usize != norm.chars().count() {
            out.push(violation(
                AuditKind::CharLenMismatch,
                format!(
                    "term {t}: stored char length {} but {norm:?} has {}",
                    store.term_char_len[t],
                    norm.chars().count()
                ),
            ));
        }
    }
}

// ---- full OD-set audit ------------------------------------------------

/// Full audit in dependency order; stops at the first dirty category.
fn check_odset(ods: &OdSet, out: &mut Vec<AuditViolation>) {
    let (
        store,
        od_starts,
        tuple_term,
        tuple_value,
        tuple_path,
        od_group_starts,
        group_types,
        group_starts,
        group_tuples,
    ) = ods.columns();
    if !check_store(store, out) {
        return;
    }
    let terms = store.term_count();
    let n = store.object_count();
    let tuples = tuple_term.len();

    // Category 1b: tuple columns and the candidate↔od alignment.
    if tuple_value.len() != tuples || tuple_path.len() != tuples {
        out.push(violation(
            AuditKind::ColumnsMisaligned,
            "tuple columns disagree on the tuple count".to_string(),
        ));
    }
    let od_count = od_starts.len().saturating_sub(1);
    if od_count != n {
        out.push(violation(
            AuditKind::NodeCountMismatch,
            format!("store counts {n} objects but the set holds {od_count} ODs"),
        ));
    }
    // A freshly loaded snapshot carries no nodes yet; once attached they
    // must be one per OD.
    if !ods.nodes().is_empty() && ods.nodes().len() != od_count {
        out.push(violation(
            AuditKind::NodeCountMismatch,
            format!(
                "{} candidate nodes attached to {od_count} ODs",
                ods.nodes().len()
            ),
        ));
    }
    if !out.is_empty() {
        return;
    }

    // Category 2b: tuple value spans.
    check_spans(&store.arena, tuple_value, "tuple value", out);
    if !out.is_empty() {
        return;
    }

    // Category 3b: the three OdSet CSR tables.
    check_csr(od_starts, n, tuples, "od tuples", out);
    check_csr(od_group_starts, n, group_types.len(), "od groups", out);
    check_csr(
        group_starts,
        group_types.len(),
        group_tuples.len(),
        "group tuples",
        out,
    );
    if !out.is_empty() {
        return;
    }

    // Category 4b: tuple and group id ranges.
    let raw_terms: Vec<u32> = tuple_term.iter().map(|t| t.index() as u32).collect();
    check_ids(
        &raw_terms,
        terms,
        "tuple term",
        AuditKind::TupleTermOutOfRange,
        out,
    );
    let raw_paths: Vec<u32> = tuple_path.iter().map(|p| p.index() as u32).collect();
    check_ids(
        &raw_paths,
        store.path_count(),
        "tuple path",
        AuditKind::TuplePathOutOfRange,
        out,
    );
    check_ids(
        group_types,
        store.type_count(),
        "group type",
        AuditKind::TypeIdOutOfRange,
        out,
    );
    if !out.is_empty() {
        return;
    }

    // Category 7: group/tuple cross-consistency per OD.
    for i in 0..n {
        check_od_groups(
            ods,
            i,
            od_starts,
            od_group_starts,
            group_types,
            group_starts,
            group_tuples,
            &raw_terms,
            store,
            out,
        );
    }
    if !out.is_empty() {
        return;
    }

    // Category 8: per-type statistics against a recount.
    check_stats(store, &raw_terms, out);
    if !out.is_empty() {
        return;
    }

    // Category 9: postings must equal the lists recomputed from the
    // tuple columns — the od↔posting bijection every IDF weight and
    // merge join depends on.
    let mut recomputed: Vec<Vec<u32>> = vec![Vec::new(); terms];
    for i in 0..n {
        if let Some(row) = csr_row(od_starts, &raw_terms, i) {
            for &t in row {
                if let Some(list) = recomputed.get_mut(t as usize) {
                    if list.last() != Some(&(i as u32)) {
                        list.push(i as u32);
                    }
                }
            }
        }
    }
    for (t, implied) in recomputed.iter().enumerate() {
        if store.postings(t) != implied.as_slice() {
            out.push(violation(
                AuditKind::PostingMismatch,
                format!(
                    "term {t}: stored postings {:?} but tuples imply {:?}",
                    store.postings(t),
                    implied
                ),
            ));
        }
    }
}

/// One OD's groups must cover its tuples exactly once, sorted strictly
/// ascending by type, each group's type matching its members' terms.
#[allow(clippy::too_many_arguments)]
fn check_od_groups(
    _ods: &OdSet,
    i: usize,
    od_starts: &[u32],
    od_group_starts: &[u32],
    group_types: &[u32],
    group_starts: &[u32],
    group_tuples: &[u32],
    raw_terms: &[u32],
    store: &TermStore,
    out: &mut Vec<AuditViolation>,
) {
    let od_lo = match od_starts.get(i) {
        Some(&v) => v as usize,
        None => return,
    };
    let od_len = match od_starts.get(i + 1) {
        Some(&v) => (v as usize).saturating_sub(od_lo),
        None => return,
    };
    let (g_lo, g_hi) = match (od_group_starts.get(i), od_group_starts.get(i + 1)) {
        (Some(&a), Some(&b)) => (a as usize, b as usize),
        _ => return,
    };
    let mut covered = vec![0u32; od_len];
    let mut prev_type: Option<u32> = None;
    for g in g_lo..g_hi {
        let ty = match group_types.get(g) {
            Some(&ty) => ty,
            None => return,
        };
        if let Some(prev) = prev_type {
            if prev >= ty {
                out.push(violation(
                    AuditKind::GroupTypeMismatch,
                    format!("OD {i}: group types not strictly ascending at group {g}"),
                ));
                return;
            }
        }
        prev_type = Some(ty);
        let members = match csr_row(group_starts, group_tuples, g) {
            Some(m) => m,
            None => return,
        };
        for &local in members {
            match covered.get_mut(local as usize) {
                Some(slot) => *slot += 1,
                None => {
                    out.push(violation(
                        AuditKind::GroupOffsetsBroken,
                        format!(
                            "group tuple index {local} out of range for OD {i} ({od_len} tuples)"
                        ),
                    ));
                    return;
                }
            }
            let term = raw_terms.get(od_lo + local as usize).copied();
            let term_type = term
                .and_then(|t| store.term_types().get(t as usize))
                .copied();
            if term_type != Some(ty) {
                out.push(violation(
                    AuditKind::GroupTypeMismatch,
                    format!("OD {i}: group {g} has type {ty} but member tuple {local} disagrees"),
                ));
                return;
            }
        }
    }
    if let Some(missed) = covered.iter().position(|&c| c != 1) {
        out.push(violation(
            AuditKind::GroupOffsetsBroken,
            format!(
                "OD {i}: tuple {missed} covered {} times by its groups (expected once)",
                covered[missed]
            ),
        ));
    }
}

/// Per-type statistics must equal a recount of terms, tuples, and
/// postings (requires valid id ranges).
fn check_stats(store: &TermStore, raw_terms: &[u32], out: &mut Vec<AuditViolation>) {
    let types = store.type_count();
    let mut terms = vec![0u32; types];
    let mut postings = vec![0u32; types];
    let mut tuples = vec![0u32; types];
    for t in 0..store.term_count() {
        if let Some(slot) = terms.get_mut(store.term_type[t] as usize) {
            *slot += 1;
        }
        if let Some(slot) = postings.get_mut(store.term_type[t] as usize) {
            *slot += store.posting_len(t) as u32;
        }
    }
    for &t in raw_terms {
        let ty = store.term_types().get(t as usize).copied();
        if let Some(slot) = ty.and_then(|ty| tuples.get_mut(ty as usize)) {
            *slot += 1;
        }
    }
    for (ty, stat) in store.type_stats.iter().enumerate() {
        if stat.terms != terms[ty] || stat.tuples != tuples[ty] || stat.postings != postings[ty] {
            out.push(violation(
                AuditKind::StatsMismatch,
                format!(
                    "type {ty}: stats ({}, {}, {}) but recount gives ({}, {}, {})",
                    stat.terms, stat.tuples, stat.postings, terms[ty], tuples[ty], postings[ty]
                ),
            ));
        }
    }
}

// ---- stage-boundary gate ---------------------------------------------

/// Stage-boundary audit: asserts the set is structurally sound. Active
/// in debug builds and under `--features audit`; compiles to nothing in
/// plain release builds (the bench gates measure the same code as
/// before).
#[cfg(any(debug_assertions, feature = "audit"))]
pub(crate) fn audit_gate(ods: &OdSet, stage: &str) {
    let report = StoreAuditor::audit(ods);
    assert!(
        report.is_clean(),
        "store audit failed at {stage}:\n{report}"
    );
}

/// Release-mode stub: the audit gate costs nothing without the feature.
#[cfg(not(any(debug_assertions, feature = "audit")))]
#[inline(always)]
pub(crate) fn audit_gate(_ods: &OdSet, _stage: &str) {}

// ---- test-only corruption hooks --------------------------------------

/// Raw-column corruption hooks for the mutation suite (`tests/audit.rs`).
///
/// Only compiled under `--features audit`: tests decompose a live set
/// into owned columns, seed one corruption, rebuild, and assert the
/// auditor reports exactly the invariant that corruption breaks.
#[cfg(feature = "audit")]
pub mod mutate {
    use super::super::{Span, TermStore, TypeStats};
    use crate::od::OdSet;
    use dogmatix_xml::NodeId;

    /// An [`OdSet`] decomposed into owned raw columns, every field
    /// freely mutable. Field names mirror the store/set internals.
    #[allow(missing_docs)]
    #[derive(Debug, Clone)]
    pub struct RawColumns {
        pub arena: String,
        pub term_norm: Vec<Span>,
        pub term_type: Vec<u32>,
        pub term_char_len: Vec<u32>,
        pub term_idf: Vec<f64>,
        pub posting_starts: Vec<u32>,
        pub postings: Vec<u32>,
        pub type_names: Vec<Span>,
        pub path_names: Vec<Span>,
        pub type_stats: Vec<TypeStats>,
        pub object_count: u32,
        pub od_starts: Vec<u32>,
        pub tuple_term: Vec<u32>,
        pub tuple_value: Vec<Span>,
        pub tuple_path: Vec<u32>,
        pub od_group_starts: Vec<u32>,
        pub group_types: Vec<u32>,
        pub group_starts: Vec<u32>,
        pub group_tuples: Vec<u32>,
        pub nodes: Vec<NodeId>,
    }

    /// Decomposes a live set into owned, mutable raw columns.
    pub fn decompose(ods: &OdSet) -> RawColumns {
        let (
            store,
            od_starts,
            tuple_term,
            tuple_value,
            tuple_path,
            od_group_starts,
            group_types,
            group_starts,
            group_tuples,
        ) = ods.columns();
        RawColumns {
            arena: String::from_utf8_lossy(store.arena_bytes()).into_owned(),
            term_norm: store.term_norm_spans().to_vec(),
            term_type: store.term_types().to_vec(),
            term_char_len: store.term_char_lens().to_vec(),
            term_idf: store.term_idfs().to_vec(),
            posting_starts: store.posting_starts().to_vec(),
            postings: store.postings_raw().to_vec(),
            type_names: store.type_name_spans().to_vec(),
            path_names: store.path_name_spans().to_vec(),
            type_stats: store.type_stats().to_vec(),
            object_count: store.object_count() as u32,
            od_starts: od_starts.to_vec(),
            tuple_term: tuple_term.iter().map(|t| t.index() as u32).collect(),
            tuple_value: tuple_value.to_vec(),
            tuple_path: tuple_path.iter().map(|p| p.index() as u32).collect(),
            od_group_starts: od_group_starts.to_vec(),
            group_types: group_types.to_vec(),
            group_starts: group_starts.to_vec(),
            group_tuples: group_tuples.to_vec(),
            nodes: ods.nodes().to_vec(),
        }
    }

    /// Rebuilds a live set from (possibly corrupted) raw columns.
    pub fn rebuild(cols: RawColumns) -> OdSet {
        let store = TermStore::from_parts(
            cols.arena,
            cols.term_norm,
            cols.term_type,
            cols.term_char_len,
            cols.term_idf,
            cols.posting_starts,
            cols.postings,
            cols.type_names,
            cols.path_names,
            cols.type_stats,
            cols.object_count,
        );
        let mut ods = OdSet::from_columns(
            Vec::new(),
            store,
            cols.od_starts,
            cols.tuple_term.into_iter().map(crate::od::TermId).collect(),
            cols.tuple_value,
            cols.tuple_path
                .into_iter()
                .map(super::super::PathId)
                .collect(),
            cols.od_group_starts,
            cols.group_types,
            cols.group_starts,
            cols.group_tuples,
        );
        ods.set_nodes(cols.nodes);
        ods
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use dogmatix_xml::Document;
    use std::collections::{BTreeSet, HashMap};

    fn small_ods() -> OdSet {
        let doc = Document::parse(
            "<db><m><t>alpha ray</t><y>1999</y></m>\
             <m><t>alpha ray</t><y>1999</y></m>\
             <m><t>beta burst</t><y>2002</y></m></db>",
        )
        .expect("fixture parses");
        let candidates = doc.select("/db/m").expect("candidates resolve");
        let mut selections: HashMap<String, BTreeSet<String>> = HashMap::new();
        selections.insert(
            "/db/m".to_string(),
            ["/db/m/t".to_string(), "/db/m/y".to_string()]
                .into_iter()
                .collect(),
        );
        let mut mapping = Mapping::new();
        mapping
            .add_type("M", ["/db/m"])
            .add_type("TITLE", ["/db/m/t"])
            .add_type("YEAR", ["/db/m/y"]);
        OdSet::build(&doc, &candidates, &selections, &mapping)
    }

    #[test]
    fn freshly_built_sets_audit_clean() {
        let ods = small_ods();
        let report = StoreAuditor::audit(&ods);
        assert!(report.is_clean(), "unexpected violations:\n{report}");
        assert!(StoreAuditor::audit_store(ods.store()).is_clean());
        assert_eq!(format!("{report}"), "store audit: clean");
    }

    #[test]
    fn report_lists_kinds_in_first_seen_order() {
        let report = AuditReport {
            violations: vec![
                violation(AuditKind::CsrShape, "a".into()),
                violation(AuditKind::CsrShape, "b".into()),
                violation(AuditKind::IdfMismatch, "c".into()),
            ],
        };
        assert_eq!(
            report.kinds(),
            vec![AuditKind::CsrShape, AuditKind::IdfMismatch]
        );
        assert!(!report.is_clean());
        assert!(format!("{report}").contains("audit[CsrShape]: a"));
    }

    #[test]
    fn column_helpers_flag_bad_shapes() {
        let mut out = Vec::new();
        check_csr(&[0, 2, 1], 2, 1, "x", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AuditKind::CsrNotMonotone);

        out.clear();
        check_csr(&[0, 1], 2, 1, "x", &mut out);
        assert_eq!(out[0].kind, AuditKind::CsrShape);

        out.clear();
        check_ids(&[0, 5], 5, "x", AuditKind::PostingOutOfRange, &mut out);
        assert_eq!(out[0].kind, AuditKind::PostingOutOfRange);

        out.clear();
        check_spans("ab", &[Span::new(0, 3)], "x", &mut out);
        assert_eq!(out[0].kind, AuditKind::SpanOutOfBounds);

        out.clear();
        check_spans("ab", &[Span::new(0, 2)], "x", &mut out);
        assert!(out.is_empty());
    }
}
