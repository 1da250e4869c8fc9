//! The columnar term store: one shared byte arena plus
//! structure-of-arrays columns for everything the description data path
//! reads after `prepare`.
//!
//! The pre-columnar representation carried four owned `String`s per OD
//! tuple and a `HashMap<(u32, String), TermId>` interner, so every layer
//! of the pipeline — batch, incremental, parallel, blocking — paid
//! allocation and hashing costs on data that is immutable once built.
//! Here all strings (normalised term values, raw tuple values, schema
//! paths, real-world type names) live in **one byte arena** addressed by
//! [`Span`]s, term metadata is split into parallel columns (norm span,
//! type id, char length, pre-computed IDF weight), and posting lists are
//! a single CSR array pair. The layout is also what makes the persistent
//! snapshot backend ([`crate::backend`]) trivial: a store serialises as
//! a handful of flat arrays and loads back byte-identical.
//!
//! Invariants the columns maintain:
//!
//! * term ids are assigned in order of first occurrence across the
//!   candidate iteration order (bit-compatible with the previous
//!   `HashMap` interner, which the incremental differential suite
//!   relies on),
//! * posting lists are sorted and deduplicated,
//! * `idf(id)` equals `ln(|Ω| / |postings(id)|)` for the object count
//!   the store was built against.
//!
//! ```
//! use dogmatix_core::od::OdSet;
//! use dogmatix_core::mapping::Mapping;
//! use dogmatix_xml::Document;
//! use std::collections::{BTreeSet, HashMap};
//!
//! let doc = Document::parse(
//!     "<r><m><t>The Matrix</t></m><m><t>The Matrix</t></m></r>")?;
//! let candidates = doc.select("/r/m")?;
//! let mut sel = HashMap::new();
//! sel.insert("/r/m".to_string(),
//!            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>());
//! let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
//! let store = ods.store();
//! assert_eq!(store.term_count(), 1);             // one interned term
//! let term = ods.term(ods.od(0).tuple(0).term());
//! assert_eq!(term.norm(), "the matrix");         // read out of the arena
//! assert_eq!(term.postings(), &[0, 1]);          // CSR posting list
//! # Ok::<(), dogmatix_xml::XmlError>(())
//! ```

use crate::od::RawTuple;
use dogmatix_textsim::idf;
use std::collections::HashMap;

pub mod audit;
pub mod pool;

/// A byte range into a store's shared arena.
///
/// Spans replace owned `String` fields everywhere downstream of the OD
/// builder; resolving one is two loads and a slice, with no pointer
/// chasing into per-tuple heap allocations.
///
/// ```
/// use dogmatix_core::store::Span;
/// let span = Span::new(4, 3);
/// assert_eq!(span.resolve("the matrix"), "mat");
/// assert_eq!(span.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Creates a span covering `len` bytes from `start`.
    pub fn new(start: u32, len: u32) -> Self {
        Span { start, len }
    }

    /// Byte length of the span.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// The spanned string. The caller must pass the arena the span was
    /// created against; spans always lie on UTF-8 boundaries because the
    /// builder only interns whole `&str`s, so the slice is an O(1)
    /// boundary-checked index — no per-access UTF-8 scan on the
    /// comparison hot path (a deserialised arena is validated once, at
    /// snapshot load).
    #[inline]
    pub fn resolve(self, arena: &str) -> &str {
        // Widen before adding: a hostile span must never wrap u32 (the
        // snapshot loader validates against this same widened end).
        &arena[self.start as usize..self.start as usize + self.len as usize]
    }

    pub(crate) fn end(self) -> usize {
        self.start as usize + self.len as usize
    }

    /// Raw start offset (snapshot serialisation).
    pub(crate) fn start_raw(self) -> u32 {
        self.start
    }
}

/// Interned id of a distinct schema name path within one store.
///
/// ```
/// use dogmatix_core::od::OdSet;
/// # use dogmatix_core::mapping::Mapping;
/// # use dogmatix_xml::Document;
/// # use std::collections::{BTreeSet, HashMap};
/// # let doc = Document::parse("<r><m><t>x</t></m></r>")?;
/// # let candidates = doc.select("/r/m")?;
/// # let mut sel = HashMap::new();
/// # sel.insert("/r/m".to_string(),
/// #            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>());
/// let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
/// let path_id = ods.od(0).tuple(0).path_id();
/// assert_eq!(ods.store().path_name(path_id), "/r/m/t");
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub(crate) u32);

impl PathId {
    /// Index into the store's path-name table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-real-world-type aggregate statistics, computed when the store is
/// finished and carried into snapshots (so a warm-started run can report
/// its corpus shape without touching the document).
///
/// ```
/// use dogmatix_core::store::TypeStats;
/// let stats = TypeStats { terms: 3, tuples: 5, postings: 6 };
/// assert_eq!(stats.terms, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TypeStats {
    /// Distinct terms of this type.
    pub terms: u32,
    /// OD tuples of this type across all objects.
    pub tuples: u32,
    /// Total posting-list entries over the type's terms.
    pub postings: u32,
}

/// The columnar term store: shared byte arena + SoA term columns + CSR
/// posting lists + interned type/path name tables.
///
/// Built by [`crate::od::OdSet::build`] /
/// [`crate::od::OdSet::build_from_raw`]; read through
/// [`crate::od::TermRef`] or the raw accessors here. See the module
/// docs for an end-to-end example.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TermStore {
    /// All interned string bytes.
    pub(crate) arena: String,
    /// Per-term: span of the normalised value.
    pub(crate) term_norm: Vec<Span>,
    /// Per-term: interned real-world type id.
    pub(crate) term_type: Vec<u32>,
    /// Per-term: length of the normalised value in chars (cached for
    /// the distance bounds).
    pub(crate) term_char_len: Vec<u32>,
    /// Per-term: `idf(|Ω|, |postings|)` — the per-term weight column.
    pub(crate) term_idf: Vec<f64>,
    /// CSR posting-list offsets (`term_count + 1` entries).
    pub(crate) posting_starts: Vec<u32>,
    /// Concatenated sorted, deduplicated posting lists.
    pub(crate) postings: Vec<u32>,
    /// Interned real-world type names, indexed by type id.
    pub(crate) type_names: Vec<Span>,
    /// Interned schema name paths, indexed by [`PathId`].
    pub(crate) path_names: Vec<Span>,
    /// Per-type aggregate statistics (aligned with `type_names`).
    pub(crate) type_stats: Vec<TypeStats>,
    /// The object count `|Ω|` the IDF column was computed against.
    pub(crate) object_count: u32,
}

impl TermStore {
    /// Number of interned terms.
    ///
    /// ```
    /// use dogmatix_core::store::TermStore;
    /// assert_eq!(TermStore::default().term_count(), 0);
    /// ```
    pub fn term_count(&self) -> usize {
        self.term_norm.len()
    }

    /// Number of interned real-world types.
    pub fn type_count(&self) -> usize {
        self.type_names.len()
    }

    /// Number of interned schema paths.
    pub fn path_count(&self) -> usize {
        self.path_names.len()
    }

    /// The object count `|Ω|` this store was built against.
    pub fn object_count(&self) -> usize {
        self.object_count as usize
    }

    /// Byte length of the shared string arena.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Normalised value of a term. Panics on a foreign id (see
    /// [`crate::od::OdSet::term`] for the invariant).
    #[inline]
    pub fn norm(&self, term: usize) -> &str {
        self.term_norm[term].resolve(&self.arena)
    }

    /// Interned type id of a term.
    #[inline]
    pub fn type_id(&self, term: usize) -> u32 {
        self.term_type[term]
    }

    /// Char length of a term's normalised value.
    #[inline]
    pub fn char_len(&self, term: usize) -> usize {
        self.term_char_len[term] as usize
    }

    /// Pre-computed `idf(|Ω|, |postings|)` of a term.
    #[inline]
    pub fn idf(&self, term: usize) -> f64 {
        self.term_idf[term]
    }

    /// Sorted, deduplicated posting list of a term.
    #[inline]
    pub fn postings(&self, term: usize) -> &[u32] {
        &self.postings[self.posting_starts[term] as usize..self.posting_starts[term + 1] as usize]
    }

    /// Posting-list length of a term without materialising the slice.
    #[inline]
    pub fn posting_len(&self, term: usize) -> usize {
        (self.posting_starts[term + 1] - self.posting_starts[term]) as usize
    }

    /// Name of an interned real-world type.
    #[inline]
    pub fn type_name(&self, type_id: u32) -> &str {
        self.type_names[type_id as usize].resolve(&self.arena)
    }

    /// Name of an interned schema path.
    #[inline]
    pub fn path_name(&self, path: PathId) -> &str {
        self.path_names[path.index()].resolve(&self.arena)
    }

    /// Looks up the [`PathId`] of a schema path, if it was interned.
    /// Path tables are tiny (one entry per selected schema path), so the
    /// linear scan beats carrying a lookup map through snapshots.
    pub fn find_path(&self, path: &str) -> Option<PathId> {
        self.path_names
            .iter()
            .position(|s| s.resolve(&self.arena) == path)
            .map(|i| PathId(i as u32))
    }

    /// Per-type aggregate statistics, aligned with type ids.
    pub fn type_stats(&self) -> &[TypeStats] {
        &self.type_stats
    }

    // ---- raw column views + reassembly (snapshot support) ------------

    /// The raw arena bytes (snapshot serialisation).
    pub(crate) fn arena_bytes(&self) -> &[u8] {
        self.arena.as_bytes()
    }
    /// The per-term norm spans.
    pub(crate) fn term_norm_spans(&self) -> &[Span] {
        &self.term_norm
    }
    /// The per-term type-id column.
    pub(crate) fn term_types(&self) -> &[u32] {
        &self.term_type
    }
    /// The per-term char-length column.
    pub(crate) fn term_char_lens(&self) -> &[u32] {
        &self.term_char_len
    }
    /// The per-term IDF column.
    pub(crate) fn term_idfs(&self) -> &[f64] {
        &self.term_idf
    }
    /// The CSR posting offsets.
    pub(crate) fn posting_starts(&self) -> &[u32] {
        &self.posting_starts
    }
    /// The concatenated posting lists.
    pub(crate) fn postings_raw(&self) -> &[u32] {
        &self.postings
    }
    /// The type-name span table.
    pub(crate) fn type_name_spans(&self) -> &[Span] {
        &self.type_names
    }
    /// The path-name span table.
    pub(crate) fn path_name_spans(&self) -> &[Span] {
        &self.path_names
    }

    /// Reassembles a store from deserialised (and already validated)
    /// columns — the snapshot loader's constructor.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        arena: String,
        term_norm: Vec<Span>,
        term_type: Vec<u32>,
        term_char_len: Vec<u32>,
        term_idf: Vec<f64>,
        posting_starts: Vec<u32>,
        postings: Vec<u32>,
        type_names: Vec<Span>,
        path_names: Vec<Span>,
        type_stats: Vec<TypeStats>,
        object_count: u32,
    ) -> TermStore {
        TermStore {
            arena,
            term_norm,
            term_type,
            term_char_len,
            term_idf,
            posting_starts,
            postings,
            type_names,
            path_names,
            type_stats,
            object_count,
        }
    }

    /// Total heap footprint of the store in bytes — the number the
    /// scaling bench's memory gate and the eval blocking table report.
    ///
    /// ```
    /// use dogmatix_core::store::TermStore;
    /// assert_eq!(TermStore::default().heap_bytes(), 0);
    /// ```
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity()
            + self.term_norm.capacity() * size_of::<Span>()
            + self.term_type.capacity() * size_of::<u32>()
            + self.term_char_len.capacity() * size_of::<u32>()
            + self.term_idf.capacity() * size_of::<f64>()
            + self.posting_starts.capacity() * size_of::<u32>()
            + self.postings.capacity() * size_of::<u32>()
            + self.type_names.capacity() * size_of::<Span>()
            + self.path_names.capacity() * size_of::<Span>()
            + self.type_stats.capacity() * size_of::<TypeStats>()
    }
}

/// FNV-1a over a string's bytes — the builder's bucket hash (the shared
/// [`dogmatix_textsim::Fnv1a`] state machine). Collisions are resolved
/// by comparing arena bytes, so the hash only has to spread buckets,
/// never to be unique.
#[inline]
fn fnv(s: &str) -> u64 {
    let mut h = dogmatix_textsim::Fnv1a::new();
    h.update(s.as_bytes());
    h.finish()
}

/// The interner's lookups: FNV buckets of candidate ids, resolved by
/// comparing arena bytes. A [`StoreBuilder`] grows them while it
/// interns and hands them out when it finishes; a [`FrozenInterner`]
/// keeps them so records can be appended to the store without
/// re-interning it.
#[derive(Debug, Default)]
pub(crate) struct StoreLookups {
    /// `(type_id, fnv(norm))` → candidate term ids (collision chain).
    terms: HashMap<(u32, u64), Vec<u32>>,
    /// `fnv(name)` → candidate type ids.
    types: HashMap<u64, Vec<u32>>,
    /// `fnv(path)` → candidate path ids.
    paths: HashMap<u64, Vec<u32>>,
    /// `fnv(value)` → spans of already-interned raw values (dedup).
    values: HashMap<u64, Vec<Span>>,
}

/// The ids of a bucket bucket (empty for a missing bucket).
fn bucket<'a, K: std::hash::Hash + Eq, V: Copy>(
    map: &'a HashMap<K, Vec<V>>,
    key: &K,
) -> impl Iterator<Item = V> + 'a {
    map.get(key).into_iter().flatten().copied()
}

/// Resolves `s` among the `candidates` ids of `spans`, or appends it
/// to the arena as the next id (`true` when appended) — the one
/// resolver behind the builder and the frozen append.
fn intern_into(
    arena: &mut String,
    spans: &mut Vec<Span>,
    mut candidates: impl Iterator<Item = u32>,
    s: &str,
) -> (u32, bool) {
    if let Some(id) = candidates.find(|&id| spans[id as usize].resolve(arena) == s) {
        return (id, false);
    }
    spans.push(push_bytes(arena, s));
    (spans.len() as u32 - 1, true)
}

/// Incremental builder behind [`crate::od::OdSet::build`]: interns
/// strings into the arena with hash-bucketed lookups (no owned `String`
/// keys), accumulates posting lists, and finishes into the CSR columns.
#[derive(Debug, Default)]
pub(crate) struct StoreBuilder {
    arena: String,
    term_norm: Vec<Span>,
    term_type: Vec<u32>,
    term_char_len: Vec<u32>,
    /// Per-term posting list, flattened to CSR in [`StoreBuilder::finish`].
    posting_lists: Vec<Vec<u32>>,
    type_names: Vec<Span>,
    path_names: Vec<Span>,
    lookups: StoreLookups,
}

/// Copies `s` onto the end of `arena`, returning its span (no dedup).
fn push_bytes(arena: &mut String, s: &str) -> Span {
    let start = arena.len() as u32;
    arena.push_str(s);
    Span::new(start, s.len() as u32)
}

impl StoreBuilder {
    /// Interns a raw tuple value, deduplicating identical values into a
    /// single arena span.
    pub(crate) fn intern_value(&mut self, value: &str) -> Span {
        let h = fnv(value);
        if let Some(span) =
            bucket(&self.lookups.values, &h).find(|s| s.resolve(&self.arena) == value)
        {
            return span;
        }
        let span = push_bytes(&mut self.arena, value);
        self.lookups.values.entry(h).or_default().push(span);
        span
    }

    /// Interns a real-world type name, returning its id (first
    /// occurrence assigns the next id).
    pub(crate) fn intern_type(&mut self, name: &str) -> u32 {
        let h = fnv(name);
        let known = bucket(&self.lookups.types, &h);
        let (id, new) = intern_into(&mut self.arena, &mut self.type_names, known, name);
        if new {
            self.lookups.types.entry(h).or_default().push(id);
        }
        id
    }

    /// Interns a schema name path.
    pub(crate) fn intern_path(&mut self, path: &str) -> PathId {
        let h = fnv(path);
        let known = bucket(&self.lookups.paths, &h);
        let (id, new) = intern_into(&mut self.arena, &mut self.path_names, known, path);
        if new {
            self.lookups.paths.entry(h).or_default().push(id);
        }
        PathId(id)
    }

    /// Interns a `(type, normalised value)` term, returning its id in
    /// first-occurrence order — the exact id assignment of the previous
    /// `HashMap<(u32, String), TermId>` interner.
    pub(crate) fn intern_term(&mut self, type_id: u32, norm: &str) -> u32 {
        let h = fnv(norm);
        let known = bucket(&self.lookups.terms, &(type_id, h));
        let (id, new) = intern_into(&mut self.arena, &mut self.term_norm, known, norm);
        if new {
            self.term_type.push(type_id);
            self.term_char_len.push(norm.chars().count() as u32);
            self.posting_lists.push(Vec::new());
            self.lookups.terms.entry((type_id, h)).or_default().push(id);
        }
        id
    }

    /// Appends an object to a term's posting list (deduplicating the
    /// consecutive repeats a multi-tuple object produces).
    pub(crate) fn add_posting(&mut self, term: u32, od_index: u32) {
        let list = &mut self.posting_lists[term as usize];
        if list.last() != Some(&od_index) {
            list.push(od_index);
        }
    }

    /// Flattens the builder into the immutable columnar store, computing
    /// the CSR postings, the IDF column for `object_count` objects, and
    /// the per-type statistics (`tuple_type_ids` is the type id of every
    /// tuple in the set, for the per-type tuple counts). Returns the
    /// lookups too, for [`FrozenInterner::new`].
    pub(crate) fn finish(
        self,
        object_count: usize,
        tuple_type_ids: &[u32],
    ) -> (TermStore, StoreLookups) {
        let mut posting_starts = Vec::with_capacity(self.posting_lists.len() + 1);
        let total: usize = self.posting_lists.iter().map(Vec::len).sum();
        let mut postings = Vec::with_capacity(total);
        posting_starts.push(0u32);
        for list in &self.posting_lists {
            postings.extend_from_slice(list);
            posting_starts.push(postings.len() as u32);
        }
        let term_idf: Vec<f64> = self
            .posting_lists
            .iter()
            .map(|l| idf(object_count, l.len().max(1)))
            .collect();
        let mut type_stats = vec![TypeStats::default(); self.type_names.len()];
        for (term, &ty) in self.term_type.iter().enumerate() {
            let s = &mut type_stats[ty as usize];
            s.terms += 1;
            s.postings += self.posting_lists[term].len() as u32;
        }
        for &ty in tuple_type_ids {
            type_stats[ty as usize].tuples += 1;
        }
        let store = TermStore {
            arena: self.arena,
            term_norm: self.term_norm,
            term_type: self.term_type,
            term_char_len: self.term_char_len,
            term_idf,
            posting_starts,
            postings,
            type_names: self.type_names,
            path_names: self.path_names,
            type_stats,
            object_count: object_count as u32,
        };
        (store, self.lookups)
    }
}

/// A finished store's interner, frozen: the lookups its builder grew,
/// plus its IDF column re-weighted for one more object. The build that
/// makes a probe snapshot's store keeps them
/// ([`crate::od::OdSet::build_frozen`]); every probe then appends its
/// record to a copy of the store
/// ([`crate::od::OdSet::refill_appended`]) instead of re-interning
/// every stored object.
#[derive(Debug, Default)]
pub(crate) struct FrozenInterner {
    lookups: StoreLookups,
    /// `idf(|Ω| + 1, |postings|)` per stored term: an append's IDF
    /// column before the record's own stored terms are re-weighted.
    idf_next: Vec<f64>,
}

impl FrozenInterner {
    /// Freezes `store` with the `lookups` its builder grew.
    pub(crate) fn new(store: &TermStore, lookups: StoreLookups) -> Self {
        let next = store.object_count() + 1;
        let idf_next = (0..store.term_count())
            .map(|t| idf(next, store.posting_len(t).max(1)))
            .collect();
        FrozenInterner { lookups, idf_next }
    }
}

impl TermStore {
    /// Starts an append to `base`: copies the columns an append extends,
    /// reusing this store's allocations. [`TermStore::finish_append`]
    /// lays the rest.
    pub(crate) fn refill_from(&mut self, base: &TermStore) {
        self.arena.clone_from(&base.arena);
        self.term_norm.clone_from(&base.term_norm);
        self.term_type.clone_from(&base.term_type);
        self.term_char_len.clone_from(&base.term_char_len);
        self.type_names.clone_from(&base.type_names);
        self.path_names.clone_from(&base.path_names);
    }

    /// Interns one tuple of a record appended to `base` (frozen as
    /// `frozen`) exactly as a [`StoreBuilder`] that had interned `base`'s
    /// objects would: each string resolves through the frozen lookups,
    /// then among what this append added; a miss takes the next id or
    /// arena span. `record_values` are the value spans of the record's
    /// earlier tuples. Returns the type id, term id, value span and path.
    pub(crate) fn append_tuple(
        &mut self,
        base: &TermStore,
        frozen: &FrozenInterner,
        tuple: &RawTuple,
        record_values: &[Span],
    ) -> (u32, u32, Span, PathId) {
        let lookups = &frozen.lookups;
        let fresh_types = base.type_count() as u32..self.type_count() as u32;
        let known = bucket(&lookups.types, &fnv(&tuple.rw_type)).chain(fresh_types);
        let (type_id, _) =
            intern_into(&mut self.arena, &mut self.type_names, known, &tuple.rw_type);

        let term_type = &self.term_type;
        let fresh_terms = (base.term_count() as u32..self.term_count() as u32)
            .filter(|&t| term_type[t as usize] == type_id);
        let known = bucket(&lookups.terms, &(type_id, fnv(&tuple.norm))).chain(fresh_terms);
        let (term, new) = intern_into(&mut self.arena, &mut self.term_norm, known, &tuple.norm);
        if new {
            self.term_type.push(type_id);
            self.term_char_len.push(tuple.norm.chars().count() as u32);
        }

        let value = bucket(&lookups.values, &fnv(&tuple.value))
            .chain(record_values.iter().copied())
            .find(|span| span.resolve(&self.arena) == tuple.value)
            .unwrap_or_else(|| push_bytes(&mut self.arena, &tuple.value));

        let fresh_paths = base.path_count() as u32..self.path_count() as u32;
        let known = bucket(&lookups.paths, &fnv(&tuple.path)).chain(fresh_paths);
        let (path, _) = intern_into(&mut self.arena, &mut self.path_names, known, &tuple.path);
        (type_id, term, value, PathId(path))
    }

    /// Completes an append of object `|Ω|` to `base`: lays the posting
    /// lists — the record's stored terms `touched` (sorted, distinct)
    /// gain the new object, its fresh terms hold only it — and
    /// re-weights the IDF column and the per-type statistics for
    /// `|Ω| + 1` objects. `record_types` holds every record tuple's type.
    pub(crate) fn finish_append(
        &mut self,
        base: &TermStore,
        frozen: &FrozenInterner,
        touched: &[u32],
        record_types: &[u32],
    ) {
        debug_assert_eq!(
            frozen.idf_next.len(),
            base.term_count(),
            "foreign frozen interner"
        );
        let n = base.object_count;
        let next = base.object_count() + 1;
        let stored = base.term_count();
        let starts = &base.posting_starts;
        // Copy the stored lists in runs, closing each touched term's list
        // with `n`; every later offset shifts by the `n`s laid so far.
        self.posting_starts.clear();
        self.postings.clear();
        let mut from = 0;
        for (shift, &t) in touched.iter().enumerate() {
            let t = t as usize;
            self.posting_starts
                .extend(starts[from..=t].iter().map(|&s| s + shift as u32));
            self.postings
                .extend_from_slice(&base.postings[starts[from] as usize..starts[t + 1] as usize]);
            self.postings.push(n);
            from = t + 1;
        }
        let shift = touched.len() as u32;
        self.posting_starts
            .extend(starts[from..].iter().map(|&s| s + shift));
        self.postings
            .extend_from_slice(&base.postings[starts[from] as usize..]);
        for _ in stored..self.term_count() {
            self.postings.push(n);
            self.posting_starts.push(self.postings.len() as u32);
        }

        self.term_idf.clone_from(&frozen.idf_next);
        for &t in touched {
            self.term_idf[t as usize] = idf(next, base.posting_len(t as usize) + 1);
        }
        self.term_idf.resize(self.term_count(), idf(next, 1));

        self.type_stats.clone_from(&base.type_stats);
        self.type_stats
            .resize(self.type_count(), TypeStats::default());
        for &ty in record_types {
            self.type_stats[ty as usize].tuples += 1;
        }
        for &t in touched {
            self.type_stats[base.term_type[t as usize] as usize].postings += 1;
        }
        for t in stored..self.term_count() {
            let stats = &mut self.type_stats[self.term_type[t] as usize];
            stats.terms += 1;
            stats.postings += 1;
        }
        self.object_count = next as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_assigns_first_occurrence_ids_and_dedups() {
        let mut b = StoreBuilder::default();
        let ty = b.intern_type("TITLE");
        assert_eq!(ty, 0);
        assert_eq!(b.intern_type("YEAR"), 1);
        assert_eq!(b.intern_type("TITLE"), 0, "types deduplicate");
        let t0 = b.intern_term(ty, "the matrix");
        let t1 = b.intern_term(ty, "signs");
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(b.intern_term(ty, "the matrix"), 0, "terms deduplicate");
        assert_eq!(
            b.intern_term(1, "the matrix"),
            2,
            "same norm, different type is a distinct term"
        );
        let v1 = b.intern_value("Raw Value");
        let v2 = b.intern_value("Raw Value");
        assert_eq!(v1, v2, "raw values share one arena span");
        let p = b.intern_path("/r/m/t");
        assert_eq!(b.intern_path("/r/m/t"), p);

        b.add_posting(t0, 0);
        b.add_posting(t0, 0); // consecutive repeat collapses
        b.add_posting(t0, 2);
        b.add_posting(t1, 1);
        let (store, _) = b.finish(3, &[ty, ty, 1]);
        assert_eq!(store.term_count(), 3);
        assert_eq!(store.postings(0), &[0, 2]);
        assert_eq!(store.postings(1), &[1]);
        assert_eq!(store.posting_len(0), 2);
        assert_eq!(store.norm(0), "the matrix");
        assert_eq!(store.norm(2), "the matrix");
        assert_eq!(store.type_id(2), 1);
        assert_eq!(store.char_len(0), 10);
        assert_eq!(store.type_name(0), "TITLE");
        assert_eq!(store.path_name(p), "/r/m/t");
        assert_eq!(store.find_path("/r/m/t"), Some(p));
        assert_eq!(store.find_path("/nope"), None);
        assert_eq!(store.object_count(), 3);
        // The IDF column matches the free function.
        assert_eq!(store.idf(0), dogmatix_textsim::idf(3, 2));
        assert_eq!(store.idf(1), dogmatix_textsim::idf(3, 1));
        // Per-type stats: TITLE has 2 terms (ids 0, 1), 2 tuples, 3 postings.
        assert_eq!(
            store.type_stats()[0],
            TypeStats {
                terms: 2,
                tuples: 2,
                postings: 3
            }
        );
        assert!(store.heap_bytes() > 0);
        assert!(store.arena_len() >= "the matrixsigns".len());
    }

    #[test]
    fn span_resolves_into_arena() {
        let arena = "hello world";
        assert_eq!(Span::new(6, 5).resolve(arena), "world");
        assert_eq!(Span::new(0, 0).resolve(arena), "");
        assert_eq!(Span::new(0, 0).len(), 0);
        assert_eq!(Span::new(6, 5).end(), 11);
    }

    #[test]
    fn hash_collisions_resolve_by_bytes() {
        // Force every key into one bucket by interning many strings —
        // correctness must come from the byte comparison, not the hash.
        let mut b = StoreBuilder::default();
        let ty = b.intern_type("T");
        let ids: Vec<u32> = (0..200)
            .map(|i| b.intern_term(ty, &format!("value {i}")))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(b.intern_term(ty, &format!("value {i}")), *id);
        }
    }
}
