//! The domain-independent similarity measure (paper Section 5).
//!
//! For a pair of object descriptions `OD_i`, `OD_j`:
//!
//! 1. only tuples of the same real-world type are **comparable** (mapping
//!    `M`); incomparable data is ignored entirely,
//! 2. a comparable pair is **similar** iff its `odtDist` — the normalised
//!    edit distance of the values (Definition 7) — is below `θ_tuple`
//!    (Equation 4),
//! 3. comparable tuples that are not similar are paired into
//!    **contradictory** pairs greedily by *highest* distance, each tuple
//!    used at most once (Section 5's city example); leftover tuples are
//!    non-specified and do not hurt,
//! 4. every pair is weighed by `softIDF = ln(|Ω| / |O_i ∪ O_j|)`
//!    (Definition 8),
//! 5. `sim = setSoftIDF(≈) / (setSoftIDF(≠) + setSoftIDF(≈))`
//!    (Equation 8).
//!
//! Distances between values are memoised per *term pair* in a
//! [`DistCache`] — across hundreds of thousands of OD pairs the same
//! value pairs recur constantly (years, genres, dummy track titles), and
//! the cache turns repeated edit-distance computations into hash lookups.
//! This implements the spirit of the paper's \[18\] bound optimisation
//! together with the bounded edit-distance kernels in `dogmatix-textsim`.
//!
//! Distances that *are* computed go through Myers' bit-parallel
//! [`BitParallelKernel`], which is exact: it returns the scalar DP's
//! integer distances. The scoring loop batches each left term's row:
//! memo hits resolve during a gather pass, then the kernel prepares the
//! left term's pattern state once and sweeps the remaining right terms,
//! reading norm spans and cached char lengths straight from the
//! `TermStore` SoA columns.

use crate::od::{OdSet, TermId};
use dogmatix_textsim::kernel::{BitParallelKernel, EditDistanceKernel, KernelScratch};
use dogmatix_textsim::{bag_distance_lower_bound_with, idf, length_lower_bound, strict_cap};
use std::collections::HashMap;

/// Memoised per-term-pair state plus reusable scratch buffers for the
/// allocation-free fast path. One cache may be shared across all pair
/// comparisons of a run (or one per worker thread).
///
/// Memoisation is restricted to *frequent* pairs — both terms occurring
/// in at least two objects. A term unique to one object meets any other
/// given term at most once across the entire run, so caching those pairs
/// would only balloon memory (quadratically in corpus size) without a
/// single cache hit.
///
/// ```
/// use dogmatix_core::sim::DistCache;
/// let mut cache = DistCache::new();
/// assert!(cache.is_empty());
/// let sized = DistCache::for_plan(10_000);
/// assert!(sized.capacity() >= 16 * 1024);
/// # let _ = &mut cache;
/// ```
#[derive(Debug, Default)]
pub struct DistCache {
    /// Exact `odtDist` per frequent term pair.
    dist: HashMap<(TermId, TermId), f64>,
    /// Bounds-based "is the distance below θ?" verdicts per frequent pair.
    similar: HashMap<(TermId, TermId), bool>,
    /// `|O_a ∪ O_b|` per frequent pair (the softIDF denominator).
    union: HashMap<(TermId, TermId), u32>,
    // Scratch for SimEngine::sim — reused across pairs so the hot loop
    // performs no per-pair allocations.
    scratch_candidates: Vec<(f64, u32, u32)>,
    scratch_used_i: Vec<bool>,
    scratch_used_j: Vec<bool>,
    /// One left term's gathered comparison row: `(tuple_j, term_j,
    /// distance)`, distance = NaN until the kernel fills it.
    scratch_row: Vec<(u32, TermId, f64)>,
    /// Working state for the edit-distance kernels (pattern bitmasks, DP
    /// rows, bound tables) — reused across every comparison this cache
    /// serves.
    kernel_scratch: KernelScratch,
}

impl DistCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DistCache::default()
    }

    /// Creates an empty cache whose maps are pre-sized for roughly
    /// `entries` memoised term pairs, so a worker that is about to score
    /// a known share of the comparison work does not rehash its way up
    /// from an empty table. Used by the parallel pairwise path (one
    /// pre-sized cache per worker thread).
    pub fn with_capacity(entries: usize) -> Self {
        DistCache {
            dist: HashMap::with_capacity(entries),
            similar: HashMap::with_capacity(entries),
            union: HashMap::with_capacity(entries),
            scratch_candidates: Vec::new(),
            scratch_used_i: Vec::new(),
            scratch_used_j: Vec::new(),
            scratch_row: Vec::new(),
            kernel_scratch: KernelScratch::new(),
        }
    }

    /// Creates a cache pre-sized for a comparison plan of `plan_len`
    /// pairs — the sizing each parallel comparison worker gets for its
    /// share of the pairs.
    ///
    /// Sizing from the *pairs the worker actually scores* (rather than
    /// a global pool estimate) keeps small plans small: a plan holding a
    /// single pair gets the minimum table.
    pub fn for_plan(plan_len: usize) -> Self {
        DistCache::with_capacity(cache_capacity_for_plan(plan_len))
    }

    /// Number of memoised entries the maps can hold before rehashing.
    pub fn capacity(&self) -> usize {
        self.dist.capacity().min(self.similar.capacity())
    }

    /// Number of memoised distance entries (diagnostics and benches).
    pub fn len(&self) -> usize {
        self.dist.len() + self.similar.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Memoised-entry budget for a worker about to score `plan_len` pairs.
/// Only *frequent* term pairs are memoised, and their count is far below
/// the OD-pair count, so roughly two entries per planned pair is ample;
/// the clamp keeps tiny plans at the minimum table and huge corpora
/// bounded. (Over-sizing is not free: allocating multi-megabyte tables
/// per worker costs more than the rehashes they would avoid.)
fn cache_capacity_for_plan(plan_len: usize) -> usize {
    plan_len.saturating_mul(2).clamp(16, 1 << 16)
}

/// Whether a term pair is worth memoising: both sides recur. Reads the
/// CSR offsets directly — two subtractions, no slice materialisation.
#[inline]
fn is_frequent(ods: &OdSet, a: TermId, b: TermId) -> bool {
    ods.store().posting_len(a.index()) >= 2 && ods.store().posting_len(b.index()) >= 2
}

/// Canonical (symmetric) memo key for a term pair.
#[inline]
fn ordered(a: TermId, b: TermId) -> (TermId, TermId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Exact `odtDist` through the kernel: norm spans and cached
/// character lengths come straight from the `TermStore` SoA columns —
/// no per-pair `chars().count()` pass, no allocation.
fn kernel_distance(scratch: &mut KernelScratch, ods: &OdSet, a: TermId, b: TermId) -> f64 {
    let term_a = ods.term(a);
    let term_b = ods.term(b);
    let la = term_a.char_len();
    let lb = term_b.char_len();
    let max_len = la.max(lb);
    if max_len == 0 {
        return 0.0;
    }
    let d = BitParallelKernel
        .bounded_counted(scratch, term_a.norm(), la, term_b.norm(), lb, max_len)
        .unwrap_or(max_len); // unreachable: every distance is <= max_len
    d as f64 / max_len as f64
}

/// Bounds-then-kernel similarity verdict `odtDist < θ` — the
/// `ned_within` cascade (strict cap, length bound, bag bound, bounded
/// distance) over store columns and cache-resident scratch.
fn kernel_similar(
    scratch: &mut KernelScratch,
    ods: &OdSet,
    a: TermId,
    b: TermId,
    theta: f64,
) -> bool {
    let term_a = ods.term(a);
    let term_b = ods.term(b);
    let la = term_a.char_len();
    let lb = term_b.char_len();
    let max_len = la.max(lb);
    if max_len == 0 {
        return theta > 0.0;
    }
    let Some(cap) = strict_cap(theta, max_len) else {
        return false;
    };
    if length_lower_bound(la, lb) > cap {
        return false;
    }
    if bag_distance_lower_bound_with(term_a.norm(), term_b.norm(), &mut scratch.bounds) > cap {
        return false;
    }
    BitParallelKernel
        .bounded_counted(scratch, term_a.norm(), la, term_b.norm(), lb, cap)
        .is_some()
}

/// Memoised exact `odtDist` (free function so the fast path can borrow
/// the cache's scratch buffers alongside the maps).
fn distance_memo(
    map: &mut HashMap<(TermId, TermId), f64>,
    scratch: &mut KernelScratch,
    ods: &OdSet,
    a: TermId,
    b: TermId,
) -> f64 {
    if a == b {
        return 0.0;
    }
    let key = if a < b { (a, b) } else { (b, a) };
    if let Some(d) = map.get(&key) {
        return *d;
    }
    let d = kernel_distance(scratch, ods, a, b);
    if is_frequent(ods, a, b) {
        map.insert(key, d);
    }
    d
}

/// Memoised bounds-based similarity verdict: `odtDist < θ`. Cheaper than
/// [`distance_memo`] when the answer is "no" (the common case), because
/// the length and bag bounds reject without running the DP.
fn similar_memo(
    map: &mut HashMap<(TermId, TermId), bool>,
    scratch: &mut KernelScratch,
    ods: &OdSet,
    a: TermId,
    b: TermId,
    theta: f64,
) -> bool {
    if a == b {
        return theta > 0.0;
    }
    let key = if a < b { (a, b) } else { (b, a) };
    if let Some(v) = map.get(&key) {
        return *v;
    }
    let v = kernel_similar(scratch, ods, a, b, theta);
    if is_frequent(ods, a, b) {
        map.insert(key, v);
    }
    v
}

/// Memoised `|O_a ∪ O_b|`.
fn union_memo(
    map: &mut HashMap<(TermId, TermId), u32>,
    ods: &OdSet,
    a: TermId,
    b: TermId,
) -> usize {
    if a == b {
        return ods.store().posting_len(a.index());
    }
    let key = if a < b { (a, b) } else { (b, a) };
    if let Some(v) = map.get(&key) {
        return *v as usize;
    }
    let v = merged_count(ods.term(a).postings(), ods.term(b).postings());
    if is_frequent(ods, a, b) {
        map.insert(key, v as u32);
    }
    v
}

/// One similar or contradictory tuple pair with its weight.
///
/// ```
/// use dogmatix_core::sim::WeighedPair;
/// let pair = WeighedPair { tuple_i: 0, tuple_j: 1, distance: 0.0, soft_idf: 0.69 };
/// assert_eq!((pair.tuple_i, pair.tuple_j), (0, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeighedPair {
    /// Tuple index within `OD_i`.
    pub tuple_i: usize,
    /// Tuple index within `OD_j`.
    pub tuple_j: usize,
    /// `odtDist` of the pair.
    pub distance: f64,
    /// `softIDF` of the pair.
    pub soft_idf: f64,
}

/// Full breakdown of one pair comparison (used by tests, examples, and
/// the explain output). Obtained from [`SimEngine::breakdown`]; see the
/// example there.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBreakdown {
    /// Similar pairs (`ODT_≈`, Equation 4 — all pairs below `θ_tuple`).
    pub similar: Vec<WeighedPair>,
    /// Contradictory pairs (`ODT_≠`, Equation 7 — a greedy max-distance
    /// matching over tuples without a similar partner).
    pub contradictory: Vec<WeighedPair>,
    /// `setSoftIDF(ODT_≈)`.
    pub soft_idf_similar: f64,
    /// `setSoftIDF(ODT_≠)`.
    pub soft_idf_contradictory: f64,
    /// The final `sim` value (Equation 8); 0 when both sets are empty.
    pub sim: f64,
}

/// The similarity engine for one OD set.
///
/// ```
/// use dogmatix_core::mapping::Mapping;
/// use dogmatix_core::od::OdSet;
/// use dogmatix_core::sim::{DistCache, SimEngine};
/// use dogmatix_xml::Document;
/// use std::collections::{BTreeSet, HashMap};
///
/// let doc = Document::parse(
///     "<r><m><t>Same Song</t></m><m><t>Same Song</t></m>\
///         <m><t>Other One</t></m></r>")?;
/// let candidates = doc.select("/r/m")?;
/// let mut sel = HashMap::new();
/// sel.insert("/r/m".to_string(),
///            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>());
/// let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
/// let engine = SimEngine::new(&ods, 0.15);
/// let mut cache = DistCache::new();
/// assert_eq!(engine.sim(0, 1, &mut cache), 1.0);    // identical ODs
/// let b = engine.breakdown(0, 2, &mut cache);       // full explain form
/// assert!(b.similar.is_empty() && b.sim < 1.0);
/// # Ok::<(), dogmatix_xml::XmlError>(())
/// ```
#[derive(Debug)]
pub struct SimEngine<'a> {
    ods: &'a OdSet,
    theta_tuple: f64,
}

impl<'a> SimEngine<'a> {
    /// Creates an engine with the given tuple-similarity threshold
    /// (`θ_tuple`, the paper uses 0.15).
    pub fn new(ods: &'a OdSet, theta_tuple: f64) -> Self {
        SimEngine { ods, theta_tuple }
    }

    /// The OD set this engine reads.
    pub fn ods(&self) -> &OdSet {
        self.ods
    }

    /// `sim(OD_i, OD_j)` (Equation 8).
    ///
    /// Allocation-free fast path over the pre-grouped tuples (scratch
    /// buffers live in the [`DistCache`]); agrees exactly with
    /// [`SimEngine::breakdown`]'s `sim` field.
    pub fn sim(&self, i: usize, j: usize, cache: &mut DistCache) -> f64 {
        let ods = self.ods;
        let total = ods.len();
        let tuples_i = ods.od_range(i).len();
        let tuples_j = ods.od_range(j).len();

        let (s_sim, s_con) = {
            // Merge-join the type groups of both ODs (flattened group
            // columns; the loop reads only integer columns until an
            // actual distance computation is needed).
            let mut s_sim = 0.0f64;
            // Reset scratch.
            let candidates = &mut cache.scratch_candidates;
            candidates.clear();
            let used_i = &mut cache.scratch_used_i;
            let used_j = &mut cache.scratch_used_j;
            used_i.clear();
            used_i.resize(tuples_i, false);
            used_j.clear();
            used_j.resize(tuples_j, false);

            let groups_i = ods.od_group_range(i);
            let groups_j = ods.od_group_range(j);
            let (mut gi, mut gj) = (groups_i.start, groups_j.start);
            while gi < groups_i.end && gj < groups_j.end {
                let ty_i = ods.group_type(gi);
                let ty_j = ods.group_type(gj);
                match ty_i.cmp(&ty_j) {
                    std::cmp::Ordering::Less => gi += 1,
                    std::cmp::Ordering::Greater => gj += 1,
                    std::cmp::Ordering::Equal => {
                        let idx_i = ods.group_tuple_slice(gi);
                        let idx_j = ods.group_tuple_slice(gj);
                        if idx_i.len() == 1 && idx_j.len() == 1 {
                            // 1×1 group: the greedy matching has a single
                            // candidate, so only the verdict matters — the
                            // cheap bounds-based check suffices (no exact
                            // DP for the common "clearly different" case).
                            let (ti, tj) = (idx_i[0], idx_j[0]);
                            let term_i = ods.tuple_term_at(i, ti as usize);
                            let term_j = ods.tuple_term_at(j, tj as usize);
                            if similar_memo(
                                &mut cache.similar,
                                &mut cache.kernel_scratch,
                                ods,
                                term_i,
                                term_j,
                                self.theta_tuple,
                            ) {
                                used_i[ti as usize] = true;
                                used_j[tj as usize] = true;
                                s_sim +=
                                    idf(total, union_memo(&mut cache.union, ods, term_i, term_j));
                            } else {
                                candidates.push((1.0, ti, tj));
                            }
                            gi += 1;
                            gj += 1;
                            continue;
                        }
                        // Multi-tuple group: the greedy matching orders by
                        // exact distance. Each left tuple's comparison row
                        // is batched — gather memo hits, prepare the left
                        // term's pattern state once, sweep the misses
                        // through the kernel, then accumulate in the
                        // original right-tuple order (so the float
                        // accumulation order, and hence the score, is
                        // independent of the batching).
                        for &ti in idx_i {
                            let term_i = ods.tuple_term_at(i, ti as usize);
                            let row = &mut cache.scratch_row;
                            row.clear();
                            let mut misses = 0usize;
                            for &tj in idx_j {
                                let term_j = ods.tuple_term_at(j, tj as usize);
                                let d = if term_i == term_j {
                                    0.0
                                } else {
                                    let key = ordered(term_i, term_j);
                                    match cache.dist.get(&key) {
                                        Some(d) => *d,
                                        None => {
                                            misses += 1;
                                            f64::NAN
                                        }
                                    }
                                };
                                row.push((tj, term_j, d));
                            }
                            if misses > 0 {
                                let term_a = ods.term(term_i);
                                let la = term_a.char_len();
                                BitParallelKernel.prepare(
                                    &mut cache.kernel_scratch,
                                    term_a.norm(),
                                    la,
                                );
                                for entry in row.iter_mut() {
                                    if !entry.2.is_nan() {
                                        continue;
                                    }
                                    let term_b = ods.term(entry.1);
                                    let lb = term_b.char_len();
                                    let max_len = la.max(lb);
                                    let d = if max_len == 0 {
                                        0.0
                                    } else {
                                        let edits = BitParallelKernel
                                            .bounded_prepared(
                                                &mut cache.kernel_scratch,
                                                term_b.norm(),
                                                lb,
                                                max_len,
                                            )
                                            // unreachable: distance <= max_len
                                            .unwrap_or(max_len);
                                        edits as f64 / max_len as f64
                                    };
                                    entry.2 = d;
                                    if is_frequent(ods, term_i, entry.1) {
                                        cache.dist.insert(ordered(term_i, entry.1), d);
                                    }
                                }
                            }
                            for k in 0..cache.scratch_row.len() {
                                let (tj, term_j, d) = cache.scratch_row[k];
                                if d < self.theta_tuple {
                                    used_i[ti as usize] = true;
                                    used_j[tj as usize] = true;
                                    s_sim += idf(
                                        total,
                                        union_memo(&mut cache.union, ods, term_i, term_j),
                                    );
                                } else {
                                    candidates.push((d, ti, tj));
                                }
                            }
                        }
                        gi += 1;
                        gj += 1;
                    }
                }
            }

            // Greedy max-distance contradiction matching over tuples
            // without a similar partner.
            candidates.retain(|(_, ti, tj)| !used_i[*ti as usize] && !used_j[*tj as usize]);
            candidates.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
            });
            let mut s_con = 0.0f64;
            for &(_, ti, tj) in candidates.iter() {
                if used_i[ti as usize] || used_j[tj as usize] {
                    continue;
                }
                used_i[ti as usize] = true;
                used_j[tj as usize] = true;
                s_con += idf(
                    total,
                    union_memo(
                        &mut cache.union,
                        ods,
                        ods.tuple_term_at(i, ti as usize),
                        ods.tuple_term_at(j, tj as usize),
                    ),
                );
            }
            (s_sim, s_con)
        };

        let denom = s_sim + s_con;
        if denom > 0.0 {
            s_sim / denom
        } else {
            0.0
        }
    }

    /// Full comparison breakdown for a pair.
    pub fn breakdown(&self, i: usize, j: usize, cache: &mut DistCache) -> SimBreakdown {
        let ods = self.ods;
        let od_i = ods.od(i);
        let od_j = ods.od(j);
        let total = ods.len();

        // Group tuple indices by interned real-world type on side j
        // (type ids intern 1:1 with names, so comparability is an
        // integer key now).
        let mut by_type_j: HashMap<u32, Vec<usize>> = HashMap::new();
        for (tj, t) in od_j.tuples().enumerate() {
            by_type_j.entry(t.type_id()).or_default().push(tj);
        }

        let mut similar: Vec<WeighedPair> = Vec::new();
        // Candidate contradictory pairs: comparable, not similar.
        let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
        let mut in_similar_i: Vec<bool> = vec![false; od_i.tuple_count()];
        let mut in_similar_j: Vec<bool> = vec![false; od_j.tuple_count()];

        for (ti, t_i) in od_i.tuples().enumerate() {
            let Some(partners) = by_type_j.get(&t_i.type_id()) else {
                continue; // no comparable data on the other side
            };
            for &tj in partners {
                let t_j = od_j.tuple(tj);
                let d = distance_memo(
                    &mut cache.dist,
                    &mut cache.kernel_scratch,
                    ods,
                    t_i.term(),
                    t_j.term(),
                );
                if d < self.theta_tuple {
                    in_similar_i[ti] = true;
                    in_similar_j[tj] = true;
                    similar.push(WeighedPair {
                        tuple_i: ti,
                        tuple_j: tj,
                        distance: d,
                        soft_idf: self.pair_soft_idf(t_i.term(), t_j.term(), total),
                    });
                } else {
                    candidates.push((ti, tj, d));
                }
            }
        }

        // Greedy max-distance matching over tuples without a similar
        // partner (the paper's city example: Boston pairs with New York,
        // 7/8 > 8/11, and the leftover city is non-specified).
        candidates.retain(|(ti, tj, _)| !in_similar_i[*ti] && !in_similar_j[*tj]);
        candidates.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        let mut used_i = vec![false; od_i.tuple_count()];
        let mut used_j = vec![false; od_j.tuple_count()];
        let mut contradictory: Vec<WeighedPair> = Vec::new();
        for (ti, tj, d) in candidates {
            if used_i[ti] || used_j[tj] {
                continue;
            }
            used_i[ti] = true;
            used_j[tj] = true;
            contradictory.push(WeighedPair {
                tuple_i: ti,
                tuple_j: tj,
                distance: d,
                soft_idf: self.pair_soft_idf(od_i.tuple(ti).term(), od_j.tuple(tj).term(), total),
            });
        }

        let s_sim: f64 = similar.iter().map(|p| p.soft_idf).sum();
        let s_con: f64 = contradictory.iter().map(|p| p.soft_idf).sum();
        let denom = s_sim + s_con;
        let sim = if denom > 0.0 { s_sim / denom } else { 0.0 };
        SimBreakdown {
            similar,
            contradictory,
            soft_idf_similar: s_sim,
            soft_idf_contradictory: s_con,
            sim,
        }
    }

    /// `softIDF((odt_i, odt_j)) = ln(|Ω| / |O_i ∪ O_j|)` (Definition 8).
    fn pair_soft_idf(&self, a: TermId, b: TermId, total: usize) -> f64 {
        let union = if a == b {
            self.ods.store().posting_len(a.index())
        } else {
            merged_count(self.ods.term(a).postings(), self.ods.term(b).postings())
        };
        idf(total, union)
    }
}

/// The paper's softIDF similarity (Equation 8) as a
/// [`SimilarityMeasure`](crate::stage::SimilarityMeasure) stage — the
/// canonical DogmatiX measure, preparing a [`SimEngine`] per run over
/// whatever columnar store the configured
/// [`TermIndexBackend`](crate::backend::TermIndexBackend) supplied.
///
/// ```
/// use dogmatix_core::pipeline::Dogmatix;
/// use dogmatix_core::sim::SoftIdfMeasure;
/// let dx = Dogmatix::builder()
///     .add_type("M", ["/db/m"])
///     .measure(SoftIdfMeasure::new(0.15))
///     .build();
/// # let _ = dx;
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftIdfMeasure {
    /// Tuple-similarity threshold `θ_tuple` (paper: 0.15).
    pub theta_tuple: f64,
}

impl SoftIdfMeasure {
    /// Creates the measure with the given `θ_tuple`. Debug builds assert
    /// the threshold is a similarity in `[0, 1]`.
    pub fn new(theta_tuple: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&theta_tuple),
            "θ_tuple must be a similarity in [0, 1], got {theta_tuple}"
        );
        SoftIdfMeasure { theta_tuple }
    }
}

impl crate::stage::SimilarityMeasure for SoftIdfMeasure {
    fn prepare<'a>(
        &self,
        ctx: crate::stage::SimContext<'a>,
    ) -> Box<dyn crate::stage::PreparedMeasure + 'a> {
        Box::new(SimEngine::new(ctx.ods, self.theta_tuple))
    }
}

impl crate::stage::PreparedMeasure for SimEngine<'_> {
    fn sim(&self, i: usize, j: usize, cache: &mut DistCache) -> f64 {
        SimEngine::sim(self, i, j, cache)
    }
}

/// Size of the union of two sorted posting lists.
pub(crate) fn merged_count(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        count += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    count + (a.len() - i) + (b.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::od::OdSet;
    use dogmatix_xml::Document;
    use std::collections::{BTreeSet, HashMap};

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "similarity in [0, 1]")]
    fn soft_idf_rejects_out_of_range_theta_in_debug() {
        let _ = SoftIdfMeasure::new(1.01);
    }

    fn build_odset(xml: &str, candidate: &str, selected: &[&str]) -> OdSet {
        let doc = Document::parse(xml).unwrap();
        let candidates = doc.select(candidate).unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            candidate.trim_start_matches("$doc").to_string(),
            selected
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        OdSet::build(&doc, &candidates, &sel, &Mapping::new())
    }

    fn movie_odset() -> OdSet {
        build_odset(
            "<moviedoc>\
               <movie><title>The Matrix</title><year>1999</year>\
                 <actor><name>Keanu Reeves</name></actor>\
                 <actor><name>L. Fishburne</name></actor></movie>\
               <movie><title>Matrix</title><year>1999</year>\
                 <actor><name>Keanu Reeves</name></actor></movie>\
               <movie><title>Signs</title><year>2002</year>\
                 <actor><name>Mel Gibson</name></actor></movie>\
             </moviedoc>",
            "/moviedoc/movie",
            &[
                "/moviedoc/movie/title",
                "/moviedoc/movie/year",
                "/moviedoc/movie/actor/name",
            ],
        )
    }

    #[test]
    fn paper_example_matrix_movies_are_similar() {
        let ods = movie_odset();
        let engine = SimEngine::new(&ods, 0.45); // admit "Matrix"~"The Matrix" (ned 0.4)
        let mut cache = DistCache::new();
        let b01 = engine.breakdown(0, 1, &mut cache);
        // Shared: year 1999, Keanu Reeves, and the similar titles.
        assert_eq!(b01.similar.len(), 3);
        assert!(b01.sim > 0.9, "sim={}", b01.sim);

        let b02 = engine.breakdown(0, 2, &mut cache);
        assert!(
            b02.sim < 0.3,
            "Matrix vs Signs should contradict, sim={}",
            b02.sim
        );
        assert!(b02.similar.is_empty());
        assert!(!b02.contradictory.is_empty());
    }

    #[test]
    fn sim_is_symmetric() {
        let ods = movie_odset();
        let engine = SimEngine::new(&ods, 0.45);
        let mut cache = DistCache::new();
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let a = engine.sim(i, j, &mut cache);
                let b = engine.sim(j, i, &mut cache);
                assert!(
                    (a - b).abs() < 1e-12,
                    "sim({i},{j})={a} != sim({j},{i})={b}"
                );
            }
        }
    }

    #[test]
    fn missing_data_does_not_penalise() {
        // OD1 has two actors, OD2 only one (missing). The extra actor has
        // no partner → non-specified → no penalty.
        // Padding objects keep |Ω| above the posting unions so softIDF
        // weights stay positive (with only two objects every shared term
        // has idf ln(2/2) = 0 and sim degenerates to 0/0).
        let ods = build_odset(
            "<r><m><t>X</t><a>Alice</a><a>Bob</a></m>\
                <m><t>X</t><a>Alice</a></m>\
                <m><t>Pad One</t><a>Carol</a></m>\
                <m><t>Pad Two</t><a>Dave</a></m></r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        let b = engine.breakdown(0, 1, &mut cache);
        // Bob is unpaired: only one a on the other side, and it is
        // already in a similar pair with Alice.
        assert!(b.contradictory.is_empty(), "{:?}", b.contradictory);
        assert_eq!(b.sim, 1.0);
    }

    #[test]
    fn contradictory_data_reduces_similarity() {
        let ods = build_odset(
            "<r><m><t>Same Title</t><a>Alice</a></m>\
                <m><t>Same Title</t><a>Zebra</a></m>\
                <m><t>Pad One</t><a>Carol</a></m>\
                <m><t>Pad Two</t><a>Dave</a></m></r>",
            "/r/m",
            &["/r/m/t", "/r/m/a"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        let b = engine.breakdown(0, 1, &mut cache);
        assert_eq!(b.similar.len(), 1);
        assert_eq!(b.contradictory.len(), 1);
        assert!(b.sim < 1.0 && b.sim > 0.0);
    }

    #[test]
    fn city_example_greedy_max_distance_matching() {
        // Section 5.1: countries (New York, Los Angeles, Miami) vs
        // (Miami, Boston): one similar pair (Miami), ONE contradictory
        // pair — Boston matches New York (7/8 > 8/11) — and the leftover
        // Los Angeles is non-specified.
        let ods = build_odset(
            "<r><c><city>New York</city><city>Los Angeles</city><city>Miami</city></c>\
                <c><city>Miami</city><city>Boston</city></c></r>",
            "/r/c",
            &["/r/c/city"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        let b = engine.breakdown(0, 1, &mut cache);
        assert_eq!(b.similar.len(), 1);
        assert_eq!(b.contradictory.len(), 1, "exactly one contradictory pair");
        let pair = &b.contradictory[0];
        let odi_value = ods.od(0).tuple(pair.tuple_i).value();
        assert_eq!(odi_value, "New York", "greedy picks the highest distance");
        assert!((pair.distance - 7.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn incomparable_types_are_ignored() {
        // review vs sold-number: different types, never compared
        // (Section 5 requirement 1).
        let doc = Document::parse(
            "<r><m><title>The Matrix</title><review>great!</review></m>\
                <m><title>Matrix</title><sold>500</sold></m>\
                <m><title>Pad One</title></m>\
                <m><title>Pad Two</title></m></r>",
        )
        .unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/r/m".to_string(),
            ["/r/m/title", "/r/m/review", "/r/m/sold"]
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
        );
        let ods = OdSet::build(&doc, &candidates, &sel, &Mapping::new());
        let engine = SimEngine::new(&ods, 0.45);
        let mut cache = DistCache::new();
        let b = engine.breakdown(0, 1, &mut cache);
        // Only the titles are compared; review/sold have no partner type.
        assert_eq!(b.similar.len(), 1);
        assert!(b.contradictory.is_empty());
        assert_eq!(b.sim, 1.0);
    }

    #[test]
    fn soft_idf_weights_rare_matches_higher() {
        // Two pairs match on a ubiquitous year vs a unique title: the
        // unique-title pair must end up more similar when contradicted by
        // the same amount.
        let ods = build_odset(
            "<r>\
               <m><y>1999</y><t>Unique Alpha</t></m>\
               <m><y>1999</y><t>Totally Different</t></m>\
               <m><y>1999</y><t>Unique Beta</t></m>\
               <m><y>1999</y><t>Unique Beta</t></m>\
             </r>",
            "/r/m",
            &["/r/m/y", "/r/m/t"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        // Pair (0,1): similar on year (in all 4 ODs → idf 0), contradictory
        // on titles (rare → heavy) → low sim.
        let low = engine.sim(0, 1, &mut cache);
        // Pair (2,3): similar on year AND the rare title → sim 1.
        let high = engine.sim(2, 3, &mut cache);
        assert!(high > low, "high={high} low={low}");
        assert_eq!(high, 1.0);
        assert!(low < 0.1, "low={low}");
    }

    #[test]
    fn empty_ods_have_zero_sim() {
        let ods = build_odset("<r><m><t>A</t></m><m><t>B</t></m></r>", "/r/m", &[]);
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        assert_eq!(engine.sim(0, 1, &mut cache), 0.0);
    }

    #[test]
    fn cache_memoises_frequent_pairs_only() {
        // Two frequent year terms (each in two ODs) and unique titles:
        // the (1999, 2002) comparison is memoised, the title pairs are
        // not (they can never recur).
        let ods = build_odset(
            "<r><m><y>1999</y><t>Alpha One</t></m>\
                <m><y>1999</y><t>Beta Two</t></m>\
                <m><y>2002</y><t>Gamma Three</t></m>\
                <m><y>2002</y><t>Delta Four</t></m></r>",
            "/r/m",
            &["/r/m/y", "/r/m/t"],
        );
        let engine = SimEngine::new(&ods, 0.15);
        let mut cache = DistCache::new();
        engine.sim(0, 2, &mut cache);
        let size_after_first = cache.len();
        assert_eq!(size_after_first, 1, "only the year pair is frequent");
        engine.sim(1, 3, &mut cache);
        assert_eq!(cache.len(), size_after_first, "second run hits the cache");
    }

    #[test]
    fn fast_path_agrees_with_breakdown() {
        let ods = movie_odset();
        for theta in [0.15, 0.45, 0.8] {
            let engine = SimEngine::new(&ods, theta);
            let mut cache = DistCache::new();
            for i in 0..ods.len() {
                for j in 0..ods.len() {
                    if i == j {
                        continue;
                    }
                    let fast = engine.sim(i, j, &mut cache);
                    let slow = engine.breakdown(i, j, &mut cache).sim;
                    assert!(
                        (fast - slow).abs() < 1e-12,
                        "sim({i},{j})@{theta}: fast={fast} breakdown={slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn with_capacity_presizes_and_agrees_with_new() {
        let ods = movie_odset();
        let engine = SimEngine::new(&ods, 0.45);
        let mut cold = DistCache::new();
        let mut warm = DistCache::with_capacity(64);
        assert!(warm.capacity() >= 64);
        assert!(warm.is_empty());
        for i in 0..ods.len() {
            for j in (i + 1)..ods.len() {
                assert_eq!(
                    engine.sim(i, j, &mut cold),
                    engine.sim(i, j, &mut warm),
                    "capacity must not change results"
                );
            }
        }
        assert_eq!(cold.len(), warm.len());
    }

    #[test]
    fn plan_sized_cache_scales_with_the_plan_not_the_pool() {
        // Regression: a 1-pair plan used to inherit a share of the
        // global pool estimate; it must get the minimum table instead.
        assert_eq!(cache_capacity_for_plan(0), 16);
        assert_eq!(cache_capacity_for_plan(1), 16);
        let one_pair = DistCache::for_plan(1);
        assert!(
            one_pair.capacity() <= 64,
            "a 1-pair plan must not pre-allocate a pool-sized table, got {}",
            one_pair.capacity()
        );
        assert!(DistCache::for_plan(10_000).capacity() >= 16 * 1024);
        assert_eq!(cache_capacity_for_plan(usize::MAX), 1 << 16);
    }

    #[test]
    fn soft_idf_measure_stage_matches_engine() {
        use crate::stage::SimilarityMeasure;
        let ods = movie_odset();
        let doc = Document::parse("<x/>").unwrap();
        let measure = SoftIdfMeasure::new(0.45);
        let prepared = measure.prepare(crate::stage::SimContext {
            doc: &doc,
            candidates: &[],
            ods: &ods,
        });
        let engine = SimEngine::new(&ods, 0.45);
        let mut a = DistCache::new();
        let mut b = DistCache::new();
        for i in 0..ods.len() {
            for j in 0..ods.len() {
                if i == j {
                    continue;
                }
                assert_eq!(prepared.sim(i, j, &mut a), engine.sim(i, j, &mut b));
            }
        }
    }

    #[test]
    fn merged_count_unions() {
        assert_eq!(merged_count(&[1, 2, 3], &[2, 3, 4]), 4);
        assert_eq!(merged_count(&[], &[1]), 1);
        assert_eq!(merged_count(&[], &[]), 0);
        assert_eq!(merged_count(&[5], &[5]), 1);
        assert_eq!(merged_count(&[1, 3, 5], &[2, 4, 6]), 6);
    }
}
