//! The comparison executor: framework Step 5 (Section 3.4) as one loop.
//!
//! Every pairwise comparison the crate makes — the batch pipeline, the
//! incremental re-scoring of a delta, and a probe's candidate list —
//! runs through [`execute`]: score each pair of a [`Pairs`] source with
//! the prepared measure, classify the similarity, and keep what the
//! caller's `keep` function returns for that verdict.
//!
//! Parallelism is set by the thread count alone. Small sources and
//! `threads <= 1` run inline on the caller's thread; larger ones are
//! split round-robin over scoped workers. `sim` is a pure function of
//! the pair (distance memoisation is exact), and callers order the
//! kept verdicts themselves, so results are bit-identical at every
//! thread count.

use crate::classify::Class;
use crate::od::OdSet;
use crate::sim::DistCache;
use crate::stage::{PairClassifier, PreparedMeasure};

/// Sources with fewer pairs than this always run inline: spawning
/// workers would cost more than it saves. All-pairs over 64 candidates
/// (2,016 pairs) stays below it.
const PARALLEL_MIN_PAIRS: usize = 2048;

/// The pairs one comparison pass scores.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pairs<'a> {
    /// Every pair `(ids[a], ids[b])` with `a < b`: the implicit
    /// all-pairs plan over the active candidates, never materialised.
    All(&'a [usize]),
    /// An explicit pair plan.
    Plan(&'a [(usize, usize)]),
}

impl Pairs<'_> {
    /// Number of pairs in the source.
    pub(crate) fn len(&self) -> usize {
        match self {
            Pairs::All(ids) => ids.len() * ids.len().saturating_sub(1) / 2,
            Pairs::Plan(plan) => plan.len(),
        }
    }

    /// Visits every pair in source order.
    pub(crate) fn for_each(&self, f: impl FnMut(usize, usize)) {
        self.for_each_strided(0, 1, f);
    }

    /// Visits one round-robin share: rows `start`, `start + stride`, …,
    /// where a row is one left candidate with all its later partners
    /// (`All`) or one planned pair (`Plan`).
    fn for_each_strided(&self, start: usize, stride: usize, mut f: impl FnMut(usize, usize)) {
        match *self {
            Pairs::All(ids) => {
                for (a, &i) in ids.iter().enumerate().skip(start).step_by(stride) {
                    for &j in &ids[a + 1..] {
                        f(i, j);
                    }
                }
            }
            Pairs::Plan(plan) => {
                for &(i, j) in plan.iter().skip(start).step_by(stride) {
                    f(i, j);
                }
            }
        }
    }
}

/// Step 4's decision as Step 5's input: the unpruned candidates, and
/// the explicit plan (if any) without the pairs that touch a pruned
/// candidate. Build the [`Pairs`] source from the two with
/// `plan.as_deref().map_or(Pairs::All(&active), Pairs::Plan)`.
pub(crate) fn unpruned(
    pruned: &[bool],
    plan: Option<Vec<(usize, usize)>>,
) -> (Vec<usize>, Option<Vec<(usize, usize)>>) {
    let active = (0..pruned.len()).filter(|&i| !pruned[i]).collect();
    let plan = plan.map(|plan| {
        plan.into_iter()
            .filter(|&(i, j)| !pruned[i] && !pruned[j])
            .collect()
    });
    (active, plan)
}

/// Scores every pair of `pairs` over `ods` and appends `keep(i, j, sim,
/// class)` to `out` for each pair where it returns `Some`.
///
/// Runs inline on the caller's thread, with one [`DistCache`] over the
/// whole source, when `threads <= 1` or the source holds fewer than
/// 2,048 pairs. Otherwise `threads` scoped workers each score one
/// round-robin share with their own cache, pre-sized for that share;
/// their kept verdicts are appended in worker order. Callers that need
/// an order sort `out` — the verdicts themselves never depend on
/// `threads`.
pub(crate) fn execute<T: Send>(
    ods: &OdSet,
    pairs: Pairs<'_>,
    threads: usize,
    measure: &dyn PreparedMeasure,
    classifier: &dyn PairClassifier,
    out: &mut Vec<T>,
    keep: impl Fn(usize, usize, f64, Class) -> Option<T> + Sync,
) {
    // Every path below indexes the set with no bounds slack, from one
    // thread or many; audit it at the execution boundary.
    crate::store::audit::audit_gate(ods, "pairwise comparison");
    let score = |cache: &mut DistCache, out: &mut Vec<T>, i: usize, j: usize| {
        let sim = measure.sim(i, j, cache);
        out.extend(keep(i, j, sim, classifier.classify(sim)));
    };

    if threads <= 1 || pairs.len() < PARALLEL_MIN_PAIRS {
        let mut cache = DistCache::new();
        pairs.for_each(|i, j| score(&mut cache, out, i, j));
        return;
    }

    let share = pairs.len() / threads;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let score = &score;
                scope.spawn(move || {
                    let mut cache = DistCache::for_plan(share);
                    let mut local = Vec::new();
                    pairs.for_each_strided(t, threads, |i, j| score(&mut cache, &mut local, i, j));
                    local
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(local) => out.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ThresholdClassifier;
    use crate::mapping::Mapping;
    use crate::sim::SimEngine;
    use std::collections::{BTreeSet, HashMap};

    /// Seventy one-title objects in 35 identical pairs (the titles are
    /// random hex strings, far apart otherwise): 2,415 all-pairs, enough
    /// to leave the inline path.
    fn corpus() -> OdSet {
        let records: String = (0..70)
            .map(|k| format!("<m><t>{:016x}</t></m>", dogmatix_textsim::mix64(k % 35)))
            .collect();
        let doc = dogmatix_xml::Document::parse(&format!("<r>{records}</r>")).unwrap();
        let candidates = doc.select("/r/m").unwrap();
        let mut sel = HashMap::new();
        sel.insert(
            "/r/m".to_string(),
            ["/r/m/t".to_string()].into_iter().collect::<BTreeSet<_>>(),
        );
        OdSet::build(&doc, &candidates, &sel, &Mapping::new())
    }

    fn duplicates(ods: &OdSet, pairs: Pairs<'_>, threads: usize) -> Vec<(usize, usize, f64)> {
        let engine = SimEngine::new(ods, 0.15);
        let classifier = ThresholdClassifier::new(0.5);
        let mut found = Vec::new();
        execute(
            ods,
            pairs,
            threads,
            &engine,
            &classifier,
            &mut found,
            |i, j, sim, class| (class == Class::Duplicate).then_some((i, j, sim)),
        );
        found.sort_by_key(|&(i, j, _)| (i, j));
        found
    }

    #[test]
    fn pair_sources_enumerate_the_same_pairs() {
        let ids = [1, 4, 5, 9];
        let mut all = Vec::new();
        Pairs::All(&ids).for_each(|i, j| all.push((i, j)));
        assert_eq!(all.len(), Pairs::All(&ids).len());
        assert_eq!(all, [(1, 4), (1, 5), (1, 9), (4, 5), (4, 9), (5, 9)]);
        let mut plan = Vec::new();
        Pairs::Plan(&all).for_each(|i, j| plan.push((i, j)));
        assert_eq!(plan, all);
        // Round-robin shares cover every pair exactly once.
        for source in [Pairs::All(&ids), Pairs::Plan(&all)] {
            let mut shares = Vec::new();
            for t in 0..3 {
                source.for_each_strided(t, 3, |i, j| shares.push((i, j)));
            }
            shares.sort_unstable();
            assert_eq!(shares, all);
        }
    }

    #[test]
    fn unpruned_drops_pruned_candidates_and_their_pairs() {
        let pruned = [false, true, false, false];
        let (active, plan) = unpruned(&pruned, Some(vec![(0, 1), (0, 2), (1, 3), (2, 3)]));
        assert_eq!(active, [0, 2, 3]);
        assert_eq!(plan, Some(vec![(0, 2), (2, 3)]));
        assert_eq!(unpruned(&pruned, None).1, None);
    }

    #[test]
    fn worker_pool_matches_inline_execution() {
        // Explicit thread counts reach the scoped-worker branch even on
        // a 1-core machine: any count must keep the inline verdicts.
        let ods = corpus();
        let ids: Vec<usize> = (0..ods.len()).collect();
        let plan: Vec<(usize, usize)> = (0..ods.len())
            .flat_map(|i| ((i + 1)..ods.len()).map(move |j| (i, j)))
            .collect();
        let inline = duplicates(&ods, Pairs::All(&ids), 1);
        assert_eq!(inline.len(), 35, "every identical pair scores above θ");
        for threads in [2, 4, 16] {
            assert_eq!(duplicates(&ods, Pairs::All(&ids), threads), inline);
            assert_eq!(duplicates(&ods, Pairs::Plan(&plan), threads), inline);
        }
    }
}
