//! The four workloads: their detector configurations and everything
//! generated from the workload seed — the corpus XML text, its gold
//! standard, delta scripts and probe records.
//!
//! The program only ever receives generated XML text or protocol lines.
//! The generator keeps its own copy of every object (a parsed fragment
//! plus its entity id) so it can write valid deltas and knows the gold
//! standard of every state a script reaches.

use dogmatix_core::classify::ThresholdClassifier;
use dogmatix_core::cluster::TransitiveClosure;
use dogmatix_core::filter::{MinHashLshBlocking, ObjectFilter, QGramBlocking};
use dogmatix_core::heuristics::{table4_heuristic, HeuristicExpr};
use dogmatix_core::mapping::{CompositeRule, Mapping};
use dogmatix_core::probe::ProbeBlocking;
use dogmatix_core::sim::SoftIdfMeasure;
use dogmatix_core::stage::ComparisonFilter;
use dogmatix_core::Dogmatix;
use dogmatix_datagen::cd::CD_CANDIDATE_PATH;
use dogmatix_datagen::dirty::typo;
use dogmatix_datagen::movie::{movie_description_types, MOVIE_CANDIDATE_PATHS};
use dogmatix_xml::{Document, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The paper's thresholds: `θ_tuple = 0.15`, `θ_cand = 0.55`.
pub const THETA_TUPLE: f64 = 0.15;
pub const THETA_CAND: f64 = 0.55;

/// Salt that derives the seed of the "fresh records" corpus (records
/// that duplicate nothing) from the workload seed.
const FRESH_SALT: u64 = 0x00f5_e5f5_e5f5_e5f5;
/// Entity ids of fresh records start here, far above any corpus id.
const FRESH_EID_BASE: u64 = 1 << 40;
/// Size parameter of the fresh-records corpus.
const FRESH_POOL: usize = 400;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorpusKind {
    /// Dataset 1: CDs, each with one dirty duplicate.
    Cd,
    /// Dataset 2: one movie universe rendered through two sources.
    Movie,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Blocking {
    /// The paper's object filter (prunes candidates, compares the rest
    /// pairwise).
    Object,
    /// `QGramBlocking(2, θ_tuple)`, what `--blocking qgram` runs.
    QGram,
    /// `MinHashLshBlocking(48, 2)`, what `--blocking lsh` runs.
    Lsh,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub corpus: CorpusKind,
    /// Corpus size parameter: CDs before duplication, movies per source.
    pub n: usize,
    pub blocking: Blocking,
    /// Drives a live server instead of the batch pipeline.
    pub serve: bool,
}

/// Every workload the benchmark knows, as named in `BENCHMARK.json`.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch_cd_exhaustive",
        corpus: CorpusKind::Cd,
        n: 400,
        blocking: Blocking::Object,
        serve: false,
    },
    Workload {
        name: "batch_cd_qgram",
        corpus: CorpusKind::Cd,
        n: 800,
        blocking: Blocking::QGram,
        serve: false,
    },
    Workload {
        name: "batch_movie_lsh",
        corpus: CorpusKind::Movie,
        n: 1000,
        blocking: Blocking::Lsh,
        serve: false,
    },
    Workload {
        name: "serve_cd_mixed",
        corpus: CorpusKind::Cd,
        n: 500,
        blocking: Blocking::Lsh,
        serve: true,
    },
];

/// The stage objects a detector was built from, kept so the traced
/// replay can call each layer itself with identical parameters.
pub struct Stages {
    pub selector: HeuristicExpr,
    pub filter: Box<dyn ComparisonFilter>,
    pub measure: SoftIdfMeasure,
    pub classifier: ThresholdClassifier,
    pub clusterer: TransitiveClosure,
}

/// A workload's detector and how it is driven.
pub struct Setup {
    pub dx: Dogmatix,
    pub stages: Stages,
    pub rw_type: &'static str,
    /// The probe index matching the detector's blocking.
    pub probe_blocking: ProbeBlocking,
}

fn build<F: ComparisonFilter + Clone + 'static>(
    mapping: Mapping,
    selector: HeuristicExpr,
    filter: F,
) -> (Dogmatix, Stages) {
    let stages = Stages {
        selector: selector.clone(),
        filter: Box::new(filter.clone()),
        measure: SoftIdfMeasure::new(THETA_TUPLE),
        classifier: ThresholdClassifier::new(THETA_CAND),
        clusterer: TransitiveClosure,
    };
    let dx = Dogmatix::builder()
        .mapping(mapping)
        .theta_tuple(THETA_TUPLE)
        .theta_cand(THETA_CAND)
        .heuristic(selector)
        .filter(filter)
        .measure(stages.measure)
        .classifier(stages.classifier)
        .clusterer(stages.clusterer)
        .threads(1)
        .build();
    (dx, stages)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Candidate paths, in document order of their sections.
    pub fn candidate_paths(&self) -> Vec<&'static str> {
        match self.corpus {
            CorpusKind::Cd => vec![CD_CANDIDATE_PATH],
            CorpusKind::Movie => MOVIE_CANDIDATE_PATHS.to_vec(),
        }
    }

    /// Where probe records live: the first candidate section (probe
    /// records are matched to the first candidate path with their root
    /// element's name).
    pub fn probe_parent(&self) -> &'static str {
        parent_path(self.candidate_paths()[0])
    }

    /// Where scripted inserts go: the last candidate section, so an
    /// inserted object becomes the last candidate.
    pub fn insert_parent(&self) -> &'static str {
        parent_path(self.candidate_paths()[self.candidate_paths().len() - 1])
    }

    pub fn setup(&self) -> Setup {
        let (mapping, rw_type, selector) = match self.corpus {
            CorpusKind::Cd => {
                let mut m = Mapping::new();
                m.add_type("DISC", [CD_CANDIDATE_PATH]);
                (m, "DISC", HeuristicExpr::r_distant_descendants(1))
            }
            CorpusKind::Movie => {
                // Table 6, with `firstname + lastname` as a PERSON
                // composite; the Fig. 6 best-F heuristic.
                let mut m = Mapping::new();
                m.add_type("MOVIE", MOVIE_CANDIDATE_PATHS);
                for (name, paths) in movie_description_types() {
                    m.add_type(name, paths);
                }
                m.add_composite(CompositeRule {
                    owner_path: "/integrated/filmdienst/movie/people/person".to_string(),
                    parts: vec!["firstname".to_string(), "lastname".to_string()],
                    rw_type: "PERSON".to_string(),
                });
                (
                    m,
                    "MOVIE",
                    table4_heuristic(HeuristicExpr::r_distant_descendants(2), 2),
                )
            }
        };
        let qgram = QGramBlocking::new(2, THETA_TUPLE);
        let lsh = MinHashLshBlocking::new(48, 2);
        let ((dx, stages), probe_blocking) = match self.blocking {
            Blocking::Object => (
                build(
                    mapping,
                    selector,
                    ObjectFilter::new(THETA_TUPLE, THETA_CAND),
                ),
                ProbeBlocking::Exhaustive,
            ),
            Blocking::QGram => (build(mapping, selector, qgram), ProbeBlocking::QGram(qgram)),
            Blocking::Lsh => (build(mapping, selector, lsh), ProbeBlocking::Lsh(lsh)),
        };
        Setup {
            dx,
            stages,
            rw_type,
            probe_blocking,
        }
    }

    /// Generates the corpus, its gold standard and a pool of fresh
    /// records from `seed`.
    pub fn generate(&self, seed: u64) -> Data {
        let (doc, gold) = self.dataset(seed, self.n);
        let objects = self.objects(&doc, |i| gold.eid(i));
        let (fresh_doc, fresh_gold) = self.dataset(seed ^ FRESH_SALT, FRESH_POOL);
        let fresh = self.objects(&fresh_doc, |i| FRESH_EID_BASE + fresh_gold.eid(i));
        Data {
            xml: doc.to_xml(),
            objects,
            fresh,
        }
    }

    fn dataset(&self, seed: u64, n: usize) -> (Document, dogmatix_datagen::GoldStandard) {
        match self.corpus {
            CorpusKind::Cd => dogmatix_datagen::datasets::dataset1_sized(seed, n),
            CorpusKind::Movie => dogmatix_datagen::datasets::dataset2_sized(seed, n),
        }
    }

    fn objects(&self, doc: &Document, eid: impl Fn(usize) -> u64) -> Vec<Obj> {
        let mut out = Vec::new();
        for path in self.candidate_paths() {
            let parent = parent_path(path);
            let nodes = doc.select(path).expect("candidate paths are valid XPath");
            for node in nodes {
                let frag =
                    Document::parse(&doc.node_xml(node)).expect("a serialised subtree parses back");
                out.push(Obj {
                    eid: eid(out.len()),
                    parent,
                    frag,
                });
            }
        }
        out
    }
}

fn parent_path(path: &'static str) -> &'static str {
    &path[..path.rfind('/').unwrap_or(0)]
}

/// One object as the generator tracks it.
#[derive(Clone)]
pub struct Obj {
    /// Entity id: equal ids are true duplicates.
    pub eid: u64,
    /// Absolute path of the element the object lives under.
    pub parent: &'static str,
    /// The object's current XML, parsed.
    pub frag: Document,
}

impl Obj {
    pub fn xml(&self) -> String {
        let root = self.frag.root_element().expect("fragments have a root");
        self.frag.node_xml(root)
    }

    /// Text-bearing elements below the root: `(relative path,
    /// occurrence among matches of that path, node)`.
    fn text_fields(&self) -> Vec<(String, usize, NodeId)> {
        let root = self.frag.root_element().expect("fragments have a root");
        let mut seen: HashMap<String, usize> = HashMap::new();
        let mut out = Vec::new();
        for node in self.frag.descendant_elements(root) {
            let has_text = self
                .frag
                .direct_text(node)
                .is_some_and(|t| !t.trim().is_empty());
            if !has_text {
                continue;
            }
            let mut names: Vec<&str> = vec![self.frag.name(node).unwrap_or_default()];
            let mut up = self.frag.parent(node);
            while let Some(p) = up {
                if p == root {
                    break;
                }
                names.push(self.frag.name(p).unwrap_or_default());
                up = self.frag.parent(p);
            }
            names.reverse();
            let rel = names.join("/");
            let occ = seen.entry(rel.clone()).or_default();
            out.push((rel, *occ, node));
            *occ += 1;
        }
        out
    }

    /// Applies one typo to a random text field among `allowed` relative
    /// paths (all when empty); returns `(path, occurrence, new value)`.
    fn typo_field(
        &mut self,
        allowed: &[&str],
        rng: &mut StdRng,
    ) -> Option<(String, usize, String)> {
        let fields: Vec<_> = self
            .text_fields()
            .into_iter()
            .filter(|(rel, _, _)| allowed.is_empty() || allowed.contains(&rel.as_str()))
            .collect();
        if fields.is_empty() {
            return None;
        }
        let (rel, occ, node) = fields[rng.gen_range(0..fields.len())].clone();
        let old = self.frag.direct_text(node).unwrap_or_default();
        let old = old.trim();
        // The delta grammar trims values, so a typo that creates outer
        // whitespace is redrawn.
        let mut new = typo(old, rng);
        while new.trim() != new || new.is_empty() || new == old {
            new = typo(old, rng);
        }
        self.frag.set_text(node, &new);
        Some((rel, occ, new))
    }

    /// A dirty copy: the same entity with one or two typos.
    fn dirty_copy(&self, rng: &mut StdRng) -> Obj {
        let mut copy = self.clone();
        for _ in 0..rng.gen_range(1..3usize) {
            copy.typo_field(&[], rng);
        }
        copy
    }
}

/// Everything generated for one workload seed.
pub struct Data {
    /// The corpus as XML text.
    pub xml: String,
    /// The corpus objects in candidate order.
    pub objects: Vec<Obj>,
    /// Records that duplicate nothing in the corpus.
    pub fresh: Vec<Obj>,
}

impl Data {
    pub fn eids(&self) -> Vec<u64> {
        self.objects.iter().map(|o| o.eid).collect()
    }

    /// `count` probe records, alternating dirty copies of corpus objects
    /// under `parent` (hits) and fresh records under it (misses).
    pub fn probes(&self, parent: &str, count: usize, rng: &mut StdRng) -> Vec<String> {
        let hits: Vec<&Obj> = self.objects.iter().filter(|o| o.parent == parent).collect();
        let misses: Vec<&Obj> = self.fresh.iter().filter(|o| o.parent == parent).collect();
        (0..count)
            .map(|i| {
                if i % 2 == 0 {
                    hits[rng.gen_range(0..hits.len())].dirty_copy(rng).xml()
                } else {
                    misses[rng.gen_range(0..misses.len())].xml()
                }
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaClass {
    Update,
    Insert,
    Remove,
}

impl DeltaClass {
    pub const ALL: [DeltaClass; 3] = [DeltaClass::Update, DeltaClass::Insert, DeltaClass::Remove];

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One scripted delta: the `INGEST` line and its effect on the objects'
/// entity ids (for the gold standard of later states).
#[derive(Debug, Clone)]
pub struct Step {
    pub line: String,
    pub class: DeltaClass,
    /// Entity id of an inserted object.
    pub inserted: Option<u64>,
    /// Candidate index of a removed object.
    pub removed: Option<usize>,
}

/// Entity ids of the candidates after applying `steps` to `eids`.
pub fn eids_after(mut eids: Vec<u64>, steps: &[Step]) -> Vec<u64> {
    for s in steps {
        if let Some(e) = s.inserted {
            eids.push(e);
        }
        if let Some(i) = s.removed {
            eids.remove(i);
        }
    }
    eids
}

/// Writes a seeded delta script over `data`'s objects.
///
/// * `update`: one typo in a field among `update_fields` (all fields
///   when empty) of a random object;
/// * `insert`: under `insert_parent`, alternately a dirty copy of an
///   object living there and a fresh record (each fresh record is used
///   once, so it never duplicates anything);
/// * `remove`: a random object.
///
/// Inserted objects join the end of the candidate order, so
/// `insert_parent` must hold the last candidate section.
pub fn script(
    data: &Data,
    classes: impl Iterator<Item = DeltaClass>,
    update_fields: &[&str],
    insert_parent: &'static str,
    rng: &mut StdRng,
) -> Vec<Step> {
    let mut objects = data.objects.clone();
    let mut fresh = data.fresh.iter().filter(|o| o.parent == insert_parent);
    let mut inserts = 0usize;
    let mut steps = Vec::new();
    for class in classes {
        let step = match class {
            DeltaClass::Update => {
                let i = rng.gen_range(0..objects.len());
                let Some((rel, occ, value)) = objects[i].typo_field(update_fields, rng) else {
                    continue;
                };
                Step {
                    line: format!("update {i} {rel} {occ} {value}"),
                    class,
                    inserted: None,
                    removed: None,
                }
            }
            DeltaClass::Insert => {
                inserts += 1;
                let fresh_obj = if inserts.is_multiple_of(2) {
                    fresh.next()
                } else {
                    None
                };
                let obj = match fresh_obj {
                    Some(f) => f.clone(),
                    None => {
                        let sources: Vec<usize> = (0..objects.len())
                            .filter(|&i| objects[i].parent == insert_parent)
                            .collect();
                        objects[sources[rng.gen_range(0..sources.len())]].dirty_copy(rng)
                    }
                };
                let step = Step {
                    line: format!("insert {insert_parent} {}", obj.xml()),
                    class,
                    inserted: Some(obj.eid),
                    removed: None,
                };
                objects.push(obj);
                step
            }
            DeltaClass::Remove => {
                let i = rng.gen_range(0..objects.len());
                objects.remove(i);
                Step {
                    line: format!("remove {i}"),
                    class,
                    inserted: None,
                    removed: Some(i),
                }
            }
        };
        steps.push(step);
    }
    steps
}

/// The ingest mix — 70 % updates, 20 % inserts, 10 % removes — as a
/// fixed cycle, so every prefix a run acknowledges has nearly the same
/// mix whatever the seed (which objects and fields change is seeded).
pub fn mixed_classes(len: usize) -> Vec<DeltaClass> {
    use DeltaClass::{Insert as I, Remove as R, Update as U};
    const CYCLE: [DeltaClass; 10] = [U, U, I, U, U, R, U, I, U, U];
    CYCLE.iter().copied().cycle().take(len).collect()
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}
