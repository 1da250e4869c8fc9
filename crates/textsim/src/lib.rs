#![warn(missing_docs)]

//! # dogmatix-textsim
//!
//! String-similarity substrate for the DogmatiX reproduction
//! (Weis & Naumann, *DogmatiX Tracks down Duplicates in XML*, SIGMOD 2005).
//!
//! The paper's OD-tuple distance (Definition 7) is the Levenshtein edit
//! distance normalised by the longer string's length. Computing it naively
//! for every pair of OD tuples is "a very expensive operation" (Section 5.1),
//! so the authors combine it with cheap upper and lower bounds from their
//! earlier work \[18\]. This crate provides:
//!
//! * [`kernel`] — the pluggable [`kernel::EditDistanceKernel`] seam: the
//!   scalar banded DP and Myers' bit-parallel algorithm as swappable,
//!   bit-identical bounded-distance kernels,
//! * [`myers`] — the bit-parallel recurrence itself (u64 blocks,
//!   multi-block for patterns >64 scalar values),
//! * [`levenshtein()`] / [`levenshtein_bounded`] — exact and banded
//!   (early-exit) edit distance over Unicode scalar values,
//! * [`ned()`] / [`ned_within`] — the normalised edit distance of Definition 7
//!   with bound-based pruning, wrapped over the default kernel,
//! * [`bounds`] — length and bag-distance lower bounds used for pruning,
//! * [`idf()`] — inverse document frequency helpers underlying `softIDF`
//!   (Definition 8),
//! * [`jaro()`], [`jaccard`], [`tokenize`] — alternative measures used by the
//!   ablation benchmarks,
//! * [`minhash`] — deterministic MinHash signatures and banded LSH keys
//!   backing the blocking filters,
//! * [`normalize`] — value normalisation applied before comparison.
//!
//! Everything here is deterministic and allocation-conscious: the hot
//! [`ned_within`] path is allocation-free after warm-up — DP rows,
//! pattern bitmasks and bound tables all live in reusable scratch
//! (per-thread for the wrappers, caller-owned for batch kernels).

pub mod bounds;
pub mod idf;
pub mod jaccard;
pub mod jaro;
pub mod kernel;
pub mod levenshtein;
pub mod minhash;
pub mod myers;
pub mod ned;
pub mod normalize;
pub mod tokenize;

pub use bounds::{
    bag_distance_lower_bound, bag_distance_lower_bound_with, length_lower_bound, BoundsScratch,
};
pub use idf::{idf, soft_idf};
pub use jaccard::{jaccard_tokens, overlap_coefficient};
pub use jaro::{jaro, jaro_winkler};
pub use kernel::{BitParallelKernel, EditDistanceKernel, KernelScratch, ScalarKernel};
pub use levenshtein::{levenshtein, levenshtein_bounded};
pub use minhash::{
    band_keys, band_keys_into, minhash_signature, minhash_signature_into, mix64, token_hash, Fnv1a,
};
pub use ned::{ned, ned_within, strict_cap};
pub use normalize::{normalize_value, normalize_value_into};
pub use tokenize::{
    char_ngrams, positional_qgram_hashes_into, positional_qgrams, word_token_hashes_into,
    word_tokens,
};
