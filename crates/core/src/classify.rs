//! Duplicate classification (framework Section 2.2, Definition 6).
//!
//! Pairs of candidates are classified into classes `Γ = {C0, C1, …}`,
//! where `C0` is reserved for non-duplicates. DogmatiX uses the
//! thresholded classifier of Definition 6 (`sim > θ_cand → C1`); a
//! three-class variant with a "possible duplicates" band (`C2`, reviewed
//! by a domain expert per the paper's Step 5 discussion) is provided too.
//!
//! Both classifiers plug into the pipeline as
//! [`crate::stage::PairClassifier`] stages; pairs landing
//! in `C2` surface in
//! [`DetectionResult::possible_pairs`](crate::pipeline::DetectionResult::possible_pairs).

use crate::error::DogmatixError;
use crate::pipeline::check_threshold;
use crate::stage::PairClassifier;

/// Classification outcome for a candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `C0` — not duplicates.
    NonDuplicate,
    /// `C1` — duplicates.
    Duplicate,
    /// `C2` — possible duplicates, subject to expert review.
    Possible,
}

/// The thresholded XML duplicate classifier (Definition 6), optionally
/// extended with a `C2` band: pairs with
/// `possible_band ≤ sim ≤ θ_cand` are "possible duplicates".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdClassifier {
    /// `θ_cand` — similarity above this is a duplicate (paper: 0.55).
    pub theta_cand: f64,
    /// Optional lower bound of the `C2` band. `None` disables `C2`.
    pub possible_band: Option<f64>,
}

impl ThresholdClassifier {
    /// Two-class classifier with the given `θ_cand`.
    ///
    /// Debug builds assert the audited invariant that the threshold is
    /// a similarity in `[0, 1]`; release builds accept any value
    /// unchanged (use [`DualThreshold::new`] for checked construction).
    pub fn new(theta_cand: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&theta_cand),
            "θ_cand must be a similarity in [0, 1], got {theta_cand}"
        );
        ThresholdClassifier {
            theta_cand,
            possible_band: None,
        }
    }

    /// Three-class classifier: `sim > θ_cand → C1`,
    /// `possible ≤ sim ≤ θ_cand → C2`, below → `C0`.
    pub fn with_possible_band(theta_cand: f64, possible: f64) -> Self {
        ThresholdClassifier {
            theta_cand,
            possible_band: Some(possible),
        }
    }

    /// Classifies a similarity value (Equation 1: strict `>`).
    pub fn classify(&self, sim: f64) -> Class {
        if sim > self.theta_cand {
            Class::Duplicate
        } else if matches!(self.possible_band, Some(lo) if sim >= lo) {
            Class::Possible
        } else {
            Class::NonDuplicate
        }
    }
}

impl PairClassifier for ThresholdClassifier {
    fn classify(&self, sim: f64) -> Class {
        ThresholdClassifier::classify(self, sim)
    }
}

/// A dual-threshold classifier with an explicit *unknown zone*: pairs
/// above `theta_dup` are duplicates (`C1`), pairs in
/// `(theta_unknown, theta_dup]` are possible duplicates (`C2`, to be
/// reviewed by a domain expert), pairs at or below `theta_unknown` are
/// non-duplicates (`C0`).
///
/// Unlike [`ThresholdClassifier::with_possible_band`]'s optional band,
/// the unknown zone is mandatory here and both bounds are strict on the
/// low side, so the three classes partition `[0, 1]` without overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualThreshold {
    /// Upper threshold: `sim > theta_dup` is a duplicate.
    pub theta_dup: f64,
    /// Lower threshold: `theta_unknown < sim ≤ theta_dup` is unknown.
    pub theta_unknown: f64,
}

impl DualThreshold {
    /// Creates the classifier, validating the construction: both
    /// thresholds must lie in `[0, 1]` and `theta_unknown` must not
    /// exceed `theta_dup` — an inverted pair used to be silently clamped
    /// into an empty unknown zone, which masked swapped-argument bugs.
    pub fn new(theta_dup: f64, theta_unknown: f64) -> Result<Self, DogmatixError> {
        check_threshold("theta_dup", theta_dup)?;
        check_threshold("theta_unknown", theta_unknown)?;
        if theta_unknown > theta_dup {
            return Err(DogmatixError::Config {
                message: format!(
                    "theta_unknown ({theta_unknown}) must not exceed theta_dup \
                     ({theta_dup}): the unknown zone would be empty \
                     (arguments swapped?)"
                ),
            });
        }
        Ok(DualThreshold {
            theta_dup,
            theta_unknown,
        })
    }
}

impl PairClassifier for DualThreshold {
    fn classify(&self, sim: f64) -> Class {
        if sim > self.theta_dup {
            Class::Duplicate
        } else if sim > self.theta_unknown {
            Class::Possible
        } else {
            Class::NonDuplicate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "similarity in [0, 1]")]
    fn out_of_range_threshold_trips_the_audit_in_debug() {
        let _ = ThresholdClassifier::new(1.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "similarity in [0, 1]")]
    fn nan_threshold_trips_the_audit_in_debug() {
        let _ = ThresholdClassifier::new(f64::NAN);
    }

    #[test]
    fn two_class_threshold_is_strict() {
        let c = ThresholdClassifier::new(0.55);
        assert_eq!(c.classify(0.551), Class::Duplicate);
        assert_eq!(c.classify(0.55), Class::NonDuplicate, "Eq. 1 uses >");
        assert_eq!(c.classify(0.0), Class::NonDuplicate);
        assert_eq!(c.classify(1.0), Class::Duplicate);
    }

    #[test]
    fn three_class_band() {
        let c = ThresholdClassifier::with_possible_band(0.7, 0.4);
        assert_eq!(c.classify(0.9), Class::Duplicate);
        assert_eq!(c.classify(0.55), Class::Possible);
        assert_eq!(c.classify(0.4), Class::Possible);
        assert_eq!(c.classify(0.39), Class::NonDuplicate);
    }

    #[test]
    fn dual_threshold_partitions_the_unit_interval() {
        let c = DualThreshold::new(0.55, 0.3).unwrap();
        assert_eq!(PairClassifier::classify(&c, 0.56), Class::Duplicate);
        assert_eq!(PairClassifier::classify(&c, 0.55), Class::Possible);
        assert_eq!(PairClassifier::classify(&c, 0.31), Class::Possible);
        assert_eq!(PairClassifier::classify(&c, 0.3), Class::NonDuplicate);
        assert_eq!(PairClassifier::classify(&c, 0.0), Class::NonDuplicate);
    }

    #[test]
    fn dual_threshold_rejects_inverted_and_out_of_range_thresholds() {
        // Regression: an inverted pair used to be clamped silently; it
        // must now fail loudly with a configuration error.
        let err = DualThreshold::new(0.4, 0.9).unwrap_err();
        assert!(matches!(err, DogmatixError::Config { .. }));
        assert!(err.to_string().contains("swapped"), "{err}");
        for (dup, unknown) in [(-0.1, 0.0), (1.5, 0.2), (0.5, f64::NAN), (f64::NAN, 0.1)] {
            assert!(
                DualThreshold::new(dup, unknown).is_err(),
                "({dup}, {unknown}) must be rejected"
            );
        }
        // The boundary cases stay constructible.
        assert!(DualThreshold::new(0.5, 0.5).is_ok());
        assert!(DualThreshold::new(1.0, 0.0).is_ok());
    }

    #[test]
    fn trait_and_inherent_classify_agree() {
        let c = ThresholdClassifier::with_possible_band(0.7, 0.4);
        for sim in [0.0, 0.39, 0.4, 0.55, 0.7, 0.71, 1.0] {
            assert_eq!(
                PairClassifier::classify(&c, sim),
                ThresholdClassifier::classify(&c, sim)
            );
        }
    }
}
