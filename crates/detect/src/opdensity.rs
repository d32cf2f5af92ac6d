//! The paper's own detector: operational-profile density ("naturalness").
//!
//! Zhao et al. flag inputs that are *operationally unnatural* — low
//! density under the learned OP — because an AE the deployed system will
//! never encounter contributes nothing to operational unreliability. This
//! wrapper turns any prefit [`Density`] into a [`Detector`] so the OP
//! signal competes in the same ROC harness as the literature detectors,
//! and so it can guide `opad-attack`'s `Pgd`: the naturalness-guided
//! fuzzer is PGD guided by this detector.

use crate::{DetectError, Detector};
use opad_data::Dataset;
use opad_opmodel::Density;

/// Negated OP log-density as a suspicion score (higher = less natural =
/// more adversarial).
///
/// The density is fitted *before* wrapping (by `opmodel`'s estimators),
/// so `fit` only validates dimensions and `merge` requires both shards to
/// wrap the same fitted density.
#[derive(Debug, Clone, PartialEq)]
pub struct OpDensityDetector<D> {
    density: D,
}

impl<D> OpDensityDetector<D> {
    /// Wraps a prefit density.
    pub fn new(density: D) -> Self {
        OpDensityDetector { density }
    }

    /// The wrapped density.
    pub fn density(&self) -> &D {
        &self.density
    }

    /// Unwraps the density.
    pub fn into_inner(self) -> D {
        self.density
    }
}

impl<D: Density + PartialEq> Detector for OpDensityDetector<D> {
    fn name(&self) -> &'static str {
        "op_density"
    }

    fn dim(&self) -> usize {
        self.density.dim()
    }

    fn fit(&mut self, clean: &Dataset) -> Result<(), DetectError> {
        if clean.is_empty() {
            return Err(DetectError::DegenerateInput {
                reason: "cannot fit op-density on an empty dataset".into(),
            });
        }
        if clean.feature_dim() != self.density.dim() {
            return Err(DetectError::DimensionMismatch {
                expected: self.density.dim(),
                actual: clean.feature_dim(),
            });
        }
        // The density is prefit; the clean data only re-confirms the
        // schema.
        opad_telemetry::counter_add("detector.fit_rows", clean.len() as u64);
        Ok(())
    }

    fn merge(&mut self, other: &Self) -> Result<(), DetectError> {
        if self.density != other.density {
            return Err(DetectError::MergeMismatch {
                reason: "op-density shards wrap different fitted densities".into(),
            });
        }
        opad_telemetry::counter_add("detector.merges", 1);
        Ok(())
    }

    fn score(&self, x: &[f32]) -> Result<f64, DetectError> {
        Ok(-self.density.log_density(x)?)
    }

    fn score_gradient(&self, x: &[f32]) -> Result<Vec<f32>, DetectError> {
        let mut g = self.density.grad_log_density(x)?;
        for v in &mut g {
            *v = -*v;
        }
        Ok(g)
    }
}
