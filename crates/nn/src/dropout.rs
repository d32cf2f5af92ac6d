//! Inverted dropout.

use crate::NnError;
use opad_par::Rng;
use opad_telemetry::JsonValue;
use opad_tensor::Tensor;

/// Inverted dropout: during training each unit is kept with probability
/// `1 − rate` and scaled by `1/(1 − rate)`; at inference the layer is the
/// identity.
///
/// The layer owns its RNG (seeded at construction) so training runs are
/// reproducible without threading a generator through every forward call.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    rng: Rng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer dropping each unit with probability `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] unless `0 ≤ rate < 1`.
    pub fn new(rate: f32, seed: u64) -> Result<Self, NnError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(NnError::InvalidConfig {
                reason: format!("dropout rate must be in [0, 1), got {rate}"),
            });
        }
        Ok(Dropout {
            rate,
            rng: Rng::seed_from_u64(seed),
            cached_mask: None,
        })
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Immutable inference pass: dropout is the identity outside training.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        x.clone()
    }

    /// Forward pass; samples and caches a fresh mask when `training`.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        if !training || self.rate == 0.0 {
            return x.clone();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mask = Tensor::from_fn(x.dims(), |_| {
            if self.rng.gen_f32() < keep {
                scale
            } else {
                0.0
            }
        });
        let y = x.checked_mul(&mask).expect("mask matches x shape");
        self.cached_mask = Some(mask);
        y
    }

    /// Backward pass: multiplies by the cached mask.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] when no mask is cached.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .cached_mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Dropout" })?;
        Ok(grad_out.checked_mul(mask)?)
    }

    /// Drops the cached mask.
    pub fn clear_cache(&mut self) {
        self.cached_mask = None;
    }

    /// The rate and the mask generator's four state words as JSON, so a
    /// restored layer draws the masks the original would have drawn next.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("rate", self.rate.into()),
            ("rng", JsonValue::arr(self.rng.state())),
        ])
    }

    /// Reads [`Dropout::to_json`] output.
    ///
    /// # Errors
    ///
    /// When the rate is invalid or the generator state is missing, is not
    /// four words, or is all zero.
    pub(crate) fn from_json(v: &JsonValue) -> Result<Self, String> {
        let mut layer = Dropout::new(v.field("rate")?.to_f32()?, 0).map_err(|e| e.to_string())?;
        let words: [u64; 4] = v
            .field("rng")?
            .to_vec(JsonValue::to_u64)?
            .try_into()
            .map_err(|w: Vec<u64>| format!("dropout rng state has {} words, not 4", w.len()))?;
        layer.rng = Rng::from_state(words).ok_or("dropout rng state is all zero")?;
        Ok(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_validation() {
        assert!(Dropout::new(-0.1, 0).is_err());
        assert!(Dropout::new(1.0, 0).is_err());
        assert!(Dropout::new(0.5, 0).is_ok());
        assert_eq!(Dropout::new(0.3, 0).unwrap().rate(), 0.3);
    }

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.9, 1).unwrap();
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(d.forward(&x, false), x);
    }

    #[test]
    fn zero_rate_is_identity_even_training() {
        let mut d = Dropout::new(0.0, 1).unwrap();
        let x = Tensor::ones(&[4]);
        assert_eq!(d.forward(&x, true), x);
    }

    #[test]
    fn training_preserves_expectation() {
        let mut d = Dropout::new(0.5, 7).unwrap();
        let x = Tensor::ones(&[10000]);
        let y = d.forward(&x, true);
        // E[y] = 1; inverted dropout rescales survivors.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Survivors are scaled by 2, dropped are 0.
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3).unwrap();
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::ones(&[100])).unwrap();
        // Gradient flows exactly where the forward survived.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut d = Dropout::new(0.5, 3).unwrap();
        assert!(d.backward(&Tensor::ones(&[2])).is_err());
        d.forward(&Tensor::ones(&[2]), true);
        d.clear_cache();
        assert!(d.backward(&Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn seeded_masks_are_deterministic() {
        let mut d1 = Dropout::new(0.5, 42).unwrap();
        let mut d2 = Dropout::new(0.5, 42).unwrap();
        let x = Tensor::ones(&[64]);
        assert_eq!(d1.forward(&x, true), d2.forward(&x, true));
    }
}
