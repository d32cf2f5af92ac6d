//! # opad-attack
//!
//! Adversarial test-case generation for the *opad* toolkit: the cited
//! state-of-the-art baselines and the paper's proposed naturalness-guided
//! fuzzer (RQ3).
//!
//! * [`NormBall`] — L∞/L2 perturbation regions with projection, sampling
//!   and steepest-ascent directions;
//! * attacks behind the common [`Attack`] trait: [`Fgsm`] (one unprojected
//!   step), [`RandomFuzz`] (gradient-free black-box baseline) and [`Pgd`]
//!   (Madry et al., the paper's reference attack), the one gradient walk.
//!   [`Pgd::guided_by`] adds a detector's score to its objective,
//!   `CE − w·score(x)`: guided by the `opad-detect` zoo's
//!   `OpDensityDetector` (negated OP log-density, the paper's "local OP")
//!   it is the naturalness-guided fuzzer, and [`Pgd::with_min_naturalness`]
//!   sets its acceptance bar τ; guided by any other detector it is the
//!   Carlini–Wagner adaptive attack, for honest detector evaluation.
//!
//! # Examples
//!
//! ```
//! use opad_attack::{Attack, NormBall, Pgd};
//! use opad_nn::{Activation, Network};
//! use opad_tensor::Tensor;
//!
//! let mut rng = opad_par::Rng::seed_from_u64(0);
//! let mut net = Network::mlp(&[2, 8, 2], Activation::Relu, &mut rng)?;
//! let pgd = Pgd::new(NormBall::linf(0.1)?, 10, 0.02)?;
//! let seed = Tensor::from_slice(&[0.3, -0.2]);
//! let outcome = pgd.run(&mut net, &seed, 0, &mut rng)?;
//! assert!(outcome.queries > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod bench;
mod error;
mod fgsm;
mod norm;
mod outcome;
mod pgd;
mod random_fuzz;

pub use bench::AttackBenches;
pub use error::AttackError;
pub use fgsm::Fgsm;
pub use norm::NormBall;
pub use outcome::{Attack, AttackOutcome};
pub use pgd::Pgd;
pub use random_fuzz::RandomFuzz;

// Unit suites of the guided walk, one per job its guide does: evading the
// detector it attacks, fuzzing toward the operational profile, and the
// naturalness `−score(x)` the guides report. They hold no other code.
mod adaptive;
mod natural_fuzz;
mod naturalness;

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared victims and guides for attack tests.

    use opad_detect::OpDensityDetector;
    use opad_nn::{
        Activation, ActivationLayer, Dense, Layer, Network, Optimizer, TrainConfig, Trainer,
    };
    use opad_opmodel::{Gmm, GmmComponent};
    use opad_par::Rng;
    use opad_tensor::Tensor;

    pub fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    /// A one-component OP centred at `mean`: as a guide, its score is the
    /// negated log-density.
    pub fn op_guide(mean: [f32; 2], std: f64) -> OpDensityDetector<Gmm> {
        OpDensityDetector::new(
            Gmm::from_components(vec![GmmComponent {
                weight: 1.0,
                mean: mean.to_vec(),
                std,
            }])
            .unwrap(),
        )
    }

    /// A fixed linear victim: logits = (−x₀, x₀), i.e. class 1 iff x₀ > 0.
    pub fn linear_victim() -> Network {
        let w = Tensor::from_vec(vec![-1.0, 1.0, 0.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::zeros(&[2]);
        Network::new(vec![Layer::Dense(Dense::from_params(w, b).unwrap())]).unwrap()
    }

    /// A small MLP trained on two overlapping clusters, so it has a curved
    /// boundary and real (nonzero) gradients everywhere.
    pub fn trained_victim() -> Network {
        let mut r = rng();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let cls = i % 2;
            let cx = if cls == 0 { -0.6 } else { 0.6 };
            rows.push(Tensor::rand_normal(&[2], cx, 0.5, &mut r));
            labels.push(cls);
        }
        let x = Tensor::stack_rows(&rows).unwrap();
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(2, 16, &mut r)),
            Layer::Activation(ActivationLayer::new(Activation::Tanh)),
            Layer::Dense(Dense::new(16, 2, &mut r)),
        ])
        .unwrap();
        let mut trainer = Trainer::new(TrainConfig::new(30, 32), Optimizer::adam(0.01));
        trainer.fit(&mut net, &x, &labels, None, &mut r).unwrap();
        net
    }
}
