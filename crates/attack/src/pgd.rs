//! Projected gradient descent (Madry et al., ICLR'18) — the paper's cited
//! state-of-the-art attack, and the one gradient walk behind the paper's
//! naturalness-guided fuzzer (RQ3) and the detector-aware adaptive attack.

use crate::outcome::{check_seed, grad_one, predict_one};
use crate::{Attack, AttackError, AttackOutcome, NormBall};
use opad_detect::Detector;
use opad_nn::Network;
use opad_par::Rng;
use opad_telemetry as telemetry;
use opad_tensor::Tensor;
use std::fmt;

/// Projected gradient descent: iterated steepest-ascent steps, projected
/// back onto the norm ball after every step, with optional random
/// restarts, momentum and a detector guide.
///
/// Each step ascends `CE(f(x), y) − w·score(x)`, where `score` is the
/// suspicion score of the guide set by [`Pgd::guided_by`] (`w = 0`
/// without one):
///
/// * guided by an [`OpDensityDetector`](opad_detect::OpDensityDetector),
///   whose score is the negated OP log-density, this is the paper's
///   naturalness-guided fuzzer (RQ3): loss + λ·log p, with λ = w;
/// * guided by any other detector, it is Carlini & Wagner's adaptive
///   attack on that detector ("Adversarial Examples Are Not Easily
///   Detected", AISec 2017).
///
/// With a naturalness bar τ ([`Pgd::with_min_naturalness`]), a
/// misclassified iterate is accepted only when its naturalness
/// `−score(x)` is at least τ: the paper's operational AE. A run whose last
/// iterate is misclassified but unnatural reports the seed instead, and
/// succeeds only if the seed is misclassified and clears τ itself.
///
/// Restart 0 starts at the seed unless random start is on (the default);
/// later restarts start at a random point in the ball. The run stops at
/// the first accepted AE. Queries count one per gradient and one per
/// prediction, plus one final prediction for each restart that ends
/// without an accepted AE and one for the seed when a rejected candidate
/// falls back to it. Guide gradients are not model queries.
///
/// # Examples
///
/// ```
/// use opad_attack::{NormBall, Pgd};
///
/// let pgd = Pgd::new(NormBall::linf(0.1)?, 20, 0.02)?.with_restarts(3);
/// assert_eq!(pgd.steps(), 20);
/// # Ok::<(), opad_attack::AttackError>(())
/// ```
#[derive(Clone)]
pub struct Pgd<'a> {
    ball: NormBall,
    steps: usize,
    step_size: f32,
    random_start: bool,
    restarts: usize,
    clip: Option<(f32, f32)>,
    momentum: f32,
    guide: Option<(&'a (dyn Detector + Sync), f32)>,
    min_naturalness: Option<f64>,
}

impl<'a> Pgd<'a> {
    /// Creates a PGD attack inside `ball`, running `steps` iterations of
    /// size `step_size`.
    ///
    /// # Errors
    ///
    /// Fails on zero steps or a non-positive step size.
    pub fn new(ball: NormBall, steps: usize, step_size: f32) -> Result<Self, AttackError> {
        if steps == 0 {
            return Err(AttackError::InvalidConfig {
                reason: "steps must be nonzero".into(),
            });
        }
        if step_size <= 0.0 || !step_size.is_finite() {
            return Err(AttackError::InvalidConfig {
                reason: format!("step size must be positive, got {step_size}"),
            });
        }
        Ok(Pgd {
            ball,
            steps,
            step_size,
            random_start: true,
            restarts: 1,
            clip: None,
            momentum: 0.0,
            guide: None,
            min_naturalness: None,
        })
    }

    /// Enables or disables the random start of restart 0.
    pub fn with_random_start(mut self, random_start: bool) -> Self {
        self.random_start = random_start;
        self
    }

    /// Number of restarts (≥1); the run stops at the first accepted AE.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Constrains candidates to the valid input range `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Fails when `lo >= hi`.
    pub fn with_clip(mut self, lo: f32, hi: f32) -> Result<Self, AttackError> {
        if lo >= hi {
            return Err(AttackError::InvalidConfig {
                reason: format!("clip range [{lo}, {hi}] is empty"),
            });
        }
        self.clip = Some((lo, hi));
        Ok(self)
    }

    /// Enables momentum accumulation on the gradient direction
    /// (MI-FGSM, Dong et al.): `g ← μ·g + ∇/‖∇‖₁`. `mu = 0` disables.
    ///
    /// # Errors
    ///
    /// Fails for negative or non-finite `mu`.
    pub fn with_momentum(mut self, mu: f32) -> Result<Self, AttackError> {
        if mu < 0.0 || !mu.is_finite() {
            return Err(AttackError::InvalidConfig {
                reason: format!("momentum must be nonnegative and finite, got {mu}"),
            });
        }
        self.momentum = mu;
        Ok(self)
    }

    /// Guides every step by `detector`: the walk ascends
    /// `CE − weight·score(x)`. With `weight = 0` the steps are plain PGD's,
    /// and the guide only scores candidates against a naturalness bar.
    ///
    /// # Errors
    ///
    /// Fails for a negative or non-finite `weight`.
    pub fn guided_by(
        mut self,
        detector: &'a (dyn Detector + Sync),
        weight: f32,
    ) -> Result<Self, AttackError> {
        if weight < 0.0 || !weight.is_finite() {
            return Err(AttackError::InvalidConfig {
                reason: format!("guide weight must be nonnegative and finite, got {weight}"),
            });
        }
        self.guide = Some((detector, weight));
        Ok(self)
    }

    /// Accepts a misclassified iterate only when its naturalness
    /// `−score(x)` under the guide is at least `tau` (a log-density bar
    /// for an `OpDensityDetector` guide).
    ///
    /// # Errors
    ///
    /// Fails when no guide is set: call [`Pgd::guided_by`] first.
    pub fn with_min_naturalness(mut self, tau: f64) -> Result<Self, AttackError> {
        if self.guide.is_none() {
            return Err(AttackError::InvalidConfig {
                reason: "a naturalness bar needs a guide to score it".into(),
            });
        }
        self.min_naturalness = Some(tau);
        Ok(self)
    }

    /// The perturbation ball.
    pub fn ball(&self) -> NormBall {
        self.ball
    }

    /// Iterations per restart.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Targeted variant: *descends* the loss toward `target` (and, when
    /// guided, the guide's score) until the model predicts `target`.
    /// Success means the candidate is classified as `target`.
    ///
    /// # Errors
    ///
    /// Fails on bad seeds or network errors.
    pub fn run_targeted(
        &self,
        net: &mut Network,
        seed: &Tensor,
        target: usize,
        rng: &mut Rng,
    ) -> Result<AttackOutcome, AttackError> {
        self.walk(net, seed, target, true, rng)
    }

    fn clip(&self, x: Tensor) -> Tensor {
        match self.clip {
            Some((lo, hi)) => x.clamp(lo, hi),
            None => x,
        }
    }

    /// Whether a misclassified iterate, or the seed a run falls back to,
    /// clears the naturalness bar. Each point is scored, and its score
    /// recorded, at most once.
    fn natural_enough(&self, x: &Tensor) -> Result<bool, AttackError> {
        let (Some(tau), Some((guide, _))) = (self.min_naturalness, self.guide) else {
            return Ok(true);
        };
        let naturalness = -guide.score(x.as_slice())?;
        telemetry::histogram_record("attack.fuzz.naturalness", naturalness);
        let natural = naturalness >= tau;
        if !natural {
            telemetry::counter_add("attack.fuzz.rejected_unnatural", 1);
        }
        Ok(natural)
    }

    /// The one step loop. An untargeted walk ascends the objective until
    /// the prediction leaves `label`; a targeted walk descends it until the
    /// prediction is `label`. Descent is the ascent step with its sign
    /// flipped, and IEEE negation is exact, so both run the same
    /// arithmetic.
    fn walk(
        &self,
        net: &mut Network,
        seed: &Tensor,
        label: usize,
        targeted: bool,
        rng: &mut Rng,
    ) -> Result<AttackOutcome, AttackError> {
        check_seed(seed)?;
        let hit = |pred: usize| (pred == label) == targeted;
        let sign = if targeted { -1.0 } else { 1.0 };
        let mut queries = 0usize;
        let mut x = seed.clone();
        let mut pred = label;
        let mut accepted = false;
        for restart in 0..self.restarts {
            if restart > 0 || self.random_start {
                x = self.clip(self.ball.sample(seed, rng));
            }
            let mut velocity = Tensor::zeros(seed.dims());
            for _ in 0..self.steps {
                telemetry::counter_add("attack.fuzz.proposals", 1);
                let (_, mut g) = grad_one(net, &x, label)?;
                queries += 1;
                if let Some((guide, w)) = self.guide.filter(|&(_, w)| w > 0.0) {
                    let g_score = Tensor::from_vec(guide.score_gradient(x.as_slice())?, x.dims())?;
                    g = g.checked_sub(&g_score.scale(sign * w))?;
                }
                if self.momentum > 0.0 {
                    velocity = velocity.scale(self.momentum);
                    velocity.axpy(1.0 / g.norm_l1().max(1e-12), &g)?;
                    g = velocity.clone();
                }
                let step = self.ball.steepest_step(&g).scale(sign * self.step_size);
                x = self.clip(self.ball.project(seed, &x.checked_add(&step)?)?);
                pred = predict_one(net, &x)?;
                queries += 1;
                if hit(pred) && self.natural_enough(&x)? {
                    accepted = true;
                    break;
                }
            }
            if accepted {
                break;
            }
            // A restart without an accepted AE ends on one more prediction
            // of its last iterate, counted as a query.
            pred = predict_one(net, &x)?;
            queries += 1;
        }
        // Each step costs two queries (gradient + prediction), so
        // queries/2 is the steps the walk spent to find its AE.
        let mut steps_to_ae = queries / 2;
        if !accepted && hit(pred) {
            // Misclassified but unnatural: not an operational AE, so the
            // run reports the seed, which is one only if it clears the
            // bar too, and then took no steps.
            x = seed.clone();
            pred = predict_one(net, seed)?;
            queries += 1;
            accepted = hit(pred) && self.natural_enough(seed)?;
            steps_to_ae = 0;
        }
        if accepted {
            telemetry::counter_add("attack.pgd.success", 1);
            telemetry::counter_add("attack.fuzz.accepted", 1);
            telemetry::histogram_record("attack.pgd.iters_to_success", steps_to_ae as f64);
        } else {
            telemetry::counter_add("attack.pgd.failure", 1);
        }
        Ok(AttackOutcome {
            success: accepted,
            ..AttackOutcome::from_candidate(seed, x, pred, label, queries)?
        })
    }
}

impl fmt::Debug for Pgd<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pgd")
            .field("ball", &self.ball)
            .field("steps", &self.steps)
            .field("step_size", &self.step_size)
            .field("random_start", &self.random_start)
            .field("restarts", &self.restarts)
            .field("clip", &self.clip)
            .field("momentum", &self.momentum)
            .field("guide", &self.guide.map(|(d, w)| (d.name(), w)))
            .field("min_naturalness", &self.min_naturalness)
            .finish()
    }
}

impl Attack for Pgd<'_> {
    fn name(&self) -> &'static str {
        "pgd"
    }

    fn run(
        &self,
        net: &mut Network,
        seed: &Tensor,
        label: usize,
        rng: &mut Rng,
    ) -> Result<AttackOutcome, AttackError> {
        self.walk(net, seed, label, false, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{linear_victim, rng, trained_victim};

    #[test]
    fn config_validation() {
        let ball = NormBall::linf(0.1).unwrap();
        assert!(Pgd::new(ball, 0, 0.1).is_err());
        assert!(Pgd::new(ball, 5, 0.0).is_err());
        assert!(Pgd::new(ball, 5, 0.1)
            .unwrap()
            .with_clip(1.0, -1.0)
            .is_err());
        let pgd = Pgd::new(ball, 5, 0.1).unwrap().with_restarts(0);
        assert_eq!(pgd.restarts, 1, "restarts clamp to 1");
    }

    #[test]
    fn pgd_flips_boundary_points() {
        let mut net = linear_victim();
        let mut r = rng();
        let pgd = Pgd::new(NormBall::linf(0.2).unwrap(), 10, 0.05).unwrap();
        let out = pgd
            .run(&mut net, &Tensor::from_slice(&[0.1, 0.3]), 1, &mut r)
            .unwrap();
        assert!(out.success);
        assert!(out.linf <= 0.2 + 1e-4);
    }

    #[test]
    fn pgd_respects_the_ball() {
        let mut net = trained_victim();
        let mut r = rng();
        for ball in [NormBall::linf(0.15).unwrap(), NormBall::l2(0.3).unwrap()] {
            let pgd = Pgd::new(ball, 15, 0.05).unwrap();
            let seed = Tensor::from_slice(&[0.2, -0.1]);
            let out = pgd.run(&mut net, &seed, 0, &mut r).unwrap();
            assert!(ball.contains(&seed, &out.candidate), "{ball:?} violated");
        }
    }

    #[test]
    fn pgd_beats_fgsm_on_the_trained_victim() {
        // Count successes over boundary-ish seeds; PGD (multi-step) must
        // find at least as many AEs as single-step FGSM.
        let mut net = trained_victim();
        let mut r = rng();
        let ball = NormBall::linf(0.25).unwrap();
        let pgd = Pgd::new(ball, 20, 0.05).unwrap().with_restarts(2);
        let fgsm = crate::Fgsm::new(0.25).unwrap();
        let mut pgd_wins = 0;
        let mut fgsm_wins = 0;
        for i in 0..20 {
            let x = Tensor::from_slice(&[0.3 + 0.02 * i as f32, -0.2 + 0.02 * i as f32]);
            let label = predict_one(&mut net, &x).unwrap();
            if pgd.run(&mut net, &x, label, &mut r).unwrap().success {
                pgd_wins += 1;
            }
            if fgsm.run(&mut net, &x, label, &mut r).unwrap().success {
                fgsm_wins += 1;
            }
        }
        assert!(pgd_wins >= fgsm_wins, "pgd {pgd_wins} < fgsm {fgsm_wins}");
    }

    #[test]
    fn momentum_validation_and_attack() {
        let ball = NormBall::linf(0.2).unwrap();
        assert!(Pgd::new(ball, 5, 0.05)
            .unwrap()
            .with_momentum(-1.0)
            .is_err());
        assert!(Pgd::new(ball, 5, 0.05)
            .unwrap()
            .with_momentum(f32::NAN)
            .is_err());
        let mut net = trained_victim();
        let mut r = rng();
        let mi = Pgd::new(ball, 15, 0.04)
            .unwrap()
            .with_momentum(0.9)
            .unwrap();
        let seed = Tensor::from_slice(&[0.1, 0.05]);
        let label = predict_one(&mut net, &seed).unwrap();
        let out = mi.run(&mut net, &seed, label, &mut r).unwrap();
        // Momentum PGD still respects the ball and finds boundary flips.
        assert!(ball.contains(&seed, &out.candidate));
        assert!(out.success);
    }

    #[test]
    fn targeted_attack_reaches_the_target_class() {
        let mut net = linear_victim();
        let mut r = rng();
        // Seed on the positive side (class 1); target class 0.
        let pgd = Pgd::new(NormBall::linf(0.3).unwrap(), 10, 0.08)
            .unwrap()
            .with_random_start(false);
        let seed = Tensor::from_slice(&[0.1, 0.0]);
        let out = pgd.run_targeted(&mut net, &seed, 0, &mut r).unwrap();
        assert!(out.success);
        assert_eq!(out.predicted, 0);
        assert!(out.linf <= 0.3 + 1e-4);
        // An unreachable target (far interior point, tiny ball) fails
        // gracefully.
        let far = Tensor::from_slice(&[5.0, 0.0]);
        let small = Pgd::new(NormBall::linf(0.05).unwrap(), 5, 0.02)
            .unwrap()
            .with_random_start(false);
        let out = small.run_targeted(&mut net, &far, 0, &mut r).unwrap();
        assert!(!out.success);
        assert!(small
            .run_targeted(&mut net, &Tensor::zeros(&[2, 2]), 0, &mut r)
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut net = linear_victim();
        let pgd = Pgd::new(NormBall::linf(0.1).unwrap(), 5, 0.03).unwrap();
        let seed = Tensor::from_slice(&[0.05, 0.0]);
        let a = pgd.run(&mut net, &seed, 1, &mut rng()).unwrap();
        let b = pgd.run(&mut net, &seed, 1, &mut rng()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn no_random_start_from_interior_point_stays_put_on_flat_loss() {
        // A confident interior point with tiny ε: PGD fails gracefully.
        let mut net = linear_victim();
        let mut r = rng();
        let pgd = Pgd::new(NormBall::linf(0.01).unwrap(), 3, 0.005)
            .unwrap()
            .with_random_start(false);
        let out = pgd
            .run(&mut net, &Tensor::from_slice(&[3.0, 0.0]), 1, &mut r)
            .unwrap();
        assert!(!out.success);
        assert!(out.queries > 0);
    }
}
