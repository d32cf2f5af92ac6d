//! Unit tests of [`Pgd`](crate::Pgd) guided by an operational-profile
//! density: the paper's naturalness-guided fuzzer (RQ3), which ascends
//! `CE + λ·log p(x)` and, under a naturalness bar τ, accepts an AE only
//! when `log p(x) ≥ τ`.

#[cfg(test)]
mod tests {
    use crate::outcome::predict_one;
    use crate::tests_support::{linear_victim, op_guide, rng, trained_victim};
    use crate::{Attack, NormBall, Pgd};
    use opad_detect::{Detector, OpDensityDetector};
    use opad_opmodel::{Density, Gmm};
    use opad_telemetry::{self as telemetry, Recorder};
    use opad_tensor::Tensor;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// An OP with high density on the negative-x side only.
    fn left_heavy_op() -> OpDensityDetector<Gmm> {
        op_guide([-0.5, 0.0], 0.4)
    }

    #[test]
    fn config_validation() {
        let op = left_heavy_op();
        let pgd = Pgd::new(NormBall::linf(0.1).unwrap(), 5, 0.1).unwrap();
        assert!(pgd.clone().guided_by(&op, -1.0).is_err(), "λ < 0");
        // A naturalness bar needs a guide to score it.
        assert!(pgd.clone().with_min_naturalness(-3.0).is_err());
        let fuzz = pgd
            .guided_by(&op, 1.0)
            .unwrap()
            .with_min_naturalness(-3.0)
            .unwrap();
        assert!(fuzz.with_clip(1.0, 0.0).is_err());
    }

    #[test]
    fn finds_adversarial_examples() {
        let mut net = trained_victim();
        let op = left_heavy_op();
        let ball = NormBall::linf(0.3).unwrap();
        let fuzz = Pgd::new(ball, 20, 0.05)
            .unwrap()
            .with_random_start(false)
            .guided_by(&op, 0.5)
            .unwrap();
        let seed = Tensor::from_slice(&[0.1, 0.05]);
        let label = predict_one(&mut net, &seed).unwrap();
        let out = fuzz.run(&mut net, &seed, label, &mut rng()).unwrap();
        assert!(out.success);
        assert!(ball.contains(&seed, &out.candidate));
    }

    #[test]
    fn naturalness_threshold_filters_unnatural_aes() {
        let mut net = trained_victim();
        let op = left_heavy_op();
        // Seed in a low-density region: every AE near it is unnatural, so
        // a near-mode bar rejects all candidates.
        let seed = Tensor::from_slice(&[3.0, 3.0]);
        let label = predict_one(&mut net, &seed).unwrap();
        let tau = op.density().log_density(&[-0.5, 0.0]).unwrap() - 1.0;
        let strict = Pgd::new(NormBall::linf(0.3).unwrap(), 15, 0.05)
            .unwrap()
            .with_random_start(false)
            .guided_by(&op, 0.5)
            .unwrap()
            .with_min_naturalness(tau)
            .unwrap();
        let out = strict.run(&mut net, &seed, label, &mut rng()).unwrap();
        assert!(!out.success, "unnatural AE must not count");
        // Either the reported candidate is still correctly classified, or
        // (when a misclassified-but-unnatural point was found) the attack
        // fell back to reporting the seed.
        assert!(out.predicted == label || out.candidate == seed);
    }

    #[test]
    fn a_fallback_seed_succeeds_only_if_it_clears_the_bar() {
        // Class 1 iff x₀ > 0, and the seed, deep in class 1, is labelled 0:
        // every iterate stays misclassified, so a bar that rejects the
        // walk's last iterate makes the run fall back to the seed.
        let mut net = linear_victim();
        let seed = Tensor::from_slice(&[1.0, 0.0]);
        let op = op_guide([1.0, 0.0], 0.1);
        let mode = op.density().log_density(&[1.0, 0.0]).unwrap();
        // Full-radius steps leave the mode far behind; only the seed sits
        // on it.
        let walk = Pgd::new(NormBall::linf(0.3).unwrap(), 3, 0.3)
            .unwrap()
            .with_random_start(false)
            .guided_by(&op, 0.0)
            .unwrap();
        for (tau, natural_seed) in [(mode + 1.0, false), (mode - 0.5, true)] {
            let bar = walk.clone().with_min_naturalness(tau).unwrap();
            let steps = Arc::new(StepsOnThisThread::new());
            telemetry::install(steps.clone());
            let out = bar.run(&mut net, &seed, 0, &mut rng());
            telemetry::uninstall();
            let out = out.unwrap();
            assert_eq!(out.candidate, seed, "τ = {tau}: fell back to the seed");
            assert_eq!(out.predicted, 1, "τ = {tau}: the seed is misclassified");
            assert_eq!(out.success, natural_seed, "τ = {tau}");
            // The AE, if any, is the unmoved seed: found after no steps.
            let recorded: &[f64] = if natural_seed { &[0.0] } else { &[] };
            assert_eq!(*steps.samples.lock().unwrap(), recorded, "τ = {tau}");
        }
    }

    /// Keeps the `attack.pgd.iters_to_success` samples recorded on the
    /// thread that made it: the recorder is process-wide, and the other
    /// tests of this binary run on other threads.
    struct StepsOnThisThread {
        thread: ThreadId,
        samples: Mutex<Vec<f64>>,
    }

    impl StepsOnThisThread {
        fn new() -> Self {
            StepsOnThisThread {
                thread: std::thread::current().id(),
                samples: Mutex::new(Vec::new()),
            }
        }
    }

    impl Recorder for StepsOnThisThread {
        fn counter_add(&self, _: &'static str, _: u64) {}
        fn gauge_set(&self, _: &'static str, _: f64) {}
        fn histogram_record(&self, name: &'static str, value: f64) {
            if name == "attack.pgd.iters_to_success" && std::thread::current().id() == self.thread {
                self.samples.lock().unwrap().push(value);
            }
        }
        fn span_start(&self, _: &'static str, _: u64, _: Option<u64>) {}
        fn span_end(&self, _: &'static str, _: u64, _: Option<u64>, _: f64) {}
    }

    #[test]
    fn guided_aes_are_more_natural_than_pgd_aes() {
        // The paper's RQ3 mechanism: with the naturalness term, found AEs
        // score higher under the OP than PGD's.
        let mut net = trained_victim();
        let op = left_heavy_op();
        let ball = NormBall::linf(0.4).unwrap();
        let fuzz = Pgd::new(ball, 25, 0.05)
            .unwrap()
            .with_random_start(false)
            .guided_by(&op, 2.0)
            .unwrap();
        let pgd = Pgd::new(ball, 25, 0.05).unwrap();
        let mut r = rng();
        let mut nat_scores = Vec::new();
        let mut pgd_scores = Vec::new();
        for i in 0..12 {
            let seed = Tensor::from_slice(&[-0.2 + 0.05 * i as f32, 0.1]);
            let label = predict_one(&mut net, &seed).unwrap();
            let a = fuzz.run(&mut net, &seed, label, &mut r).unwrap();
            let b = pgd.run(&mut net, &seed, label, &mut r).unwrap();
            if a.success && b.success {
                nat_scores.push(-op.score(a.candidate.as_slice()).unwrap());
                pgd_scores.push(-op.score(b.candidate.as_slice()).unwrap());
            }
        }
        assert!(
            nat_scores.len() >= 3,
            "need a few paired successes, got {}",
            nat_scores.len()
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&nat_scores) > mean(&pgd_scores),
            "guided {} vs pgd {}",
            mean(&nat_scores),
            mean(&pgd_scores)
        );
    }

    /// With later restarts starting at random points, with and without a
    /// naturalness bar, the same RNG stream gives the same outcome.
    #[test]
    fn restarts_and_determinism() {
        let mut net = trained_victim();
        let op = left_heavy_op();
        let seed = Tensor::from_slice(&[0.4, -0.3]);
        let label = predict_one(&mut net, &seed).unwrap();
        for tau in [None, Some(-2.0)] {
            let mut fuzz = Pgd::new(NormBall::l2(0.5).unwrap(), 10, 0.1)
                .unwrap()
                .with_random_start(false)
                .with_restarts(3)
                .guided_by(&op, 2.0)
                .unwrap();
            if let Some(tau) = tau {
                fuzz = fuzz.with_min_naturalness(tau).unwrap();
            }
            let a = fuzz.run(&mut net, &seed, label, &mut rng()).unwrap();
            let b = fuzz.run(&mut net, &seed, label, &mut rng()).unwrap();
            assert_eq!(a, b, "τ = {tau:?}");
        }
    }
}
