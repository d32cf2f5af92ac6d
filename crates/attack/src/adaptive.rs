//! Unit tests of [`Pgd`](crate::Pgd) guided by the detector it attacks:
//! Carlini & Wagner's adaptive attack, which ascends `CE − α·score(x)` so
//! that its candidates evade that detector (E11 runs it on each detector).

#[cfg(test)]
mod tests {
    use crate::outcome::predict_one;
    use crate::tests_support::{op_guide, rng, trained_victim};
    use crate::{Attack, NormBall, Pgd};
    use opad_detect::{Detector, OpDensityDetector};
    use opad_opmodel::Gmm;
    use opad_tensor::Tensor;

    /// A detector centred on the seeds attacked below, so that evading it
    /// pulls candidates back toward the seed.
    fn seed_centered_detector() -> OpDensityDetector<Gmm> {
        op_guide([0.1, 0.05], 0.3)
    }

    #[test]
    fn config_validation() {
        let det = seed_centered_detector();
        let pgd = Pgd::new(NormBall::linf(0.1).unwrap(), 5, 0.1).unwrap();
        // α is a nonnegative finite weight.
        for bad in [-1.0, f32::NAN, f32::INFINITY] {
            assert!(pgd.clone().guided_by(&det, bad).is_err(), "α = {bad}");
        }
        let adaptive = pgd.guided_by(&det, 0.0).unwrap();
        assert!(adaptive.with_clip(1.0, -1.0).is_err());
    }

    /// α = 0 walks plain PGD's path, bit for bit.
    #[test]
    fn alpha_zero_is_plain_pgd() {
        let det = seed_centered_detector();
        let ball = NormBall::linf(0.25).unwrap();
        let mut net = trained_victim();
        let seed = Tensor::from_slice(&[0.1, 0.05]);
        let label = predict_one(&mut net, &seed).unwrap();
        let plain = Pgd::new(ball, 15, 0.04).unwrap().with_random_start(false);
        let adaptive = plain.clone().guided_by(&det, 0.0).unwrap();
        let a = adaptive.run(&mut net, &seed, label, &mut rng()).unwrap();
        let b = plain.run(&mut net, &seed, label, &mut rng()).unwrap();
        assert_eq!(a, b);
    }

    /// The evasion term evades: with a detector centred near the seed, the
    /// adaptive candidate scores no more suspicious than the naive one.
    #[test]
    fn adaptive_candidate_evades_the_detector() {
        let det = seed_centered_detector();
        let ball = NormBall::linf(0.3).unwrap();
        let mut net = trained_victim();
        let seed = Tensor::from_slice(&[0.1, 0.05]);
        let label = predict_one(&mut net, &seed).unwrap();
        let naive = Pgd::new(ball, 20, 0.04).unwrap().with_random_start(false);
        let adaptive = naive.clone().guided_by(&det, 5.0).unwrap();
        let a = naive.run(&mut net, &seed, label, &mut rng()).unwrap();
        let b = adaptive.run(&mut net, &seed, label, &mut rng()).unwrap();
        assert!(ball.contains(&seed, &b.candidate));
        let s_naive = det.score(a.candidate.as_slice()).unwrap();
        let s_adaptive = det.score(b.candidate.as_slice()).unwrap();
        assert!(
            s_adaptive <= s_naive + 1e-9,
            "adaptive {s_adaptive} should not exceed naive {s_naive}"
        );
    }

    /// From a random start, the same RNG stream gives the same outcome.
    #[test]
    fn deterministic_across_runs() {
        let det = seed_centered_detector();
        let mut net = trained_victim();
        let seed = Tensor::from_slice(&[0.15, -0.05]);
        let label = predict_one(&mut net, &seed).unwrap();
        let adaptive = Pgd::new(NormBall::linf(0.2).unwrap(), 10, 0.03)
            .unwrap()
            .guided_by(&det, 2.0)
            .unwrap();
        let a = adaptive.run(&mut net, &seed, label, &mut rng()).unwrap();
        let b = adaptive.run(&mut net, &seed, label, &mut rng()).unwrap();
        assert_eq!(a, b);
    }
}
