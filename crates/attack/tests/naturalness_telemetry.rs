//! A naturalness bar scores each misclassified iterate once and records
//! that score once: the `attack.fuzz.naturalness` histogram holds exactly
//! one sample per accepted AE plus one per rejected iterate.
//!
//! The global recorder is process-wide state, so this test lives alone in
//! its own test binary.

use opad_attack::{Attack, NormBall, Pgd};
use opad_data::{gaussian_clusters, uniform_probs, GaussianClustersConfig};
use opad_detect::OpDensityDetector;
use opad_nn::{Activation, Network, Optimizer, TrainConfig, Trainer};
use opad_opmodel::{Density, Gmm, GmmComponent};
use opad_par::Rng;
use opad_telemetry::{self as telemetry, LiveRecorder};
use opad_tensor::Tensor;
use std::sync::Arc;

#[test]
fn naturalness_histogram_counts_each_scored_iterate_once() {
    let mut rng = Rng::seed_from_u64(3);
    let cfg = GaussianClustersConfig {
        separation: 1.5,
        std: 0.7,
        ..Default::default()
    };
    let data = gaussian_clusters(&cfg, 240, &uniform_probs(3), &mut rng).unwrap();
    let mut net = Network::mlp(&[2, 12, 3], Activation::Tanh, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(15, 32), Optimizer::adam(0.02))
        .fit(&mut net, data.features(), data.labels(), None, &mut rng)
        .unwrap();
    let guide = OpDensityDetector::new(
        Gmm::from_components(vec![GmmComponent {
            weight: 1.0,
            mean: vec![-0.5, 0.0],
            std: 0.8,
        }])
        .unwrap(),
    );
    let mode = guide.density().log_density(&[-0.5, 0.0]).unwrap();

    let recorder = Arc::new(LiveRecorder::new());
    telemetry::install(recorder.clone());
    // A loose bar accepts every AE; a strict one rejects most iterates and
    // makes runs fall back to their seeds.
    for tau in [mode - 10.0, mode - 0.5] {
        let fuzz = Pgd::new(NormBall::linf(0.4).unwrap(), 15, 0.06)
            .unwrap()
            .with_random_start(false)
            .with_restarts(2)
            .guided_by(&guide, 1.0)
            .unwrap()
            .with_min_naturalness(tau)
            .unwrap();
        for i in 0..100 {
            let seed = Tensor::from_slice(&[rng.gen_range(-1.5..1.5), rng.gen_range(-1.5..1.5)]);
            let label = net.predict_labels(&seed.reshape(&[1, 2]).unwrap()).unwrap()[0];
            let mut run_rng = Rng::seed_from_u64(i);
            fuzz.run(&mut net, &seed, label, &mut run_rng).unwrap();
        }
    }
    telemetry::uninstall();

    let s = recorder.summary();
    let accepted = s.counter("attack.fuzz.accepted").unwrap_or(0);
    let rejected = s.counter("attack.fuzz.rejected_unnatural").unwrap_or(0);
    let scored = s
        .histogram("attack.fuzz.naturalness")
        .map_or(0, |h| h.count);
    assert!(accepted > 0, "no AE cleared either bar");
    assert!(rejected > 0, "the strict bar rejected nothing");
    assert_eq!(scored, accepted + rejected);
    // Every accepted AE is a success, and every run is one or the other.
    assert_eq!(s.counter("attack.pgd.success"), Some(accepted));
    assert_eq!(accepted + s.counter("attack.pgd.failure").unwrap_or(0), 200);
}
