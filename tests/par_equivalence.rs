//! Serial-equivalence harness for the parallel execution layer.
//!
//! The headline guarantee of `opad-par`: the same configuration and seed
//! produce **byte-identical** results at any `OPAD_THREADS`. Each parallel
//! kernel (tensor matmul, conv2d forward, OP density batches, cell
//! occupancy counts, Monte-Carlo pfd sampling) and a full two-round,
//! 1-shard campaign are run at thread counts {1, 2, 4, 8} and compared at
//! the bit level — floating-point results via `to_bits`, round reports via
//! their serialized bytes with the (legitimately nondeterministic) timing
//! fields zeroed. `shard_equivalence.rs` crosses the same thread counts
//! with shard counts.

use opad::prelude::*;
use opad_par::Rng;

const PAR_THREADS: [usize; 3] = [2, 4, 8];

/// Runs `f` with the worker pool pinned to `threads`.
fn at<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _pin = opad::par::override_threads(threads);
    f()
}

fn bits32(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn bits64(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn matmul_is_thread_count_invariant() {
    let mut rng = Rng::seed_from_u64(7);
    let a = Tensor::rand_normal(&[96, 64], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(&[64, 80], 0.0, 1.0, &mut rng);
    let serial = at(1, || a.matmul(&b).unwrap());
    for t in PAR_THREADS {
        let par = at(t, || a.matmul(&b).unwrap());
        assert_eq!(
            bits32(serial.as_slice()),
            bits32(par.as_slice()),
            "matmul differs at {t} threads"
        );
    }
}

#[test]
fn conv2d_forward_is_thread_count_invariant() {
    let mut rng = Rng::seed_from_u64(9);
    let mut conv = opad::nn::Conv2d::new(3, 12, 12, 8, 5, &mut rng).unwrap();
    let x = Tensor::rand_normal(&[16, conv.in_dim()], 0.0, 1.0, &mut rng);
    let serial = at(1, || conv.forward(&x, false).unwrap());
    for t in PAR_THREADS {
        let par = at(t, || conv.forward(&x, false).unwrap());
        assert_eq!(
            bits32(serial.as_slice()),
            bits32(par.as_slice()),
            "conv2d forward differs at {t} threads"
        );
    }
}

#[test]
fn density_batches_are_thread_count_invariant() {
    let mut rng = Rng::seed_from_u64(11);
    let cfg = GaussianClustersConfig::default();
    let field = gaussian_clusters(&cfg, 200, &zipf_probs(3, 1.5), &mut rng).unwrap();
    let kde = Kde::fit_scott(field.features()).unwrap();
    let gmm = learn_op_gmm(&field, 3, 10, &mut rng).unwrap();
    let serial_kde = at(1, || {
        opad::opmodel::log_density_batch(&kde, field.features()).unwrap()
    });
    let serial_gmm = at(1, || {
        opad::opmodel::log_density_batch(gmm.density(), field.features()).unwrap()
    });
    for t in PAR_THREADS {
        let par_kde = at(t, || {
            opad::opmodel::log_density_batch(&kde, field.features()).unwrap()
        });
        let par_gmm = at(t, || {
            opad::opmodel::log_density_batch(gmm.density(), field.features()).unwrap()
        });
        assert_eq!(
            bits64(&serial_kde),
            bits64(&par_kde),
            "KDE batch differs at {t} threads"
        );
        assert_eq!(
            bits64(&serial_gmm),
            bits64(&par_gmm),
            "GMM batch differs at {t} threads"
        );
    }
}

#[test]
fn cell_distribution_is_thread_count_invariant() {
    let mut rng = Rng::seed_from_u64(13);
    let data = Tensor::rand_uniform(&[700, 2], -1.5, 1.5, &mut rng);
    let partition = CentroidPartition::fit(&data, 8, 20, &mut rng).unwrap();
    let serial = at(1, || partition.cell_distribution(&data, 0.25).unwrap());
    for t in PAR_THREADS {
        let par = at(t, || partition.cell_distribution(&data, 0.25).unwrap());
        assert_eq!(
            bits64(&serial),
            bits64(&par),
            "cell distribution differs at {t} threads"
        );
    }
}

#[test]
fn pfd_sampling_is_thread_count_invariant() {
    let op: Vec<f64> = vec![1.0 / 16.0; 16];
    let mut model = CellReliabilityModel::new(op).unwrap();
    for cell in 0..16 {
        for i in 0..40 {
            model.observe(cell, i % 20 == 0).unwrap();
        }
    }
    // 700 draws crosses several 256-draw chunk boundaries; a fresh caller
    // RNG per run keeps the single base draw identical.
    let serial = at(1, || {
        let mut rng = Rng::seed_from_u64(5);
        model.pfd_samples(700, &mut rng)
    });
    for t in PAR_THREADS {
        let par = at(t, || {
            let mut rng = Rng::seed_from_u64(5);
            model.pfd_samples(700, &mut rng)
        });
        assert_eq!(
            bits64(&serial),
            bits64(&par),
            "pfd samples differ at {t} threads"
        );
    }
}

/// Builds the world and runs a complete two-round, 1-shard campaign,
/// optionally with MagNet and the OP-density detector attached, returning
/// the round reports.
fn run_pipeline(with_detectors: bool) -> Vec<RoundReport> {
    use std::sync::Arc;
    let mut rng = Rng::seed_from_u64(17);
    let cfg = GaussianClustersConfig {
        separation: 2.0,
        std: 0.9,
        ..Default::default()
    };
    let train = gaussian_clusters(&cfg, 240, &uniform_probs(3), &mut rng).unwrap();
    let field = gaussian_clusters(&cfg, 400, &zipf_probs(3, 1.5), &mut rng).unwrap();
    let mut net = Network::mlp(&[2, 16, 3], Activation::Relu, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(12, 32), Optimizer::adam(0.01))
        .fit(&mut net, train.features(), train.labels(), None, &mut rng)
        .unwrap();
    let op = learn_op_gmm(&field, 3, 10, &mut rng).unwrap();
    let partition = CentroidPartition::fit(field.features(), 8, 15, &mut rng).unwrap();
    let target = ReliabilityTarget::new(1e-5, 0.95).unwrap();
    let config = ShardedConfig {
        shards: 1,
        base: LoopConfig {
            seeds_per_round: 10,
            eval_per_round: 50,
            max_rounds: 2,
            mc_samples: 500,
            retrain: RetrainConfig {
                epochs: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    };
    let op_density = OpDensityDetector::new(op.density().clone());
    let mut lp = ShardedCampaign::new(net, op, partition, &field, target, config, 1234).unwrap();
    if with_detectors {
        let mut magnet = Magnet::new(2, 1).unwrap();
        magnet.fit(&field).unwrap();
        lp.attach_detector(Arc::new(magnet));
        lp.attach_detector(Arc::new(op_density));
    }
    let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 10, 0.08).unwrap();
    lp.run(&field, &train, &attack).unwrap()
}

/// Renders the reports with the timing fields zeroed, so the comparison
/// is byte-exact on everything determinism promises (`{:?}` writes every
/// f64 in its shortest round-trip form, so it is exact).
fn report_bytes(reports: &[RoundReport]) -> String {
    let mut reports = reports.to_vec();
    for r in &mut reports {
        r.wall_ms = 0.0;
        r.step_ms = Default::default();
    }
    format!("{reports:?}")
}

#[test]
fn full_pipeline_reports_are_byte_identical_at_any_thread_count() {
    let serial = at(1, || run_pipeline(false));
    assert_eq!(serial.len(), 2, "hard target runs both rounds");
    let serial_bytes = report_bytes(&serial);
    for t in PAR_THREADS {
        let par = at(t, || run_pipeline(false));
        assert_eq!(serial, par, "round reports differ at {t} threads");
        assert_eq!(
            serial_bytes,
            report_bytes(&par),
            "serialized reports differ at {t} threads"
        );
    }
}

#[test]
fn detector_scores_in_round_reports_are_byte_identical_at_any_thread_count() {
    let serial = at(1, || run_pipeline(true));
    assert_eq!(serial.len(), 2, "hard target runs both rounds");
    for r in &serial {
        assert_eq!(r.detector_scores.len(), 2, "both detectors report");
        for ds in &r.detector_scores {
            assert!(ds.mean_score.is_finite());
        }
    }
    let serial_bits: Vec<u64> = serial
        .iter()
        .flat_map(|r| r.detector_scores.iter().map(|ds| ds.mean_score.to_bits()))
        .collect();
    let serial_bytes = report_bytes(&serial);
    for t in PAR_THREADS {
        let par = at(t, || run_pipeline(true));
        let par_bits: Vec<u64> = par
            .iter()
            .flat_map(|r| r.detector_scores.iter().map(|ds| ds.mean_score.to_bits()))
            .collect();
        assert_eq!(
            serial_bits, par_bits,
            "detector round means differ at {t} threads"
        );
        assert_eq!(serial, par, "round reports differ at {t} threads");
        assert_eq!(
            serial_bytes,
            report_bytes(&par),
            "serialized reports differ at {t} threads"
        );
    }
}
