//! Micro-benchmark registry for the core pipeline kernels (`obsctl bench`).

use crate::{LoopConfig, RetrainConfig, SeedWeighting, ShardedCampaign, ShardedConfig};
use opad_attack::{Attack, NormBall, Pgd};
use opad_data::{gaussian_clusters, uniform_probs, GaussianClustersConfig};
use opad_nn::{Activation, Network};
use opad_opmodel::{CentroidPartition, Gmm, GmmComponent, OperationalProfile};
use opad_par::Rng;
use opad_reliability::ReliabilityTarget;
use opad_telemetry::{BenchKernel, Benchmarkable};
use std::hint::black_box;

/// The crate's [`Benchmarkable`] registry: the per-seed attack fan-out —
/// the testing loop's dominant cost — measured with the worker pool
/// pinned to 1 and 4 threads so `obsctl bench` snapshots capture the
/// serial-vs-parallel throughput side by side.
pub struct CoreBenches;

impl Benchmarkable for CoreBenches {
    fn bench_kernels() -> Vec<BenchKernel> {
        let mut rng = Rng::seed_from_u64(0);
        let data = gaussian_clusters(
            &GaussianClustersConfig::default(),
            64,
            &uniform_probs(3),
            &mut rng,
        )
        .expect("default cluster config is valid");
        let net = Network::mlp(&[2, 32, 3], Activation::Relu, &mut rng).expect("layer sizes chain");
        let pgd = Pgd::new(NormBall::linf(0.3).expect("positive radius"), 15, 0.05)
            .expect("nonzero steps");
        const SEEDS: usize = 32;
        // Mirrors the fuzz step of `ShardedCampaign::run_round`: clone the
        // net per seed, derive a per-seed RNG stream keyed by seed index,
        // and collect outcomes in seed order.
        let round_at = |name: &'static str, threads: usize| {
            let data = data.clone();
            let net = net.clone();
            let pgd = pgd.clone();
            BenchKernel::new(name, move || {
                let _pin = opad_par::override_threads(threads);
                let idx: Vec<usize> = (0..SEEDS).collect();
                let outcomes = opad_par::par_map(&idx, |_, i| {
                    let i = *i;
                    let mut seed_net = net.clone();
                    let mut seed_rng = Rng::seed_from_u64(opad_par::stream_seed(42, i as u64));
                    let seed = data.features().row(i).expect("seed index in range");
                    pgd.run(&mut seed_net, &seed, data.labels()[i], &mut seed_rng)
                        .expect("seed dim matches net")
                });
                black_box(outcomes);
            })
        };
        // One full sharded campaign round (sample → fuzz → eval → assess
        // → retrain) at 1 and 4 shards, so snapshots capture the cost of
        // the shard/merge machinery itself next to the raw fan-out.
        let sharded_round_at = |name: &'static str, shards: usize| {
            let data = data.clone();
            let net = net.clone();
            let pgd = pgd.clone();
            BenchKernel::new(name, move || {
                let op = OperationalProfile::new(
                    uniform_probs(3),
                    Gmm::from_components(vec![GmmComponent {
                        weight: 1.0,
                        mean: vec![0.0, 0.0],
                        std: 2.0,
                    }])
                    .expect("one unit-weight component"),
                )
                .expect("uniform probs sum to one");
                let mut fit_rng = Rng::seed_from_u64(1);
                let partition = CentroidPartition::fit(data.features(), 4, 5, &mut fit_rng)
                    .expect("enough rows for 4 centroids");
                let mut campaign = ShardedCampaign::new(
                    net.clone(),
                    op,
                    partition,
                    &data,
                    ReliabilityTarget {
                        target_pfd: 1e-6,
                        confidence: 0.95,
                    },
                    ShardedConfig {
                        shards,
                        base: LoopConfig {
                            seeds_per_round: 8,
                            eval_per_round: 32,
                            weighting: SeedWeighting::OpTimesMargin,
                            priority_feedback: true,
                            retrain: RetrainConfig {
                                epochs: 1,
                                ..RetrainConfig::default()
                            },
                            ae_evidence: true,
                            max_rounds: 1,
                            mc_samples: 100,
                        },
                    },
                    42,
                )
                .expect("bench world is valid");
                let report = campaign
                    .run_round(&data, &data, &pgd)
                    .expect("bench round runs");
                black_box(report);
            })
        };
        vec![
            round_at("core/attack_round32_t1", 1),
            round_at("core/attack_round32_t4", 4),
            sharded_round_at("core/sharded_round_s1", 1),
            sharded_round_at("core/sharded_round_s4", 4),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_and_every_kernel_runs() {
        let mut kernels = CoreBenches::bench_kernels();
        assert!(kernels.len() >= 2);
        for k in &mut kernels {
            assert!(k.name.starts_with("core/"), "{}", k.name);
            (k.run)();
        }
    }
}
