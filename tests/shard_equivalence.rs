//! Shard-conformance suite for the testing loop, `ShardedCampaign`.
//!
//! Its headline guarantee: the same configuration and campaign seed
//! produce **bit-identical** results at any shard count and any
//! `OPAD_THREADS` — the merged pfd posterior down to the bits of every
//! per-cell Beta, and the full `RoundReport` stream down to its
//! serialized bytes (timing fields excepted), attached detectors' scores
//! and separate seed pools included. Shard counts {1, 2, 4, 8} are
//! crossed with thread counts {1, 2, 4, 8}; the 1-shard campaign on one
//! thread is the reference.

use opad::prelude::*;
use opad_par::Rng;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` with the worker pool pinned to `threads`.
fn at<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _pin = opad::par::override_threads(threads);
    f()
}

/// The shared world: trained net, learned OP, partition, field data.
struct World {
    net: Network,
    op: OperationalProfile<Gmm>,
    partition: CentroidPartition,
    train: Dataset,
    field: Dataset,
}

fn world() -> World {
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
    World {
        net,
        op,
        partition,
        train,
        field,
    }
}

fn attack() -> Pgd<'static> {
    Pgd::new(NormBall::linf(0.3).unwrap(), 10, 0.08).unwrap()
}

fn config(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
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
    }
}

fn campaign(w: &World, shards: usize, target_pfd: f64) -> ShardedCampaign<Gmm> {
    ShardedCampaign::new(
        w.net.clone(),
        w.op.clone(),
        w.partition.clone(),
        &w.field,
        ReliabilityTarget::new(target_pfd, 0.95).unwrap(),
        config(shards),
        1234,
    )
    .unwrap()
}

/// Renders reports with the timing fields zeroed — byte-exact on
/// everything determinism promises (`{:?}` is exact for every f64).
fn report_bytes(reports: &[RoundReport]) -> String {
    let mut reports = reports.to_vec();
    for r in &mut reports {
        r.wall_ms = 0.0;
        r.step_ms = Default::default();
    }
    format!("{reports:?}")
}

/// Per-cell posterior (alpha, beta) bits plus the pfd MC draws, bitwise.
fn posterior_fingerprint(c: &ShardedCampaign<Gmm>) -> (Vec<(u64, u64)>, Vec<u64>) {
    let model = c.reliability();
    let betas: Vec<(u64, u64)> = (0..model.num_cells())
        .map(|cell| {
            let b = model.posterior(cell).unwrap();
            (b.alpha().to_bits(), b.beta().to_bits())
        })
        .collect();
    let mut rng = Rng::seed_from_u64(99);
    let draws: Vec<u64> = model
        .pfd_samples(600, &mut rng)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    (betas, draws)
}

#[test]
fn campaigns_are_bit_identical_at_any_shard_and_thread_count() {
    // Hard target: both rounds run, retraining included — the reports
    // (pfd posterior summaries among them) and the retrained network
    // carry the determinism claim.
    let w = world();
    let mut magnet = Magnet::new(2, 1).unwrap();
    magnet.fit(&w.field).unwrap();
    let detectors: [Arc<dyn Detector + Send + Sync>; 2] = [
        Arc::new(magnet),
        Arc::new(OpDensityDetector::new(w.op.density().clone())),
    ];
    let pool = {
        let mut rng = Rng::seed_from_u64(29);
        let cfg = GaussianClustersConfig {
            separation: 2.0,
            std: 0.9,
            ..Default::default()
        };
        gaussian_clusters(&cfg, 150, &uniform_probs(3), &mut rng).unwrap()
    };
    let plain = |shards: usize| {
        let mut c = campaign(&w, shards, 1e-5);
        c.run(&w.field, &w.train, &attack()).unwrap();
        c
    };
    // MagNet and the OP-density detector score every round's AE corpus;
    // their per-round means ride on the reports.
    let with_detectors = |shards: usize| {
        let mut c = campaign(&w, shards, 1e-5);
        for d in &detectors {
            c.attach_detector(d.clone());
        }
        assert_eq!(c.detector_names(), vec!["magnet", "op_density"]);
        for r in c.run(&w.field, &w.train, &attack()).unwrap() {
            assert_eq!(r.detector_scores.len(), 2, "both detectors report");
            for ds in &r.detector_scores {
                assert_eq!(ds.scored, r.aes_found);
                assert!(ds.mean_score.is_finite());
            }
        }
        c
    };
    // E7's OP-blind arm: seeds come from a balanced pool, whose rows the
    // sample step shards by their own cells, while evaluation still
    // draws from the field data.
    let with_seed_pool = |shards: usize| {
        let mut c = campaign(&w, shards, 1e-5);
        for _ in 0..2 {
            c.run_round_with_pool(&pool, &w.field, &w.train, &attack())
                .unwrap();
        }
        for ae in c.corpus().aes() {
            assert_eq!(pool.sample(ae.seed_index).unwrap().0, ae.seed);
        }
        c
    };
    type Run<'a> = &'a dyn Fn(usize) -> ShardedCampaign<Gmm>;
    let inputs: [(&str, Run); 3] = [
        ("plain", &plain),
        ("detectors", &with_detectors),
        ("seed pool", &with_seed_pool),
    ];
    for (input, run) in inputs {
        let reference = at(1, || run(1));
        let ref_reports = reference.reports();
        assert_eq!(
            ref_reports.len(),
            2,
            "{input}: hard target runs both rounds"
        );
        assert!(!reference.corpus().is_empty(), "{input}: rounds find AEs");
        let ref_bytes = report_bytes(ref_reports);
        let ref_net = reference.network().to_json().to_string();
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let c = at(threads, || run(shards));
                assert_eq!(
                    c.reports(),
                    ref_reports,
                    "{input}: round reports differ at {shards} shards / {threads} threads"
                );
                assert_eq!(
                    report_bytes(c.reports()),
                    ref_bytes,
                    "{input}: serialized reports differ at {shards} shards / {threads} threads"
                );
                assert_eq!(
                    c.network().to_json().to_string(),
                    ref_net,
                    "{input}: retrained networks differ at {shards} shards / {threads} threads"
                );
            }
        }
    }
}

#[test]
fn merged_pfd_posterior_is_bit_identical_across_shard_counts() {
    // Loose target: met after one round, so no retrain resets the
    // evidence and the *merged posterior itself* can be fingerprinted.
    let w = world();
    let run = |shards: usize, threads: usize| {
        at(threads, || {
            let mut c = campaign(&w, shards, 0.999);
            let reports = c.run(&w.field, &w.train, &attack()).unwrap();
            assert!(
                reports.last().unwrap().target_met,
                "loose target must be met in round 1"
            );
            let (betas, draws) = posterior_fingerprint(&c);
            let counts = (
                c.reliability().demands().to_vec(),
                c.reliability().failures().to_vec(),
            );
            (betas, draws, counts)
        })
    };
    let reference = run(1, 1);
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let got = run(shards, threads);
            assert_eq!(
                got.0, reference.0,
                "posterior bits differ at {shards} shards / {threads} threads"
            );
            assert_eq!(
                got.1, reference.1,
                "pfd MC draws differ at {shards} shards / {threads} threads"
            );
            assert_eq!(
                got.2, reference.2,
                "evidence counts differ at {shards} shards / {threads} threads"
            );
        }
    }
}

#[test]
fn sharding_geometry_follows_par_rules() {
    // shard_ranges mirrors par_ranges' div_ceil chunking: contiguous,
    // ordered, disjoint, covering — for any (cells, shards) pairing.
    for shards in SHARD_COUNTS {
        let ranges = shard_ranges(8, shards);
        assert_eq!(ranges.len(), shards);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 8, "{shards} shards must cover all 8 cells");
        for pair in ranges.windows(2) {
            assert!(pair[0].end <= pair[1].start, "ranges must be ordered");
        }
    }
    let wide = shard_ranges(3, 8);
    assert_eq!(wide.iter().map(|r| r.len()).sum::<usize>(), 3);
}
