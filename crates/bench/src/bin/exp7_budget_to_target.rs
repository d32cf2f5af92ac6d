//! E7 — the headline claim: test-case budget needed to reach a target
//! level of **true delivered reliability** ("requiring significantly less
//! amount of test cases to achieve the same level of reliability", paper
//! Sec. IV).
//!
//! Each arm runs the detect → retrain loop with a different seed
//! policy/attack. Because the data generator is ours, we can measure the
//! *ground-truth* delivered pfd after every round: draw demands from the
//! true OP, apply small natural perturbations (the benign environmental
//! noise the paper's footnote 1 scopes to), and count misclassifications.
//! Reported: the cumulative test budget at which each arm first pushes
//! the true pfd under each target.
//!
//! Run with: `cargo run --release -p opad-bench --bin exp7_budget_to_target`

use opad_attack::{Attack, NormBall, Pgd};
use opad_bench::{build_cluster_world, print_header, print_row, ClusterWorldConfig, ExpRun};
use opad_core::{LoopConfig, RetrainConfig, SeedWeighting, ShardedCampaign, ShardedConfig};
use opad_data::{gaussian_clusters, GaussianClustersConfig};
use opad_detect::OpDensityDetector;
use opad_nn::Network;
use opad_par::Rng;
use opad_reliability::ReliabilityTarget;
use opad_telemetry::JsonValue;
use opad_tensor::Tensor;

const ROUNDS: usize = 6;
const SEEDS_PER_ROUND: usize = 40;
const EVAL_PER_ROUND: usize = 150;
const NATURAL_NOISE: f32 = 0.15; // benign environmental perturbation (L∞)

struct Trajectory {
    method: String,
    true_pfd_per_round: Vec<f64>,
    tests_per_round: usize,
}

impl Trajectory {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("method", self.method.as_str().into()),
            (
                "true_pfd_per_round",
                JsonValue::arr(self.true_pfd_per_round.iter().copied()),
            ),
            ("tests_per_round", self.tests_per_round.into()),
        ])
    }
}

/// Ground-truth delivered pfd: demands from the true OP with benign
/// perturbations, scored against the generator's labels.
fn true_delivered_pfd(
    net: &mut Network,
    gcfg: &GaussianClustersConfig,
    class_probs: &[f64],
    rng: &mut Rng,
) -> f64 {
    let demands = gaussian_clusters(gcfg, 3000, class_probs, rng).unwrap();
    let noise = Tensor::rand_uniform(
        demands.features().dims(),
        -NATURAL_NOISE,
        NATURAL_NOISE,
        rng,
    );
    let perturbed = demands.features().checked_add(&noise).unwrap();
    let acc = net.accuracy(&perturbed, demands.labels()).unwrap();
    1.0 - acc
}

fn main() {
    let cfg = ClusterWorldConfig {
        seed: 71,
        n_field: 900,
        cells: 8,
        separation: 2.2,
        std: 0.9,
        ..Default::default()
    };
    let base = build_cluster_world(&cfg);
    let gcfg = GaussianClustersConfig {
        dim: 2,
        num_classes: cfg.num_classes,
        separation: cfg.separation,
        std: cfg.std,
    };
    let guide = OpDensityDetector::new(base.op.density().clone());
    let ball = NormBall::linf(0.3).unwrap();
    let pgd = Pgd::new(ball, 12, 0.06).unwrap();
    let natural = Pgd::new(ball, 12, 0.06)
        .expect("nonzero steps")
        .with_random_start(false)
        .with_restarts(2)
        .guided_by(&guide, 1.5)
        .expect("finite weight");

    let run = ExpRun::begin(
        "exp7_budget_to_target",
        JsonValue::obj([
            ("world", cfg.to_json()),
            ("rounds", ROUNDS.into()),
            ("seeds_per_round", SEEDS_PER_ROUND.into()),
            ("eval_per_round", EVAL_PER_ROUND.into()),
            ("natural_noise", NATURAL_NOISE.into()),
        ]),
    );
    println!("## E7 — true delivered pfd vs cumulative test budget\n");
    print_header(&["method", "round", "tests so far", "true delivered pfd"]);
    // (name, weighting, attack, feedback, seeds-from-balanced-test-set)
    // `+ Sync` because the campaign's fuzz step fans the attack out across
    // the opad-par worker pool.
    let arms: [(&str, SeedWeighting, &(dyn Attack + Sync), bool, bool); 3] = [
        ("uniform+pgd", SeedWeighting::Uniform, &pgd, false, true),
        (
            "op-seeds+pgd",
            SeedWeighting::OpTimesMargin,
            &pgd,
            true,
            false,
        ),
        ("opad", SeedWeighting::OpTimesMargin, &natural, true, false),
    ];

    let mut trajectories = Vec::new();
    for (name, weighting, attack, feedback, balanced_seeds) in arms {
        let config = LoopConfig {
            seeds_per_round: SEEDS_PER_ROUND,
            eval_per_round: EVAL_PER_ROUND,
            weighting,
            priority_feedback: feedback,
            retrain: RetrainConfig {
                epochs: 8,
                ae_boost: 2.0,
                ..Default::default()
            },
            ae_evidence: false,
            max_rounds: ROUNDS,
            mc_samples: 800,
        };
        // An unreachable loop-internal target: every round retrains; the
        // *experiment* measures ground truth externally.
        let target = ReliabilityTarget::new(1e-9, 0.90).unwrap();
        let mut lp = ShardedCampaign::new(
            base.net.clone(),
            base.op.clone(),
            base.partition.clone(),
            &base.field,
            target,
            ShardedConfig {
                shards: 1,
                base: config,
            },
            7000,
        )
        .unwrap();
        let mut truth_rng = Rng::seed_from_u64(12345); // shared measurement stream
        let mut pfds = Vec::new();
        let pfd0 = true_delivered_pfd(
            &mut lp.network().clone(),
            &gcfg,
            &base.truth_class_probs,
            &mut truth_rng,
        );
        print_row(&[
            name.into(),
            "0 (before)".into(),
            "0".into(),
            format!("{pfd0:.4}"),
        ]);
        pfds.push(pfd0);
        for round in 0..ROUNDS {
            let pool = if balanced_seeds {
                &base.test
            } else {
                &base.field
            };
            lp.run_round_with_pool(pool, &base.field, &base.train, &attack)
                .unwrap();
            let mut net = lp.network().clone();
            let pfd = true_delivered_pfd(&mut net, &gcfg, &base.truth_class_probs, &mut truth_rng);
            pfds.push(pfd);
            print_row(&[
                name.into(),
                format!("{}", round + 1),
                format!("{}", (round + 1) * (SEEDS_PER_ROUND + EVAL_PER_ROUND)),
                format!("{pfd:.4}"),
            ]);
        }
        println!("|---|---|---|---|");
        trajectories.push(Trajectory {
            method: name.into(),
            true_pfd_per_round: pfds,
            tests_per_round: SEEDS_PER_ROUND + EVAL_PER_ROUND,
        });
    }

    // Budget-to-target summary.
    println!("\n### tests needed to reach each true-pfd target\n");
    print_header(&["target", "uniform+pgd", "op-seeds+pgd", "opad"]);
    let best_pfds: Vec<f64> = trajectories
        .iter()
        .map(|t| {
            t.true_pfd_per_round
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let start = trajectories[0].true_pfd_per_round[0];
    let reachable = best_pfds.iter().cloned().fold(f64::INFINITY, f64::min);
    // Per target: which arms reached it first, and whether an operational
    // arm beat uniform+pgd (arm 0) to it.
    let mut firsts = Vec::new();
    let mut operational_wins = 0;
    for frac in [0.8, 0.6, 0.4] {
        let target = reachable + frac * (start - reachable);
        let hits: Vec<Option<usize>> = trajectories
            .iter()
            .map(|t| {
                t.true_pfd_per_round
                    .iter()
                    .position(|&p| p <= target)
                    .map(|r| r * t.tests_per_round)
            })
            .collect();
        let mut cells = vec![format!("{target:.4}")];
        cells.extend(hits.iter().map(|h| h.map_or("—".into(), |n| n.to_string())));
        print_row(&cells);
        let first = hits.iter().flatten().min().copied();
        firsts.push(match first {
            None => format!("{target:.4}: no arm"),
            Some(n) if hits.iter().all(|&h| h == Some(n)) => {
                format!("{target:.4}: a tie at {n} tests")
            }
            Some(n) => {
                let arms: Vec<&str> = trajectories
                    .iter()
                    .zip(&hits)
                    .filter(|(_, &h)| h == Some(n))
                    .map(|(t, _)| t.method.as_str())
                    .collect();
                format!("{target:.4}: {} first, at {n} tests", arms.join(" and "))
            }
        });
        if let Some(n) = hits[1..].iter().flatten().min() {
            if hits[0].is_none_or(|uniform| *n < uniform) {
                operational_wins += 1;
            }
        }
    }

    println!("\nReading: all arms spend identical budgets per round. Per target:");
    for first in &firsts {
        println!("- {first}");
    }
    println!(
        "The paper's headline claim, that an operational arm reaches a target in\n\
         fewer tests than uniform+pgd, holds at {operational_wins} of {} targets on this run.",
        firsts.len()
    );
    run.finish(JsonValue::arr(trajectories.iter().map(Trajectory::to_json)));
}
