//! F1 — the paper's only figure: the five-step iterative workflow.
//!
//! Runs one full loop with verbose per-step tracing so the printed output
//! mirrors Figure 1: (1) learn OP → (2) sample seeds → (3) fuzz →
//! (4) retrain → (5) assess, with the feedback arrow from 5 back to 2.
//!
//! Run with: `cargo run --release -p opad-bench --bin fig1_workflow`

use opad_attack::{NormBall, Pgd};
use opad_bench::{build_cluster_world, ClusterWorldConfig, ExpRun};
use opad_core::{LoopConfig, RetrainConfig, SeedWeighting, ShardedCampaign, ShardedConfig};
use opad_detect::OpDensityDetector;
use opad_reliability::{Assessment, ReliabilityTarget};
use opad_telemetry::JsonValue;

fn main() {
    let cfg = ClusterWorldConfig {
        seed: 91,
        n_field: 800,
        ..Default::default()
    };
    let run = ExpRun::begin(
        "fig1_workflow",
        JsonValue::obj([
            ("world", cfg.to_json()),
            ("max_rounds", 6u32.into()),
            ("target_pfd", 0.10.into()),
        ]),
    );
    println!("┌─ Step 1 (RQ1): learn the operational profile ─────────────────┐");
    let base = build_cluster_world(&cfg);
    println!(
        "│ field data: {} samples, class skew {:?}",
        base.field.len(),
        base.field
            .class_distribution()
            .iter()
            .map(|p| (p * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "│ learned OP: class probs {:?}, {}-component GMM density",
        base.op
            .class_probs()
            .iter()
            .map(|p| (p * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        base.op.density().num_components()
    );
    println!("└────────────────────────────────────────────────────────────────┘");

    let guide = OpDensityDetector::new(base.op.density().clone());
    let attack = Pgd::new(NormBall::linf(0.3).expect("positive radius"), 15, 0.06)
        .expect("nonzero steps")
        .with_random_start(false)
        .with_restarts(2)
        .guided_by(&guide, 1.5)
        .expect("finite weight");
    let target = ReliabilityTarget::new(0.10, 0.90).unwrap();
    let config = LoopConfig {
        seeds_per_round: 40,
        eval_per_round: 150,
        weighting: SeedWeighting::OpTimesMargin,
        priority_feedback: true,
        retrain: RetrainConfig {
            epochs: 8,
            ae_boost: 4.0,
            ..Default::default()
        },
        ae_evidence: true,
        max_rounds: 6,
        mc_samples: 1500,
    };
    let mut lp = ShardedCampaign::new(
        base.net,
        base.op,
        base.partition,
        &base.field,
        target,
        ShardedConfig {
            shards: 1,
            base: config,
        },
        9100,
    )
    .unwrap();

    loop {
        let round = lp.timeline().rounds().len();
        if round >= 6 {
            println!("round budget exhausted without meeting the target");
            break;
        }
        println!("\n═══ loop iteration {round} ═══");
        println!(
            "┌─ Step 2 (RQ2): weight-based seed sampling (op×margin{}) ─┐",
            if round > 0 {
                " × cell-priority feedback"
            } else {
                ""
            }
        );
        let report = lp.run_round(&base.field, &base.train, &attack).unwrap();
        println!("│ attacked {} seeds", report.seeds_attacked);
        println!("└─ Step 3 (RQ3): naturalness-guided fuzzing ──────────────────┘");
        println!(
            "   detected {} operational AEs (cumulative op-mass {:.3})",
            report.aes_found, report.op_mass_detected
        );
        println!("┌─ Step 5 (RQ5): reliability assessment ──────────────────────┐");
        println!(
            "│ pfd mean {:.4}, 90% upper bound {:.4}, operational accuracy {:.3}",
            report.pfd_mean, report.pfd_upper, report.op_accuracy
        );
        if report.target_met {
            println!("│ claim `pfd ≤ 0.10 @ 90%` SUPPORTED → stop testing");
            println!("└──────────────────────────────────────────────────────────────┘");
            break;
        }
        println!("│ claim not yet supported → feedback to step 2 and retrain");
        println!("└─ Step 4 (RQ4): OP-weighted adversarial retraining ──────────┘");
    }

    println!("\n─── final summary ───");
    println!(
        "rounds: {}, total test cases: {}, operational AEs: {}, target met: {}",
        lp.timeline().rounds().len(),
        lp.timeline().total_tests(),
        lp.corpus().len(),
        lp.timeline().target_met()
    );
    if let Some(imp) = lp.timeline().improvement() {
        println!("pfd improvement first→last round: {:.1}%", imp * 100.0);
    }
    run.finish(JsonValue::arr(
        lp.timeline().rounds().iter().map(Assessment::to_json),
    ));
}
