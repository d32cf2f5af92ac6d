//! E9 (ablation) — the Fig.-1 feedback arrow: does boosting the next
//! round's seed weights by the reliability model's cell priorities help?
//!
//! Two otherwise-identical loops run with `priority_feedback` on/off; we
//! compare per-round AE discovery, the spread of demands across cells,
//! and the final pfd. A second block ablates `ae_evidence` (whether
//! detected AEs count as failed demands in the claim).
//!
//! Run with: `cargo run --release -p opad-bench --bin exp9_feedback_ablation`

use opad_attack::{NormBall, Pgd};
use opad_bench::{build_cluster_world, print_header, print_row, ClusterWorldConfig, ExpRun};
use opad_core::{LoopConfig, RetrainConfig, SeedWeighting, ShardedCampaign, ShardedConfig};
use opad_reliability::ReliabilityTarget;
use opad_telemetry::JsonValue;

fn main() {
    let cfg = ClusterWorldConfig {
        seed: 93,
        n_field: 900,
        ..Default::default()
    };
    let base = build_cluster_world(&cfg);
    let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 12, 0.06).unwrap();
    let run = ExpRun::begin(
        "exp9_feedback_ablation",
        JsonValue::obj([
            ("world", cfg.to_json()),
            ("rounds", 4u32.into()),
            ("seeds_per_round", 40u32.into()),
        ]),
    );
    let mut rows = Vec::new();

    println!("## E9 — ablations of the loop's design choices\n");
    for (label, feedback, ae_evidence) in [
        ("feedback on, AE-evidence on", true, true),
        ("feedback off, AE-evidence on", false, true),
        ("feedback on, AE-evidence off", true, false),
    ] {
        println!("### {label}\n");
        print_header(&["round", "AEs", "cum. op-mass", "pfd mean", "pfd 90% UB"]);
        let config = LoopConfig {
            seeds_per_round: 40,
            eval_per_round: 150,
            weighting: SeedWeighting::OpTimesMargin,
            priority_feedback: feedback,
            retrain: RetrainConfig {
                epochs: 6,
                ..Default::default()
            },
            ae_evidence,
            max_rounds: 4,
            mc_samples: 1000,
        };
        let target = ReliabilityTarget::new(1e-9, 0.90).unwrap(); // never stop early
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
            9300,
        )
        .unwrap();
        for round in 0..4usize {
            let r = lp.run_round(&base.field, &base.train, &attack).unwrap();
            print_row(&[
                format!("{round}"),
                format!("{}", r.aes_found),
                format!("{:.3}", r.op_mass_detected),
                format!("{:.4}", r.pfd_mean),
                format!("{:.4}", r.pfd_upper),
            ]);
            rows.push(JsonValue::obj([
                ("setting", label.into()),
                ("round", round.into()),
                ("aes", r.aes_found.into()),
                ("op_mass", r.op_mass_detected.into()),
                ("pfd_mean", r.pfd_mean.into()),
                ("pfd_upper", r.pfd_upper.into()),
            ]));
        }
        println!();
    }

    println!(
        "Reading: with feedback on, later rounds chase the cells the claim is\n\
         still uncertain about — cumulative op-mass should grow at least as\n\
         fast as without feedback. AE-evidence inflates the measured pfd by\n\
         design (a conservative, robustness-aware claim); turning it off\n\
         reveals the operational-demand-only estimate."
    );
    run.finish(JsonValue::Arr(rows));
}
