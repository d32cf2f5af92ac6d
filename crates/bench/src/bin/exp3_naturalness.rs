//! E3 — Naturalness/operational-ness of the AEs each method finds, and a
//! λ-sweep for naturalness-guided PGD.
//!
//! Reported: mean log-density of found AEs under the *ground-truth* OP
//! (higher = more operational), plus the fraction of AEs clearing a
//! naturalness bar τ set at the 10th percentile of field-data density.
//!
//! Run with: `cargo run --release -p opad-bench --bin exp3_naturalness`

use opad_attack::{Attack, NormBall, Pgd};
use opad_bench::campaign::CampaignParams;
use opad_bench::{
    attack_campaign, build_cluster_world, print_header, print_row, ClusterWorldConfig, ExpRun,
    Method,
};
use opad_core::{classify_outcome, AeCorpus, SeedSampler, SeedWeighting};
use opad_detect::OpDensityDetector;
use opad_opmodel::Density;
use opad_par::Rng;
use opad_telemetry::JsonValue;

fn main() {
    let cfg = ClusterWorldConfig {
        seed: 31,
        n_field: 800,
        ..Default::default()
    };
    let base = build_cluster_world(&cfg);

    // Naturalness bar: 10th percentile of ground-truth density over field
    // data — "at least as plausible as the bottom decile of real traffic".
    let d = base.field.feature_dim();
    let mut densities: Vec<f64> = (0..base.field.len())
        .map(|i| {
            base.truth
                .log_density(&base.field.features().as_slice()[i * d..(i + 1) * d])
                .unwrap()
        })
        .collect();
    densities.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let tau = densities[base.field.len() / 10];
    let run = ExpRun::begin(
        "exp3_naturalness",
        JsonValue::obj([
            ("world", cfg.to_json()),
            ("tau", tau.into()),
            ("budget", 150u32.into()),
            ("lambda_sweep", JsonValue::arr([0.0, 0.5, 1.0, 2.0, 4.0])),
        ]),
    );
    println!("## E3 — naturalness of detected AEs (τ = {tau:.2}, 10th pct of field density)\n");

    let natural_fraction = |corpus: &AeCorpus| -> f64 {
        if corpus.is_empty() {
            return 0.0;
        }
        let ok = corpus
            .aes()
            .iter()
            .filter(|ae| base.truth.log_density(ae.candidate.as_slice()).unwrap() >= tau)
            .count();
        ok as f64 / corpus.len() as f64
    };

    let mut rows = Vec::new();
    print_header(&["setting", "AEs", "mean truth log-p", "natural fraction"]);

    // Part 1: the standard methods.
    for method in Method::all() {
        let mut net = base.net.clone();
        let mut rng = Rng::seed_from_u64(42);
        let r = attack_campaign(
            method,
            &mut net,
            &base.field,
            &base.test,
            base.op.density(),
            &base.truth,
            &base.partition,
            150,
            CampaignParams::default(),
            &mut rng,
        );
        let frac = natural_fraction(&r.corpus);
        print_row(&[
            r.method.clone(),
            format!("{}", r.aes),
            format!("{:.2}", r.mean_truth_log_density),
            format!("{frac:.3}"),
        ]);
        rows.push(JsonValue::obj([
            ("setting", r.method.into()),
            ("aes", r.aes.into()),
            ("mean_truth_log_density", r.mean_truth_log_density.into()),
            ("natural_fraction", frac.into()),
        ]));
    }
    println!("|---|---|---|---|");

    // Part 2: λ sweep for naturalness-guided PGD (λ=0 is PGD starting at
    // the seed).
    let ball = NormBall::linf(0.3).unwrap();
    let guide = OpDensityDetector::new(base.op.density().clone());
    let sampler = SeedSampler::new(SeedWeighting::OpTimesMargin);
    let lambdas = [0.0f32, 0.5, 1.0, 2.0, 4.0];
    let mut columns: [Vec<f64>; 3] = Default::default();
    for lambda in lambdas {
        let mut net = base.net.clone();
        let mut rng = Rng::seed_from_u64(43);
        let fuzz = Pgd::new(ball, 15, 0.06)
            .expect("nonzero steps")
            .with_random_start(false)
            .with_restarts(2)
            .guided_by(&guide, lambda)
            .expect("finite weight");
        let weights = sampler
            .weights(&mut net, &base.field, Some(base.op.density()))
            .unwrap();
        let seeds = sampler.sample(&weights, 150, &mut rng).unwrap();
        let mut corpus = AeCorpus::new();
        for &i in &seeds {
            let (seed, label) = base.field.sample(i).unwrap();
            let out = fuzz.run(&mut net, &seed, label, &mut rng).unwrap();
            if let Some(ae) =
                classify_outcome(i, &seed, label, &out, base.op.density(), &base.partition).unwrap()
            {
                corpus.push(ae);
            }
        }
        let mean_ld = if corpus.is_empty() {
            f64::NEG_INFINITY
        } else {
            corpus
                .aes()
                .iter()
                .map(|ae| base.truth.log_density(ae.candidate.as_slice()).unwrap())
                .sum::<f64>()
                / corpus.len() as f64
        };
        let frac = natural_fraction(&corpus);
        for (column, value) in columns.iter_mut().zip([corpus.len() as f64, mean_ld, frac]) {
            column.push(value);
        }
        let setting = format!("natural-fuzz λ={lambda}");
        print_row(&[
            setting.clone(),
            format!("{}", corpus.len()),
            format!("{mean_ld:.2}"),
            format!("{frac:.3}"),
        ]);
        rows.push(JsonValue::obj([
            ("setting", setting.into()),
            ("aes", corpus.len().into()),
            ("mean_truth_log_density", mean_ld.into()),
            ("natural_fraction", frac.into()),
        ]));
    }

    let [count, mean_ld, frac] = columns.map(|c| trend(&lambdas, &c));
    println!(
        "\nReading: as λ goes from 0 to 4, the AE count {count},\n\
         the mean ground-truth log-density {mean_ld},\n\
         and the natural fraction {frac}.\n\
         Operational AEs ⊂ natural AEs ⊂ all AEs (Sec. I)."
    );
    run.finish(JsonValue::Arr(rows));
}

/// How a column moves along the λ sweep.
fn trend(lambdas: &[f32], column: &[f64]) -> String {
    let rises = column.windows(2).all(|w| w[1] >= w[0]);
    let falls = column.windows(2).all(|w| w[1] <= w[0]);
    match (rises, falls) {
        (true, true) => "is flat".into(),
        (true, false) => "rises".into(),
        (false, true) => "falls".into(),
        (false, false) => {
            let top = (0..column.len())
                .max_by(|&a, &b| column[a].total_cmp(&column[b]))
                .expect("the sweep has rows");
            format!("is not monotone (highest at λ = {})", lambdas[top])
        }
    }
}
