//! E2 — Operational-AE detection efficiency across methods and budgets
//! (the headline comparison the paper's Sec. IV promises).
//!
//! Every method gets the same seed budget; we report the OP mass of the
//! buggy cells it uncovers (the quantity that bounds delivered-reliability
//! improvement), raw AE counts, and model queries.
//!
//! Run with: `cargo run --release -p opad-bench --bin exp2_detection_efficiency`

use opad_bench::campaign::{CampaignParams, CampaignResult};
use opad_bench::density_percentile;
use opad_bench::{
    attack_campaign, build_cluster_world, print_header, print_row, ClusterWorldConfig, ExpRun,
    Method,
};
use opad_par::Rng;
use opad_telemetry::JsonValue;

fn main() {
    let cfg = ClusterWorldConfig {
        seed: 21,
        n_field: 1000,
        ..Default::default()
    };
    let base = build_cluster_world(&cfg);
    let tau = density_percentile(&base.truth, &base.field, 0.1);
    let budgets = [50usize, 100, 200, 400];
    let run = ExpRun::begin(
        "exp2_detection_efficiency",
        JsonValue::obj([
            ("world", cfg.to_json()),
            ("tau", tau.into()),
            ("budgets", JsonValue::arr(budgets)),
        ]),
    );
    println!("## E2 — operational-AE detection efficiency (clusters, ε=0.3 L∞, τ = {tau:.2})\n");
    print_header(&[
        "budget", "method", "AEs", "op-AEs", "Σp(AE)", "cells", "op-mass", "queries",
    ]);

    // Every (budget, method) job owns a cloned model and a fixed-seed RNG,
    // so the parallel sweep is bit-identical to a sequential one.
    let jobs: Vec<(usize, Method)> = budgets
        .iter()
        .flat_map(|&budget| Method::all().into_iter().map(move |m| (budget, m)))
        .collect();
    let results = opad_par::par_map(&jobs, |_, &(budget, method)| {
        let mut net = base.net.clone();
        let mut rng = Rng::seed_from_u64(1000 + budget as u64);
        let r = attack_campaign(
            method,
            &mut net,
            &base.field,
            &base.test,
            base.op.density(),
            &base.truth,
            &base.partition,
            budget,
            CampaignParams {
                tau,
                ..Default::default()
            },
            &mut rng,
        );
        (budget, r)
    });
    let mut rows = Vec::new();
    for (i, &(budget, ref r)) in results.iter().enumerate() {
        {
            print_row(&[
                format!("{budget}"),
                r.method.clone(),
                format!("{}", r.aes),
                format!("{}", r.operational_aes),
                format!("{:.3}", r.sum_truth_density),
                format!("{}", r.cells),
                format!("{:.3}", r.op_mass),
                format!("{}", r.queries),
            ]);
            rows.push(JsonValue::obj([
                ("budget", budget.into()),
                ("method", r.method.as_str().into()),
                ("aes", r.aes.into()),
                ("operational_aes", r.operational_aes.into()),
                ("sum_truth_density", r.sum_truth_density.into()),
                ("cells", r.cells.into()),
                ("op_mass", r.op_mass.into()),
                ("queries", r.queries.into()),
            ]));
        }
        if i % 5 == 4 {
            println!("|---|---|---|---|---|---|---|---|");
        }
    }
    // Per budget: each OP-aware arm's Σp(AE) over the best OP-blind arm's,
    // and which side has more op-mass.
    let mut ratios = Vec::new();
    let (mut aware_mass, mut blind_mass) = (Vec::new(), Vec::new());
    for rows in results.chunks(Method::all().len()) {
        let of = |m: Method| {
            let row = rows.iter().find(|(_, r)| r.method == m.name());
            &row.expect("every method runs at every budget").1
        };
        let best = |ms: &[Method], f: fn(&CampaignResult) -> f64| {
            ms.iter().map(|&m| f(of(m))).fold(f64::MIN, f64::max)
        };
        let blind = [
            Method::UniformRandom,
            Method::UniformFgsm,
            Method::UniformPgd,
        ];
        let aware = [Method::OpPgd, Method::Opad];
        let blind_sum = best(&blind, |r| r.sum_truth_density);
        ratios.extend(aware.map(|m| of(m).sum_truth_density / blind_sum));
        let budget = rows[0].0.to_string();
        if best(&aware, |r| r.op_mass) >= best(&blind, |r| r.op_mass) {
            aware_mass.push(budget);
        } else {
            blind_mass.push(budget);
        }
    }
    let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().copied().fold(lo, f64::max);
    let list = |v: &[String]| {
        if v.is_empty() {
            "none".to_string()
        } else {
            v.join(", ")
        }
    };
    println!(
        "\nReading: the `op-AEs` (AEs clearing the operational-plausibility bar)\n\
         and `Σp(AE)` (total encounter-rate weight of discovered failures)\n\
         columns are the paper's effectiveness notion. Across budgets the\n\
         OP-aware arms' Σp(AE) is {lo:.1}–{hi:.1}× the best OP-blind arm's.\n\
         The op-mass column favours the OP-aware arms at budgets {} and\n\
         the OP-blind ones at {}.",
        list(&aware_mass),
        list(&blind_mass)
    );
    run.finish(JsonValue::Arr(rows));
}
