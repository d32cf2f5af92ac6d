//! Head-to-head comparison of test-generation methods on the *operational*
//! yardstick: OP mass of the buggy cells each method uncovers per test
//! budget, and the naturalness of what it finds. A miniature of
//! experiment E2/E3 in `EXPERIMENTS.md`.
//!
//! Run with: `cargo run --release --example method_comparison`

use opad::prelude::*;
use opad_par::Rng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from_u64(5);

    // Observability: record attack counters and layer timings, streaming
    // span events to a JSONL trace alongside the printed table.
    let recorder = Arc::new(LiveRecorder::with_sink(Arc::new(JsonlSink::create(
        "results/method_comparison_trace.jsonl",
    )?)));
    opad::telemetry::install(recorder.clone());

    // Rings: a nonlinear problem with real boundary structure.
    let train = rings(3, 900, 0.15, &uniform_probs(3), &mut rng)?;
    let field = rings(3, 900, 0.15, &zipf_probs(3, 1.5), &mut rng)?;
    let mut net = Network::mlp(&[2, 32, 32, 3], Activation::Relu, &mut rng)?;
    Trainer::new(TrainConfig::new(40, 32), Optimizer::adam(0.01)).fit(
        &mut net,
        train.features(),
        train.labels(),
        None,
        &mut rng,
    )?;
    println!(
        "operational accuracy before testing: {:.3}",
        net.accuracy(field.features(), field.labels())?
    );

    let op = learn_op_gmm(&field, 6, 25, &mut rng)?;
    let partition = CentroidPartition::fit(field.features(), 16, 25, &mut rng)?;
    let cell_op = partition.cell_distribution(field.features(), 0.5)?;
    let guide = OpDensityDetector::new(op.density().clone());
    let ball = NormBall::linf(0.25)?;
    const SEEDS: usize = 60;

    // Methods under comparison. Each gets the same seed budget; seeds for
    // the operational methods come from the OP×margin weighting, the
    // baseline attacks draw seeds uniformly.
    let pgd = Pgd::new(ball, 20, 0.06)?;
    let fgsm = Fgsm::new(0.25)?;
    let rand_fuzz = RandomFuzz::new(ball, 40)?;
    let nat_fuzz = Pgd::new(ball, 20, 0.06)?
        .with_random_start(false)
        .with_restarts(2)
        .guided_by(&guide, 1.5)?;

    let run = |name: &str,
               attack: &dyn Attack,
               weighting: SeedWeighting,
               net: &mut Network,
               rng: &mut Rng|
     -> Result<(), Box<dyn std::error::Error>> {
        let sampler = SeedSampler::new(weighting);
        let weights = sampler.weights(net, &field, Some(op.density()))?;
        let seeds = sampler.sample(&weights, SEEDS, rng)?;
        let mut corpus = AeCorpus::new();
        let mut queries = 0usize;
        for &i in &seeds {
            let (seed, label) = field.sample(i)?;
            let out = attack.run(net, &seed, label, rng)?;
            queries += out.queries;
            if let Some(ae) = classify_outcome(i, &seed, label, &out, op.density(), &partition)? {
                corpus.push(ae);
            }
        }
        println!(
            "{name:<22} | seeds {SEEDS:3} | AEs {:3} | cells {:2} | op-mass {:.3} | mean log-p {:>7.2} | queries {queries}",
            corpus.len(),
            corpus.distinct_cells().len(),
            corpus.op_mass_detected(&cell_op)?,
            corpus.mean_op_log_density().unwrap_or(f64::NEG_INFINITY),
        );
        Ok(())
    };

    println!("\nmethod                 | budget    | found    | operational value");
    run(
        "uniform + random",
        &rand_fuzz,
        SeedWeighting::Uniform,
        &mut net,
        &mut rng,
    )?;
    run(
        "uniform + fgsm",
        &fgsm,
        SeedWeighting::Uniform,
        &mut net,
        &mut rng,
    )?;
    run(
        "uniform + pgd",
        &pgd,
        SeedWeighting::Uniform,
        &mut net,
        &mut rng,
    )?;
    run(
        "op-seeds + pgd",
        &pgd,
        SeedWeighting::OpTimesMargin,
        &mut net,
        &mut rng,
    )?;
    run(
        "opad (op + natural)",
        &nat_fuzz,
        SeedWeighting::OpTimesMargin,
        &mut net,
        &mut rng,
    )?;

    println!(
        "\nRead `op-mass` as \"how much of real operation is covered by the bugs\n\
         this method found\" — the paper's argument is that the bottom rows\n\
         dominate the top ones on that column, even when raw AE counts tie."
    );

    opad::telemetry::uninstall();
    recorder.flush_summary();
    let s = recorder.summary();
    println!(
        "\ntelemetry: {:.0} ms wall, pgd successes {}, fuzz proposals {} — trace in \
         results/method_comparison_trace.jsonl",
        s.wall_ms,
        s.counter("attack.pgd.success").unwrap_or(0),
        s.counter("attack.fuzz.proposals").unwrap_or(0),
    );
    Ok(())
}
