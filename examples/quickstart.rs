//! Quickstart: train a classifier on balanced data, learn the skewed
//! operational profile from field data, and detect *operational*
//! adversarial examples around OP-weighted seeds.
//!
//! Run with: `cargo run --release --example quickstart`

use opad::prelude::*;
use opad_par::Rng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from_u64(7);

    // 0. Observability: stream span/timing events to a JSONL trace. Every
    //    instrumented call below (training epochs, reliability updates,
    //    matmuls) lands in this file; the recorder aggregates the rest.
    let recorder = Arc::new(LiveRecorder::with_sink(Arc::new(JsonlSink::create(
        "results/quickstart_trace.jsonl",
    )?)));
    opad::telemetry::install(recorder.clone());

    // 1. Data: training is collected *balanced*; operation is Zipf-skewed
    //    toward class 0 — the mismatch at the heart of the paper.
    let cfg = GaussianClustersConfig {
        separation: 2.0,
        std: 1.0,
        ..Default::default()
    };
    let train = gaussian_clusters(&cfg, 600, &uniform_probs(3), &mut rng)?;
    let field = gaussian_clusters(&cfg, 800, &zipf_probs(3, 1.5), &mut rng)?;
    println!("train class distribution: {:?}", train.class_distribution());
    println!("field class distribution: {:?}", field.class_distribution());

    // 2. Train the model under test.
    let mut net = Network::mlp(&[2, 32, 3], Activation::Relu, &mut rng)?;
    let mut trainer = Trainer::new(TrainConfig::new(30, 32), Optimizer::adam(0.01));
    trainer.fit(&mut net, train.features(), train.labels(), None, &mut rng)?;
    println!(
        "train accuracy: {:.3}, field (operational) accuracy: {:.3}",
        net.accuracy(train.features(), train.labels())?,
        net.accuracy(field.features(), field.labels())?,
    );

    // 3. RQ1 — learn the operational profile from the field data.
    let op = learn_op_gmm(&field, 3, 20, &mut rng)?;
    println!("learned OP class probabilities: {:?}", op.class_probs());

    // 4. RQ2 — weight-based seed selection: OP density × decision margin.
    let sampler = SeedSampler::new(SeedWeighting::OpTimesMargin);
    let weights = sampler.weights(&mut net, &field, Some(op.density()))?;
    let seeds = sampler.sample(&weights, 40, &mut rng)?;

    // 5. RQ3 — naturalness-guided fuzzing around each seed: PGD guided by
    // the learned OP density.
    let guide = OpDensityDetector::new(op.density().clone());
    let ball = NormBall::linf(0.4)?;
    let fuzz = Pgd::new(ball, 25, 0.08)?
        .with_random_start(false)
        .with_restarts(2)
        .guided_by(&guide, 1.0)?;
    let partition = CentroidPartition::fit(field.features(), 12, 25, &mut rng)?;
    let cell_op = partition.cell_distribution(field.features(), 0.5)?;

    let mut corpus = AeCorpus::new();
    for &i in &seeds {
        let (seed, label) = field.sample(i)?;
        let outcome = fuzz.run(&mut net, &seed, label, &mut rng)?;
        if let Some(ae) = classify_outcome(i, &seed, label, &outcome, op.density(), &partition)? {
            corpus.push(ae);
        }
    }
    println!(
        "detected {} operational AEs across {} distinct OP cells",
        corpus.len(),
        corpus.distinct_cells().len()
    );
    println!(
        "OP mass of buggy cells: {:.3}; mean AE log-density: {:.2}",
        corpus.op_mass_detected(&cell_op)?,
        corpus.mean_op_log_density().unwrap_or(f64::NEG_INFINITY)
    );

    // 6. RQ4 — OP-aware retraining on the detected AEs…
    let before = net.accuracy(field.features(), field.labels())?;
    retrain_with_aes(
        &mut net,
        &train,
        &corpus,
        Some(op.density()),
        &RetrainConfig::default(),
        &mut rng,
    )?;
    let after = net.accuracy(field.features(), field.labels())?;
    println!("operational accuracy: {before:.3} → {after:.3} after retraining");

    // 7. RQ5 — a reliability claim on the retrained model.
    let mut model = CellReliabilityModel::new(cell_op)?;
    let d = field.feature_dim();
    for i in 0..field.len() {
        let (x, label) = field.sample(i)?;
        let cell = partition.cell_of(&field.features().as_slice()[i * d..(i + 1) * d])?;
        let pred = net.predict_labels(&x.reshape(&[1, d])?)?[0];
        model.observe(cell, pred != label)?;
    }
    let upper = model.pfd_upper_bound(0.95, 4000, &mut rng)?;
    println!(
        "posterior pfd: {:.4} (95% upper bound {:.4})",
        model.pfd_mean(),
        upper
    );

    // 8. Flush the trace and print what the run cost.
    opad::telemetry::uninstall();
    recorder.flush_summary();
    let s = recorder.summary();
    println!(
        "telemetry: {:.0} ms wall, {} events — trace in results/quickstart_trace.jsonl",
        s.wall_ms, s.events
    );
    Ok(())
}
