//! The full Figure-1 loop on the vision-like glyph dataset: a conv-net
//! classifier, a skewed operational profile, and iterative
//! sample → fuzz → retrain → assess rounds until the reliability target
//! is met (or the round budget runs out).
//!
//! Run with: `cargo run --release --example glyph_pipeline`

use opad::nn::{ActivationLayer, Conv2d, Dense, Layer, MaxPool2d};
use opad::prelude::*;
use opad_par::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from_u64(23);

    // Glyph raster images: 12×12 pixels, 6 classes.
    let gcfg = GlyphConfig {
        num_classes: 6,
        ..Default::default()
    };
    let train = glyphs(&gcfg, 900, &uniform_probs(6), &mut rng)?;
    // Operation sees mostly the first two glyph types.
    let op_probs = zipf_probs(6, 2.0);
    let field = glyphs(&gcfg, 900, &op_probs, &mut rng)?;
    println!("operational class skew: {op_probs:?}");

    // A small conv net: 1×12×12 → conv(4, k3) → relu → pool2 → dense → 6.
    let mut net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(1, 12, 12, 4, 3, &mut rng)?),
        Layer::Activation(ActivationLayer::new(Activation::Relu)),
        Layer::MaxPool2d(MaxPool2d::new(4, 10, 10, 2)?),
        Layer::Dense(Dense::new(4 * 5 * 5, 6, &mut rng)),
    ])?;
    let mut trainer = Trainer::new(TrainConfig::new(12, 32), Optimizer::adam(0.005));
    trainer.fit(&mut net, train.features(), train.labels(), None, &mut rng)?;
    println!(
        "initial accuracy — train: {:.3}, operational: {:.3}",
        net.accuracy(train.features(), train.labels())?,
        net.accuracy(field.features(), field.labels())?,
    );

    // Learn the OP (KDE works well in pixel space) and build the campaign.
    let op = learn_op_kde(&field)?;
    let partition = CentroidPartition::fit(field.features(), 12, 15, &mut rng)?;
    let target = ReliabilityTarget::new(0.05, 0.90)?;
    let config = LoopConfig {
        seeds_per_round: 25,
        eval_per_round: 250,
        weighting: SeedWeighting::OpTimesMargin,
        priority_feedback: true,
        retrain: RetrainConfig {
            epochs: 6,
            learning_rate: 0.02,
            ..Default::default()
        },
        ae_evidence: true,
        max_rounds: 4,
        mc_samples: 1500,
    };
    let config = ShardedConfig {
        shards: 1,
        base: config,
    };
    let mut testing = ShardedCampaign::new(net, op, partition, &field, target, config, 23)?;

    // Pixel-space attack: small L∞ ball, clipped to valid pixel range.
    let attack = Pgd::new(NormBall::linf(0.12)?, 12, 0.03)?.with_clip(0.0, 1.0)?;

    println!("\nround | seeds | AEs | op-mass | pfd-mean | pfd-95%UB | op-acc | stop");
    let reports = testing.run(&field, &train, &attack)?;
    for r in &reports {
        println!(
            "{:5} | {:5} | {:3} | {:7.3} | {:8.4} | {:9.4} | {:6.3} | {}",
            r.round,
            r.seeds_attacked,
            r.aes_found,
            r.op_mass_detected,
            r.pfd_mean,
            r.pfd_upper,
            r.op_accuracy,
            if r.target_met { "yes" } else { "no" }
        );
    }
    println!(
        "\ntotal: {} test cases, {} operational AEs, target met: {}",
        testing.timeline().total_tests(),
        testing.corpus().len(),
        testing.timeline().target_met()
    );
    if let Some(imp) = testing.timeline().improvement() {
        println!("pfd improvement across rounds: {:.1}%", imp * 100.0);
    }
    Ok(())
}
