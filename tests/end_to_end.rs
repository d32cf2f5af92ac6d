//! End-to-end integration tests: the full Figure-1 loop on synthetic
//! operational data.

use opad::prelude::*;
use opad_par::Rng;

struct World {
    net: Network,
    train: Dataset,
    field: Dataset,
    op: OperationalProfile<Gmm>,
    partition: CentroidPartition,
}

/// A 1-shard campaign over the world's field data.
fn campaign(
    w: &World,
    target: ReliabilityTarget,
    config: LoopConfig,
    campaign_seed: u64,
) -> ShardedCampaign<Gmm> {
    let config = ShardedConfig {
        shards: 1,
        base: config,
    };
    let (net, op, partition) = (w.net.clone(), w.op.clone(), w.partition.clone());
    ShardedCampaign::new(net, op, partition, &w.field, target, config, campaign_seed).unwrap()
}

fn build_world(seed: u64) -> World {
    let mut rng = Rng::seed_from_u64(seed);
    let cfg = GaussianClustersConfig {
        separation: 2.0,
        std: 0.9,
        ..Default::default()
    };
    let train = gaussian_clusters(&cfg, 300, &uniform_probs(3), &mut rng).unwrap();
    let field = gaussian_clusters(&cfg, 500, &zipf_probs(3, 1.5), &mut rng).unwrap();
    let mut net = Network::mlp(&[2, 24, 3], Activation::Relu, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(25, 32), Optimizer::adam(0.01))
        .fit(&mut net, train.features(), train.labels(), None, &mut rng)
        .unwrap();
    let op = learn_op_gmm(&field, 3, 15, &mut rng).unwrap();
    let partition = CentroidPartition::fit(field.features(), 10, 20, &mut rng).unwrap();
    World {
        net,
        train,
        field,
        op,
        partition,
    }
}

#[test]
fn full_loop_runs_and_reports_consistently() {
    let w = build_world(1);
    let target = ReliabilityTarget::new(1e-5, 0.95).unwrap();
    let config = LoopConfig {
        seeds_per_round: 15,
        eval_per_round: 100,
        max_rounds: 3,
        mc_samples: 800,
        retrain: RetrainConfig {
            epochs: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut lp = campaign(&w, target, config, 2);
    let attack = Pgd::new(NormBall::linf(0.35).unwrap(), 12, 0.08).unwrap();
    let reports = lp.run(&w.field, &w.train, &attack).unwrap();
    assert_eq!(reports.len(), 3, "hard target runs every round");
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.round, i);
        assert!(r.pfd_upper >= r.pfd_mean);
        assert!((0.0..=1.0).contains(&r.op_mass_detected));
        assert!((0.0..=1.0).contains(&r.op_accuracy));
    }
    // Cumulative corpus mass is monotone across rounds.
    for pair in reports.windows(2) {
        assert!(pair[1].op_mass_detected >= pair[0].op_mass_detected - 1e-12);
    }
    // Timeline bookkeeping matches reports.
    assert_eq!(lp.timeline().rounds().len(), 3);
    assert_eq!(
        lp.timeline().total_aes(),
        reports.iter().map(|r| r.aes_found).sum::<usize>()
    );
}

#[test]
fn detected_aes_satisfy_the_operational_ae_definition() {
    let w = build_world(3);
    let mut net = w.net;
    let guide = OpDensityDetector::new(w.op.density().clone());
    let ball = NormBall::linf(0.3).unwrap();
    let tau = -6.0; // log-density bar
    let fuzz = Pgd::new(ball, 20, 0.06)
        .unwrap()
        .with_random_start(false)
        .with_restarts(2)
        .guided_by(&guide, 1.0)
        .unwrap()
        .with_min_naturalness(tau)
        .unwrap();
    let sampler = SeedSampler::new(SeedWeighting::OpTimesMargin);
    let mut rng = Rng::seed_from_u64(4);
    let weights = sampler
        .weights(&mut net, &w.field, Some(w.op.density()))
        .unwrap();
    let seeds = sampler.sample(&weights, 40, &mut rng).unwrap();
    let mut corpus = AeCorpus::new();
    for &i in &seeds {
        let (seed, label) = w.field.sample(i).unwrap();
        let out = fuzz.run(&mut net, &seed, label, &mut rng).unwrap();
        if let Some(ae) =
            classify_outcome(i, &seed, label, &out, w.op.density(), &w.partition).unwrap()
        {
            corpus.push(ae);
        }
    }
    assert!(!corpus.is_empty(), "should find operational AEs");
    for ae in corpus.aes() {
        // (1) in the ball, (2) misclassified, (3) natural enough.
        assert!(ball.contains(&ae.seed, &ae.candidate));
        assert_ne!(ae.predicted, ae.label);
        assert!(
            ae.op_log_density >= tau,
            "AE below naturalness bar: {}",
            ae.op_log_density
        );
        // Misclassification is real: re-query the model.
        let batch = ae.candidate.reshape(&[1, 2]).unwrap();
        assert_eq!(net.predict_labels(&batch).unwrap()[0], ae.predicted);
    }
}

#[test]
fn retraining_reduces_reattack_success() {
    let w = build_world(5);
    let mut net = w.net;
    let mut rng = Rng::seed_from_u64(6);
    let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 12, 0.08).unwrap();
    let sampler = SeedSampler::new(SeedWeighting::OpTimesMargin);
    let weights = sampler
        .weights(&mut net, &w.field, Some(w.op.density()))
        .unwrap();
    let seeds = sampler.sample(&weights, 50, &mut rng).unwrap();

    let attack_once = |net: &mut Network, rng: &mut Rng| -> AeCorpus {
        let mut corpus = AeCorpus::new();
        for &i in &seeds {
            let (seed, label) = w.field.sample(i).unwrap();
            let out = attack.run(net, &seed, label, rng).unwrap();
            if let Some(ae) =
                classify_outcome(i, &seed, label, &out, w.op.density(), &w.partition).unwrap()
            {
                corpus.push(ae);
            }
        }
        corpus
    };

    let before = attack_once(&mut net, &mut rng);
    assert!(!before.is_empty());
    retrain_with_aes(
        &mut net,
        &w.train,
        &before,
        Some(w.op.density()),
        &RetrainConfig {
            epochs: 15,
            ae_boost: 5.0,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let after = attack_once(&mut net, &mut rng);
    assert!(
        after.len() <= before.len(),
        "retraining should not increase AEs on the same seeds: {} → {}",
        before.len(),
        after.len()
    );
}

#[test]
fn loop_is_deterministic_across_identical_runs() {
    let run = |seed| {
        let w = build_world(seed);
        let target = ReliabilityTarget::new(1e-5, 0.95).unwrap();
        let config = LoopConfig {
            seeds_per_round: 10,
            eval_per_round: 60,
            max_rounds: 2,
            mc_samples: 400,
            retrain: RetrainConfig {
                epochs: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut lp = campaign(&w, target, config, 1234);
        let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 8, 0.08).unwrap();
        lp.run(&w.field, &w.train, &attack).unwrap()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b);
    let c = run(8);
    assert_ne!(a, c, "different worlds should differ");
}

#[test]
fn detector_plane_scores_every_round() {
    // Detectors attached to the campaign score each round's fresh AEs
    // and the per-round summary lands on RoundReport::detector_scores in
    // attachment order.
    use std::sync::Arc;
    let w = build_world(11);
    let target = ReliabilityTarget::new(1e-5, 0.95).unwrap();
    let config = LoopConfig {
        seeds_per_round: 12,
        eval_per_round: 80,
        max_rounds: 2,
        mc_samples: 400,
        retrain: RetrainConfig {
            epochs: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut magnet = Magnet::new(2, 1).unwrap();
    magnet.fit(&w.field).unwrap();
    let op_density = OpDensityDetector::new(w.op.density().clone());
    let mut lp = campaign(&w, target, config, 12);
    lp.attach_detector(Arc::new(magnet));
    lp.attach_detector(Arc::new(op_density));
    assert_eq!(lp.detector_names(), vec!["magnet", "op_density"]);

    let attack = Pgd::new(NormBall::linf(0.35).unwrap(), 12, 0.08).unwrap();
    let reports = lp.run(&w.field, &w.train, &attack).unwrap();
    assert_eq!(reports.len(), 2);
    for r in &reports {
        assert_eq!(r.detector_scores.len(), 2, "one summary per detector");
        assert_eq!(r.detector_scores[0].detector, "magnet");
        assert_eq!(r.detector_scores[1].detector, "op_density");
        for ds in &r.detector_scores {
            assert_eq!(ds.scored, r.aes_found, "detectors score the round corpus");
            assert!(ds.mean_score.is_finite(), "round mean must never be NaN");
        }
    }
}

#[test]
fn operational_mismatch_shows_up_in_weighted_accuracy() {
    // E1's mechanism as an invariant: with a skewed OP, class-weighted
    // accuracy under the OP differs from balanced test accuracy whenever
    // per-class recalls differ.
    let w = build_world(9);
    let mut net = w.net;
    let pred = net.predict_labels(w.field.features()).unwrap();
    let cm = ConfusionMatrix::from_predictions(w.field.labels(), &pred, 3).unwrap();
    let balanced = cm.weighted_accuracy(&uniform_probs(3)).unwrap();
    let operational = cm.weighted_accuracy(&zipf_probs(3, 1.5)).unwrap();
    // Both are probabilities and generally differ.
    assert!((0.0..=1.0).contains(&balanced));
    assert!((0.0..=1.0).contains(&operational));
    let recalls: Vec<f64> = cm.per_class_recall().into_iter().flatten().collect();
    let spread = recalls.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - recalls.iter().cloned().fold(f64::INFINITY, f64::min);
    if spread > 1e-6 {
        assert!(
            (balanced - operational).abs() > 1e-9,
            "unequal recalls must shift OP-weighted accuracy"
        );
    }
}
