//! Cross-crate integration: OP learning quality, naturalness signals on
//! image data, and the conv-net + attack chain.

use opad::nn::{ActivationLayer, Conv2d, Dense, Layer, MaxPool2d};
use opad::prelude::*;
use opad_par::Rng;

#[test]
fn op_estimation_error_shrinks_with_more_field_data() {
    let mut rng = Rng::seed_from_u64(0);
    let truth = zipf_probs(4, 1.2);
    let cfg = GaussianClustersConfig {
        num_classes: 4,
        ..Default::default()
    };
    let mut errors = Vec::new();
    for n in [50usize, 500, 5000] {
        let field = gaussian_clusters(&cfg, n, &truth, &mut rng).unwrap();
        let op = learn_op_gmm(&field, 4, 10, &mut rng).unwrap();
        errors.push(tv_distance(op.class_probs(), &truth).unwrap());
    }
    assert!(errors[2] < errors[0], "TV error should shrink: {errors:?}");
    assert!(errors[2] < 0.05, "large-sample error {:.4}", errors[2]);
}

#[test]
fn learned_density_ranks_points_like_the_truth() {
    let mut rng = Rng::seed_from_u64(1);
    let cfg = GaussianClustersConfig::default();
    let field = gaussian_clusters(&cfg, 2000, &uniform_probs(3), &mut rng).unwrap();
    let learned = learn_op_gmm(&field, 3, 25, &mut rng).unwrap();
    // True density from the generator's own parameters.
    let truth = Gmm::from_components(
        (0..3)
            .map(|c| GmmComponent {
                weight: 1.0 / 3.0,
                mean: opad::data::cluster_center(&cfg, c),
                std: cfg.std as f64,
            })
            .collect(),
    )
    .unwrap();
    // Rank agreement on probe points: near-centre beats mid beats far.
    let c0 = opad::data::cluster_center(&cfg, 0);
    let probes = [c0.clone(), vec![1.0, 1.0], vec![8.0, 8.0]];
    let t: Vec<f64> = probes
        .iter()
        .map(|p| truth.log_density(p).unwrap())
        .collect();
    let l: Vec<f64> = probes
        .iter()
        .map(|p| learned.log_density(p).unwrap())
        .collect();
    assert!(t[0] > t[1] && t[1] > t[2]);
    assert!(l[0] > l[1] && l[1] > l[2], "learned ranking broken: {l:?}");
}

#[test]
fn conv_net_glyph_attack_chain() {
    let mut rng = Rng::seed_from_u64(2);
    let gcfg = GlyphConfig {
        num_classes: 4,
        size: 10,
        ..Default::default()
    };
    let train = glyphs(&gcfg, 400, &uniform_probs(4), &mut rng).unwrap();
    let mut net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(1, 10, 10, 3, 3, &mut rng).unwrap()),
        Layer::Activation(ActivationLayer::new(Activation::Relu)),
        Layer::MaxPool2d(MaxPool2d::new(3, 8, 8, 2).unwrap()),
        Layer::Dense(Dense::new(3 * 4 * 4, 4, &mut rng)),
    ])
    .unwrap();
    Trainer::new(TrainConfig::new(10, 32), Optimizer::adam(0.005))
        .fit(&mut net, train.features(), train.labels(), None, &mut rng)
        .unwrap();
    let acc = net.accuracy(train.features(), train.labels()).unwrap();
    assert!(acc > 0.9, "glyph conv accuracy {acc}");

    // Attack in pixel space with clipping; candidates stay valid images.
    let pgd = Pgd::new(NormBall::linf(0.3).unwrap(), 10, 0.08)
        .unwrap()
        .with_clip(0.0, 1.0)
        .unwrap();
    let mut successes = 0;
    for i in 0..30 {
        let (seed, label) = train.sample(i).unwrap();
        let out = pgd.run(&mut net, &seed, label, &mut rng).unwrap();
        assert!(out
            .candidate
            .as_slice()
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p)));
        assert!(out.linf <= 0.3 + 1e-4);
        if out.success {
            successes += 1;
        }
    }
    // A 0.3 L∞ budget on 10×10 glyphs should break at least some seeds.
    assert!(successes > 0, "PGD found no glyph AEs");
}

#[test]
fn pca_naturalness_flags_adversarial_noise_on_glyphs() {
    let mut rng = Rng::seed_from_u64(3);
    let gcfg = GlyphConfig {
        num_classes: 4,
        ..Default::default()
    };
    let data = glyphs(&gcfg, 300, &uniform_probs(4), &mut rng).unwrap();
    let mut magnet = Magnet::new(data.feature_dim(), 12).unwrap();
    magnet.fit(&data).unwrap();
    // A clean glyph scores less suspicious than the same glyph under large
    // uniform noise (off-manifold).
    let (clean, _) = data.sample(0).unwrap();
    let noisy = {
        let noise = Tensor::rand_uniform(clean.dims(), -0.5, 0.5, &mut rng);
        clean.checked_add(&noise).unwrap().clamp(0.0, 1.0)
    };
    let s_clean = magnet.score(clean.as_slice()).unwrap();
    let s_noisy = magnet.score(noisy.as_slice()).unwrap();
    assert!(
        s_clean < s_noisy,
        "clean {s_clean} should score below noisy {s_noisy}"
    );
}

#[test]
fn kde_naturalness_agrees_with_generating_skew() {
    // Inputs from the heavy class of a skewed glyph OP are, on average,
    // more "natural" under a KDE learned on field data than inputs from
    // the rare class.
    let mut rng = Rng::seed_from_u64(4);
    let gcfg = GlyphConfig {
        num_classes: 3,
        size: 8,
        max_jitter: 1,
        ..Default::default()
    };
    let field = glyphs(&gcfg, 600, &[0.8, 0.15, 0.05], &mut rng).unwrap();
    let op = learn_op_kde(&field).unwrap();
    let probe = glyphs(&gcfg, 200, &uniform_probs(3), &mut rng).unwrap();
    let mut heavy = Vec::new();
    let mut rare = Vec::new();
    let d = probe.feature_dim();
    for i in 0..probe.len() {
        let ld = op
            .log_density(&probe.features().as_slice()[i * d..(i + 1) * d])
            .unwrap();
        match probe.labels()[i] {
            0 => heavy.push(ld),
            2 => rare.push(ld),
            _ => {}
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&heavy) > mean(&rare),
        "heavy-class naturalness {} should beat rare-class {}",
        mean(&heavy),
        mean(&rare)
    );
}

#[test]
fn reliability_model_tracks_true_failure_rate_under_the_op() {
    // Plant a known per-cell failure pattern and check the OP-weighted
    // pfd estimate converges to the analytic value.
    let mut rng = Rng::seed_from_u64(5);
    let op = vec![0.6, 0.3, 0.1];
    let true_pfd = [0.0, 0.2, 1.0];
    let mut model = CellReliabilityModel::new(op.clone()).unwrap();
    for _ in 0..6000 {
        // Draw cell by OP, fail by its true rate.
        let u = rng.gen_f64();
        let cell = if u < 0.6 {
            0
        } else if u < 0.9 {
            1
        } else {
            2
        };
        let failed = rng.gen_f64() < true_pfd[cell];
        model.observe(cell, failed).unwrap();
    }
    let analytic: f64 = op.iter().zip(&true_pfd).map(|(&p, &f)| p * f).sum();
    let est = model.pfd_mean();
    assert!(
        (est - analytic).abs() < 0.02,
        "estimated {est} vs analytic {analytic}"
    );
    let ub = model.pfd_upper_bound(0.95, 3000, &mut rng).unwrap();
    assert!(ub > est && ub < analytic + 0.05);
}

#[test]
fn weighted_sampler_concentrates_tests_on_the_operational_region() {
    let mut rng = Rng::seed_from_u64(6);
    let cfg = GaussianClustersConfig::default();
    // Operation is 90% class 0.
    let field = gaussian_clusters(&cfg, 1000, &[0.9, 0.05, 0.05], &mut rng).unwrap();
    let op = learn_op_gmm(&field, 3, 15, &mut rng).unwrap();
    let mut net = Network::mlp(&[2, 16, 3], Activation::Relu, &mut rng).unwrap();
    let sampler = SeedSampler::new(SeedWeighting::OpDensity);
    let weights = sampler
        .weights(&mut net, &field, Some(op.density()))
        .unwrap();
    let seeds = sampler.sample(&weights, 100, &mut rng).unwrap();
    let class0 = seeds.iter().filter(|&&i| field.labels()[i] == 0).count();
    // At least as concentrated as the field data itself.
    assert!(class0 >= 80, "only {class0}/100 seeds from the heavy class");
}

#[test]
fn corruption_degrades_accuracy_monotonically_with_severity() {
    let mut rng = Rng::seed_from_u64(7);
    let gcfg = opad::data::GlyphConfig {
        num_classes: 4,
        ..Default::default()
    };
    let train = glyphs(&gcfg, 500, &uniform_probs(4), &mut rng).unwrap();
    let mut net = Network::mlp(&[144, 48, 4], Activation::Relu, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(12, 32), Optimizer::adam(0.005))
        .fit(&mut net, train.features(), train.labels(), None, &mut rng)
        .unwrap();
    let probe = glyphs(&gcfg, 300, &uniform_probs(4), &mut rng).unwrap();
    let mut accs = Vec::new();
    for level in opad::data::severity_ladder(Some(12)) {
        let mut data = probe.clone();
        for c in &level {
            data = c.apply(&data, &mut rng).unwrap();
        }
        accs.push(net.accuracy(data.features(), data.labels()).unwrap());
    }
    // Not strictly monotone sample-to-sample, but the harshest level must
    // be clearly worse than the mildest.
    assert!(accs[4] < accs[0], "severity should cost accuracy: {accs:?}");
    assert!(
        accs[0] > 0.8,
        "mild corruption should be survivable: {accs:?}"
    );
}

#[test]
fn targeted_pgd_steers_glyphs_to_a_chosen_class() {
    let mut rng = Rng::seed_from_u64(8);
    let gcfg = opad::data::GlyphConfig {
        num_classes: 4,
        size: 10,
        ..Default::default()
    };
    let train = glyphs(&gcfg, 400, &uniform_probs(4), &mut rng).unwrap();
    let mut net = Network::mlp(&[100, 32, 4], Activation::Relu, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(12, 32), Optimizer::adam(0.005))
        .fit(&mut net, train.features(), train.labels(), None, &mut rng)
        .unwrap();
    let pgd = Pgd::new(NormBall::linf(0.5).unwrap(), 25, 0.08)
        .unwrap()
        .with_clip(0.0, 1.0)
        .unwrap()
        .with_restarts(2);
    let mut hits = 0;
    let mut tried = 0;
    for i in 0..20 {
        let (seed, label) = train.sample(i).unwrap();
        let target = (label + 1) % 4;
        tried += 1;
        let out = pgd.run_targeted(&mut net, &seed, target, &mut rng).unwrap();
        if out.success {
            assert_eq!(out.predicted, target);
            assert!(out.linf <= 0.5 + 1e-4);
            hits += 1;
        }
    }
    assert!(hits > 0, "targeted attack never landed in {tried} tries");
}

#[test]
fn momentum_pgd_matches_or_beats_plain_pgd_on_success_count() {
    let mut rng = Rng::seed_from_u64(9);
    let cfg = GaussianClustersConfig {
        separation: 2.0,
        std: 1.0,
        ..Default::default()
    };
    let data = gaussian_clusters(&cfg, 300, &uniform_probs(3), &mut rng).unwrap();
    let mut net = Network::mlp(&[2, 24, 3], Activation::Tanh, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(25, 32), Optimizer::adam(0.01))
        .fit(&mut net, data.features(), data.labels(), None, &mut rng)
        .unwrap();
    let ball = NormBall::linf(0.25).unwrap();
    let plain = Pgd::new(ball, 10, 0.05).unwrap().with_random_start(false);
    let mi = Pgd::new(ball, 10, 0.05)
        .unwrap()
        .with_random_start(false)
        .with_momentum(0.9)
        .unwrap();
    let (mut plain_n, mut mi_n) = (0, 0);
    for i in 0..80 {
        let (seed, label) = data.sample(i).unwrap();
        if plain.run(&mut net, &seed, label, &mut rng).unwrap().success {
            plain_n += 1;
        }
        if mi.run(&mut net, &seed, label, &mut rng).unwrap().success {
            mi_n += 1;
        }
    }
    // Momentum shouldn't be dramatically worse; typically it ties or wins.
    assert!(
        mi_n + 3 >= plain_n,
        "momentum PGD collapsed: {mi_n} vs {plain_n}"
    );
}
