//! Pins `Pgd`'s one step loop to the four loops it replaced.
//!
//! Plain PGD, targeted PGD, the naturalness-guided fuzzer and the
//! detector-aware adaptive attack each used to walk their own copy of the
//! step loop; the fuzzer scored naturalness through an oracle that only
//! negated `OpDensityDetector`. The reference functions below keep those
//! four loops and that oracle as they were, but for one line of the
//! fuzzer's (see `natural_fuzz_reference`). Over more than a thousand
//! seeded configurations, the guided `Pgd` must reproduce each of them:
//! candidate bits, predicted label, success and the RNG's state after the
//! run everywhere, and the query count for plain PGD and the fuzzer.
//!
//! What changed on purpose is not compared:
//! - a seed-start PGD with more than one restart now starts its later
//!   restarts at random points, as the fuzzer did (the old loop re-walked
//!   the same deterministic path), so seed-start PGD runs one restart here;
//! - the targeted loop skipped the restart-end prediction and the adaptive
//!   loop counted an initial prediction and each detector gradient, so
//!   their query counts differ.

use opad_attack::{Attack, AttackOutcome, NormBall, Pgd};
use opad_data::{gaussian_clusters, uniform_probs, GaussianClustersConfig};
use opad_detect::{Detector, Magnet, OpDensityDetector};
use opad_nn::{Activation, Network, Optimizer, TrainConfig, Trainer};
use opad_opmodel::{Density, Gmm, GmmComponent};
use opad_par::Rng;
use opad_tensor::Tensor;

// ---- The replaced loops, kept as reference functions. ----

fn predict_one(net: &mut Network, x: &Tensor) -> usize {
    net.predict_labels(&x.reshape(&[1, x.len()]).unwrap())
        .unwrap()[0]
}

fn grad_one(net: &mut Network, x: &Tensor, label: usize) -> Tensor {
    let batch = x.reshape(&[1, x.len()]).unwrap();
    let (_, g) = net.loss_and_input_grad(&batch, &[label]).unwrap();
    g.reshape(&[x.len()]).unwrap()
}

fn clip(x: Tensor, clip: Option<(f32, f32)>) -> Tensor {
    match clip {
        Some((lo, hi)) => x.clamp(lo, hi),
        None => x,
    }
}

/// The settings every loop shared.
#[derive(Debug, Clone, Copy)]
struct Walk {
    ball: NormBall,
    steps: usize,
    step_size: f32,
    random_start: bool,
    restarts: usize,
    clip: Option<(f32, f32)>,
    momentum: f32,
}

/// One restart of plain PGD: `(candidate, predicted, queries)`.
fn pgd_restart(
    c: &Walk,
    net: &mut Network,
    seed: &Tensor,
    label: usize,
    rng: &mut Rng,
) -> (Tensor, usize, usize) {
    let mut x = if c.random_start {
        clip(c.ball.sample(seed, rng), c.clip)
    } else {
        seed.clone()
    };
    let mut queries = 0usize;
    let mut g_acc = Tensor::zeros(seed.dims());
    for _ in 0..c.steps {
        let g = grad_one(net, &x, label);
        queries += 1;
        let g_eff = if c.momentum > 0.0 {
            let l1 = g.norm_l1().max(1e-12);
            g_acc = g_acc.scale(c.momentum);
            g_acc.axpy(1.0 / l1, &g).unwrap();
            g_acc.clone()
        } else {
            g
        };
        let dir = c.ball.steepest_step(&g_eff);
        x = x.checked_add(&dir.scale(c.step_size)).unwrap();
        x = clip(c.ball.project(seed, &x).unwrap(), c.clip);
        let predicted = predict_one(net, &x);
        queries += 1;
        if predicted != label {
            return (x, predicted, queries);
        }
    }
    let predicted = predict_one(net, &x);
    queries += 1;
    (x, predicted, queries)
}

/// Plain PGD's `run`.
fn pgd_reference(
    c: &Walk,
    net: &mut Network,
    seed: &Tensor,
    label: usize,
    rng: &mut Rng,
) -> AttackOutcome {
    let mut total_queries = 0usize;
    let mut last = None;
    for _ in 0..c.restarts {
        let (cand, pred, q) = pgd_restart(c, net, seed, label, rng);
        total_queries += q;
        last = Some((cand, pred));
        if pred != label {
            break;
        }
    }
    let (cand, pred) = last.unwrap();
    AttackOutcome::from_candidate(seed, cand, pred, label, total_queries).unwrap()
}

/// Targeted PGD: descends the loss toward `target`, without momentum.
fn targeted_reference(
    c: &Walk,
    net: &mut Network,
    seed: &Tensor,
    target: usize,
    rng: &mut Rng,
) -> AttackOutcome {
    let mut total_queries = 0usize;
    let mut last = None;
    for _ in 0..c.restarts {
        let mut x = if c.random_start {
            clip(c.ball.sample(seed, rng), c.clip)
        } else {
            seed.clone()
        };
        let mut hit = false;
        let mut pred = usize::MAX;
        for _ in 0..c.steps {
            let g = grad_one(net, &x, target);
            total_queries += 1;
            let dir = c.ball.steepest_step(&g);
            x = x.checked_sub(&dir.scale(c.step_size)).unwrap();
            x = clip(c.ball.project(seed, &x).unwrap(), c.clip);
            pred = predict_one(net, &x);
            total_queries += 1;
            if pred == target {
                hit = true;
                break;
            }
        }
        last = Some((x, pred));
        if hit {
            break;
        }
    }
    let (cand, pred) = last.unwrap();
    let delta = cand.checked_sub(seed).unwrap();
    AttackOutcome {
        success: pred == target,
        candidate: cand,
        predicted: pred,
        queries: total_queries,
        linf: delta.norm_linf(),
        l2: delta.norm_l2(),
    }
}

/// The naturalness oracle over an OP density: the detector's score and
/// gradient, negated back into log-density.
fn density_naturalness(op: &OpDensityDetector<Gmm>, x: &[f32]) -> f64 {
    -op.score(x).unwrap()
}

fn density_naturalness_gradient(op: &OpDensityDetector<Gmm>, x: &[f32]) -> Vec<f32> {
    op.score_gradient(x).unwrap().iter().map(|v| -v).collect()
}

/// The naturalness-guided fuzzer: restart 0 from the seed, later restarts
/// from random points; ascends loss + λ·naturalness, accepts an AE only
/// above τ. Returns the outcome and whether it fell back to the seed.
///
/// One line differs from the old loop on purpose: a run that falls back
/// to the seed succeeds only if the seed also clears τ (the old loop
/// reported any misclassified seed as an operational AE).
#[allow(clippy::too_many_arguments)]
fn natural_fuzz_reference(
    c: &Walk,
    op: &OpDensityDetector<Gmm>,
    lambda: f32,
    tau: Option<f64>,
    net: &mut Network,
    seed: &Tensor,
    label: usize,
    rng: &mut Rng,
) -> (AttackOutcome, bool) {
    let accepts = |x: &Tensor| tau.is_none_or(|tau| density_naturalness(op, x.as_slice()) >= tau);
    let mut total_queries = 0usize;
    let mut last = None;
    for restart in 0..c.restarts {
        let mut x = if restart == 0 {
            seed.clone()
        } else {
            clip(c.ball.sample(seed, rng), c.clip)
        };
        let mut accepted = None;
        for _ in 0..c.steps {
            let g_loss = grad_one(net, &x, label);
            total_queries += 1;
            let combined = if lambda > 0.0 {
                let g_nat = Tensor::from_slice(&density_naturalness_gradient(op, x.as_slice()));
                g_loss.checked_add(&g_nat.scale(lambda)).unwrap()
            } else {
                g_loss
            };
            let dir = c.ball.steepest_step(&combined);
            x = x.checked_add(&dir.scale(c.step_size)).unwrap();
            x = clip(c.ball.project(seed, &x).unwrap(), c.clip);
            let pred = predict_one(net, &x);
            total_queries += 1;
            if pred != label && accepts(&x) {
                accepted = Some(pred);
                break;
            }
        }
        let (pred, ok) = match accepted {
            Some(pred) => (pred, true),
            None => {
                let pred = predict_one(net, &x);
                total_queries += 1;
                (pred, pred != label && accepts(&x))
            }
        };
        last = Some((x, pred));
        if ok {
            break;
        }
    }
    let (cand, pred) = last.unwrap();
    if pred != label && !accepts(&cand) {
        let seed_pred = predict_one(net, seed);
        total_queries += 1;
        let out =
            AttackOutcome::from_candidate(seed, seed.clone(), seed_pred, label, total_queries)
                .unwrap();
        let success = out.success && accepts(seed);
        return (AttackOutcome { success, ..out }, true);
    }
    let out = AttackOutcome::from_candidate(seed, cand, pred, label, total_queries);
    (out.unwrap(), false)
}

/// The adaptive attack: deterministic, one restart from the seed,
/// ascends CE − α·score of the detector it evades.
fn adaptive_reference(
    c: &Walk,
    detector: &dyn Detector,
    alpha: f32,
    net: &mut Network,
    seed: &Tensor,
    label: usize,
) -> AttackOutcome {
    let mut x = seed.clone();
    let mut queries = 1usize;
    let mut pred = predict_one(net, &x);
    for _ in 0..c.steps {
        let g_ce = grad_one(net, &x, label);
        queries += 1;
        let g_eff = if alpha > 0.0 {
            let g_det = detector.score_gradient(x.as_slice()).unwrap();
            queries += 1;
            let penalty = Tensor::from_vec(g_det, x.dims()).unwrap();
            g_ce.checked_sub(&penalty.scale(alpha)).unwrap()
        } else {
            g_ce
        };
        let dir = c.ball.steepest_step(&g_eff);
        x = x.checked_add(&dir.scale(c.step_size)).unwrap();
        x = clip(c.ball.project(seed, &x).unwrap(), c.clip);
        pred = predict_one(net, &x);
        queries += 1;
        if pred != label {
            break;
        }
    }
    AttackOutcome::from_candidate(seed, x, pred, label, queries).unwrap()
}

// ---- The comparison. ----

fn pgd_of<'a>(c: &Walk) -> Pgd<'a> {
    let mut pgd = Pgd::new(c.ball, c.steps, c.step_size)
        .unwrap()
        .with_random_start(c.random_start)
        .with_restarts(c.restarts)
        .with_momentum(c.momentum)
        .unwrap();
    if let Some((lo, hi)) = c.clip {
        pgd = pgd.with_clip(lo, hi).unwrap();
    }
    pgd
}

fn assert_same(case: &str, new: &AttackOutcome, reference: &AttackOutcome, queries: bool) {
    let bits = |o: &AttackOutcome| -> Vec<u32> {
        o.candidate.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(new), bits(reference), "{case}: candidate");
    assert_eq!(new.predicted, reference.predicted, "{case}: predicted");
    assert_eq!(new.success, reference.success, "{case}: success");
    if queries {
        assert_eq!(new.queries, reference.queries, "{case}: queries");
    }
}

/// Draws one seed near the class boundaries and the step size for a
/// walk. A quarter of the labels are random, so some seeds start out
/// misclassified.
fn draw(case: u64, net: &mut Network, eps: f32) -> (Tensor, usize, f32, Rng) {
    let mut r = Rng::seed_from_u64(case);
    let seed = Tensor::from_slice(&[r.gen_range(-1.5f32..1.5), r.gen_range(-1.5f32..1.5)]);
    let label = if r.gen_bool(0.25) {
        r.gen_range(0usize..3)
    } else {
        predict_one(net, &seed)
    };
    let step_size = r.gen_range(eps / 8.0..eps / 2.0);
    (seed, label, step_size, Rng::seed_from_u64(r.next_u64()))
}

#[test]
fn guided_pgd_reproduces_the_four_replaced_loops() {
    let mut rng = Rng::seed_from_u64(7);
    let cfg = GaussianClustersConfig {
        separation: 1.5,
        std: 0.7,
        ..Default::default()
    };
    let data = gaussian_clusters(&cfg, 240, &uniform_probs(3), &mut rng).unwrap();
    let mut net = Network::mlp(&[2, 12, 3], Activation::Tanh, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(15, 32), Optimizer::adam(0.02))
        .fit(&mut net, data.features(), data.labels(), None, &mut rng)
        .unwrap();
    let op = OpDensityDetector::new(
        Gmm::from_components(
            (0..3)
                .map(|class| GmmComponent {
                    weight: 1.0 / 3.0,
                    mean: opad_data::cluster_center(&cfg, class),
                    std: 0.7,
                })
                .collect(),
        )
        .unwrap(),
    );
    let mut magnet = Magnet::new(2, 1).unwrap();
    magnet.fit(&data).unwrap();
    let mode = op.density().log_density(&[1.5, 0.0]).unwrap();
    let taus = [None, Some(mode - 2.0), Some(mode - 0.3)];
    let balls = [NormBall::linf(0.3).unwrap(), NormBall::l2(0.5).unwrap()];
    let clips = [None, Some((-1.2, 1.2))];

    let mut case = 0u64;
    let mut next_case = || {
        case += 1;
        case
    };
    let (mut configs, mut successes, mut fallbacks) = (0usize, 0usize, 0usize);
    let mut tally = |out: &AttackOutcome| {
        configs += 1;
        successes += usize::from(out.success);
    };

    // Plain and targeted PGD: random starts with 1–3 restarts, or one
    // restart from the seed.
    for ball in balls {
        for steps in [1, 5, 15] {
            for (random_start, restarts) in [(true, 1), (true, 2), (true, 3), (false, 1)] {
                for clip in clips {
                    for momentum in [0.0, 0.9] {
                        for _ in 0..3 {
                            let id = next_case();
                            let (seed, label, step_size, r) = draw(id, &mut net, ball.epsilon());
                            let c = Walk {
                                ball,
                                steps,
                                step_size,
                                random_start,
                                restarts,
                                clip,
                                momentum,
                            };
                            let name = format!("pgd case {id} {c:?}");
                            let (mut r1, mut r2) = (r.clone(), r.clone());
                            let new = pgd_of(&c).run(&mut net, &seed, label, &mut r1).unwrap();
                            let reference = pgd_reference(&c, &mut net, &seed, label, &mut r2);
                            assert_same(&name, &new, &reference, true);
                            assert_eq!(r1.state(), r2.state(), "{name}: rng");
                            tally(&new);

                            // The old targeted loop had no momentum.
                            let c = Walk { momentum: 0.0, ..c };
                            let target = (label + 1 + (id % 2) as usize) % 3;
                            let name = format!("targeted case {id} {c:?}");
                            let (mut r1, mut r2) = (r.clone(), r);
                            let new = pgd_of(&c)
                                .run_targeted(&mut net, &seed, target, &mut r1)
                                .unwrap();
                            let reference =
                                targeted_reference(&c, &mut net, &seed, target, &mut r2);
                            assert_same(&name, &new, &reference, false);
                            assert_eq!(r1.state(), r2.state(), "{name}: rng");
                            tally(&new);
                        }
                    }
                }
            }
        }
    }

    // The naturalness-guided fuzzer: λ·log p ascent, with and without a
    // bar τ, guided by the OP density.
    for ball in balls {
        for steps in [1, 5, 15] {
            for restarts in [1, 2, 3] {
                for clip in clips {
                    for lambda in [0.0, 0.5, 1.5] {
                        for tau in taus {
                            for _ in 0..2 {
                                let id = next_case();
                                let (seed, label, step_size, r) =
                                    draw(id, &mut net, ball.epsilon());
                                let c = Walk {
                                    ball,
                                    steps,
                                    step_size,
                                    random_start: false,
                                    restarts,
                                    clip,
                                    momentum: 0.0,
                                };
                                let name = format!("fuzz case {id} λ={lambda} τ={tau:?} {c:?}");
                                let mut pgd = pgd_of(&c).guided_by(&op, lambda).unwrap();
                                if let Some(tau) = tau {
                                    pgd = pgd.with_min_naturalness(tau).unwrap();
                                }
                                let (mut r1, mut r2) = (r.clone(), r);
                                let new = pgd.run(&mut net, &seed, label, &mut r1).unwrap();
                                let (reference, fell_back) = natural_fuzz_reference(
                                    &c, &op, lambda, tau, &mut net, &seed, label, &mut r2,
                                );
                                assert_same(&name, &new, &reference, true);
                                assert_eq!(r1.state(), r2.state(), "{name}: rng");
                                tally(&new);
                                fallbacks += usize::from(fell_back);
                            }
                        }
                    }
                }
            }
        }
    }

    // The adaptive attack: CE − α·score, guided by the OP density and by
    // MagNet.
    let guides: [&(dyn Detector + Sync); 2] = [&op, &magnet];
    for ball in balls {
        for steps in [1, 5, 15] {
            for clip in clips {
                for alpha in [0.0, 1.0, 5.0] {
                    for guide in guides {
                        for _ in 0..3 {
                            let id = next_case();
                            let (seed, label, step_size, r) = draw(id, &mut net, ball.epsilon());
                            let c = Walk {
                                ball,
                                steps,
                                step_size,
                                random_start: false,
                                restarts: 1,
                                clip,
                                momentum: 0.0,
                            };
                            let name = format!("adaptive case {id} α={alpha} {c:?}");
                            let pgd = pgd_of(&c).guided_by(guide, alpha).unwrap();
                            let (mut r1, r2) = (r.clone(), r);
                            let new = pgd.run(&mut net, &seed, label, &mut r1).unwrap();
                            let reference =
                                adaptive_reference(&c, guide, alpha, &mut net, &seed, label);
                            assert_same(&name, &new, &reference, false);
                            // The adaptive loop drew nothing.
                            assert_eq!(r1.state(), r2.state(), "{name}: rng");
                            tally(&new);
                        }
                    }
                }
            }
        }
    }

    assert!(configs >= 1000, "only {configs} configurations compared");
    assert!(
        successes > configs / 10 && successes < configs * 9 / 10,
        "{successes} of {configs} runs succeeded: the comparison needs both outcomes"
    );
    assert!(fallbacks > 0, "no run fell back to the seed under τ");
}
