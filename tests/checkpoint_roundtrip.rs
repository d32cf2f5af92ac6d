//! Checkpoint/resume conformance for the sharded campaign engine.
//!
//! A campaign frozen mid-run into a `CKPT_<seq>.json` envelope, dropped,
//! read back and resumed must finish **byte-identically** to the
//! uninterrupted run — reports, posterior bits, corpus. Truncated or
//! tampered envelopes must fail loudly: resuming from half a posterior
//! would silently corrupt a reliability claim.

use opad::prelude::*;
use opad::telemetry::{parse_json, JsonValue};
use opad_par::Rng;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opad_ckpt_roundtrip_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct World {
    net: Network,
    op: OperationalProfile<Gmm>,
    partition: CentroidPartition,
    train: Dataset,
    field: Dataset,
}

fn world() -> World {
    let mut rng = Rng::seed_from_u64(17);
    let cfg = GaussianClustersConfig {
        separation: 2.0,
        std: 0.9,
        ..Default::default()
    };
    let train = gaussian_clusters(&cfg, 240, &uniform_probs(3), &mut rng).unwrap();
    let field = gaussian_clusters(&cfg, 400, &zipf_probs(3, 1.5), &mut rng).unwrap();
    let mut net = Network::mlp(&[2, 16, 3], Activation::Relu, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(12, 32), Optimizer::adam(0.01))
        .fit(&mut net, train.features(), train.labels(), None, &mut rng)
        .unwrap();
    let op = learn_op_gmm(&field, 3, 10, &mut rng).unwrap();
    let partition = CentroidPartition::fit(field.features(), 8, 15, &mut rng).unwrap();
    World {
        net,
        op,
        partition,
        train,
        field,
    }
}

fn attack() -> Pgd<'static> {
    Pgd::new(NormBall::linf(0.3).unwrap(), 10, 0.08).unwrap()
}

fn campaign(w: &World) -> ShardedCampaign<Gmm> {
    seeded_campaign(w, 1234)
}

fn seeded_campaign(w: &World, campaign_seed: u64) -> ShardedCampaign<Gmm> {
    ShardedCampaign::new(
        w.net.clone(),
        w.op.clone(),
        w.partition.clone(),
        &w.field,
        ReliabilityTarget::new(1e-5, 0.95).unwrap(),
        ShardedConfig {
            shards: 4,
            base: LoopConfig {
                seeds_per_round: 10,
                eval_per_round: 50,
                max_rounds: 3,
                mc_samples: 500,
                retrain: RetrainConfig {
                    epochs: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
        },
        campaign_seed,
    )
    .unwrap()
}

fn report_bytes(reports: &[RoundReport]) -> String {
    let mut reports = reports.to_vec();
    for r in &mut reports {
        r.wall_ms = 0.0;
        r.step_ms = Default::default();
    }
    format!("{reports:?}")
}

fn posterior_bits(c: &ShardedCampaign<Gmm>) -> Vec<(u64, u64)> {
    let model = c.reliability();
    (0..model.num_cells())
        .map(|cell| {
            let b = model.posterior(cell).unwrap();
            (b.alpha().to_bits(), b.beta().to_bits())
        })
        .collect()
}

#[test]
fn resumed_campaign_is_byte_identical_to_uninterrupted_run() {
    let w = world();
    let dir = temp_dir("resume");

    // Reference: three rounds straight through.
    let mut uninterrupted = campaign(&w);
    let full_reports = uninterrupted.run(&w.field, &w.train, &attack()).unwrap();
    assert_eq!(full_reports.len(), 3, "hard target exhausts max_rounds");

    // Interrupted: one round, freeze, drop the driver entirely.
    let mut first = campaign(&w);
    first.run_round(&w.field, &w.train, &attack()).unwrap();
    let path = first.save_checkpoint(&dir).unwrap();
    assert!(
        opad::telemetry::ckpt_seq(path.file_name().unwrap().to_str().unwrap()).is_some(),
        "checkpoint files follow the CKPT_<seq>.json convention"
    );
    drop(first);

    // Thaw in a fresh driver and finish.
    let ckpt = read_checkpoint(&path).unwrap();
    assert_eq!(ckpt.rounds_run, 1);
    let mut resumed =
        ShardedCampaign::resume(w.op.clone(), w.partition.clone(), &w.field, ckpt).unwrap();
    let resumed_reports = resumed.run(&w.field, &w.train, &attack()).unwrap();

    assert_eq!(
        resumed_reports, full_reports,
        "reports diverged after resume"
    );
    assert_eq!(
        report_bytes(&resumed_reports),
        report_bytes(&full_reports),
        "serialized reports diverged after resume"
    );
    assert_eq!(
        posterior_bits(&resumed),
        posterior_bits(&uninterrupted),
        "posterior bits diverged after resume"
    );
    assert_eq!(
        resumed.corpus().len(),
        uninterrupted.corpus().len(),
        "AE corpus diverged after resume"
    );

    // A second checkpoint in the same directory gets the next sequence.
    let path2 = resumed.save_checkpoint(&dir).unwrap();
    assert!(path2.ends_with("CKPT_0001.json"), "{}", path2.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoints_fail_loudly() {
    let w = world();
    let dir = temp_dir("truncated");
    let mut c = campaign(&w);
    c.run_round(&w.field, &w.train, &attack()).unwrap();
    let path = c.save_checkpoint(&dir).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Every prefix of the file must be rejected, never half-resumed.
    for keep in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(
            matches!(err, PipelineError::Checkpoint { .. }),
            "truncation at {keep} bytes gave {err:?}"
        );
    }
    // Restored in full, it reads back fine.
    std::fs::write(&path, &bytes).unwrap();
    assert!(read_checkpoint(&path).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_envelopes_are_rejected_on_resume() {
    let w = world();
    let dir = temp_dir("tampered");
    let mut c = campaign(&w);
    c.run_round(&w.field, &w.train, &attack()).unwrap();
    let path = c.save_checkpoint(&dir).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    // Future schema version.
    std::fs::write(
        &path,
        text.replacen("\"schema_version\": 1", "\"schema_version\": 99", 1),
    )
    .unwrap();
    let err = read_checkpoint(&path).unwrap_err();
    assert!(err.to_string().contains("newer than supported"), "{err}");

    // Foreign kind.
    std::fs::write(
        &path,
        text.replacen("sharded_campaign", "other_campaign", 1),
    )
    .unwrap();
    assert!(read_checkpoint(&path).is_err());

    // Geometry mismatch on resume: a partition with the wrong cell count.
    std::fs::write(&path, &text).unwrap();
    let ckpt = read_checkpoint(&path).unwrap();
    let mut rng = Rng::seed_from_u64(3);
    let small = CentroidPartition::fit(w.field.features(), 4, 5, &mut rng).unwrap();
    let err = ShardedCampaign::resume(w.op.clone(), small, &w.field, ckpt).unwrap_err();
    assert!(
        matches!(err, PipelineError::Checkpoint { .. }),
        "wrong geometry gave {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint holds `f32` weights, `f64` posteriors and reports, and a
/// `u64` campaign seed, all through `JsonValue`'s conversions. Each must
/// read back bit for bit: random bit patterns (signed zeros, subnormals
/// and the extremes included) and `u64`s up to `u64::MAX`. A campaign
/// seeded with `u64::MAX` must then checkpoint and resume to
/// byte-identical reports.
#[test]
fn json_numbers_and_a_u64_max_seed_round_trip_exactly() {
    let mut rng = Rng::seed_from_u64(2024);
    let through_text = |v: JsonValue| parse_json(&v.to_string()).unwrap();

    let mut f64s = vec![
        0.0,
        -0.0,
        5e-324,
        -f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
    ];
    f64s.extend([
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0,
        0.1,
        9007199254740993.0,
    ]);
    f64s.extend((0..20_000).map(|_| f64::from_bits(rng.next_u64())));
    for v in f64s.into_iter().filter(|v| v.is_finite()) {
        let back = through_text(v.into()).to_f64().unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "f64 {v:?}");
    }
    let mut f32s = vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 3.0,
        f32::MAX,
    ];
    f32s.extend([f32::MIN, f32::EPSILON, 0.1, 16777217.0]);
    f32s.extend((0..20_000).map(|_| f32::from_bits(rng.next_u64() as u32)));
    for v in f32s.into_iter().filter(|v| v.is_finite()) {
        let back = through_text(v.into()).to_f32().unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "f32 {v:?}");
    }
    let mut u64s = vec![
        0,
        1,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        u64::MAX - 1,
        u64::MAX,
    ];
    u64s.extend((0..20_000).map(|_| rng.next_u64() >> rng.gen_range(0..64u32)));
    for v in u64s {
        assert_eq!(through_text(v.into()).to_u64().unwrap(), v, "u64 {v}");
    }

    let w = world();
    let dir = temp_dir("u64_max_seed");
    let mut uninterrupted = seeded_campaign(&w, u64::MAX);
    let full_reports = uninterrupted.run(&w.field, &w.train, &attack()).unwrap();
    let mut first = seeded_campaign(&w, u64::MAX);
    first.run_round(&w.field, &w.train, &attack()).unwrap();
    let path = first.save_checkpoint(&dir).unwrap();
    drop(first);
    let ckpt = read_checkpoint(&path).unwrap();
    assert_eq!(ckpt.campaign_seed, u64::MAX);
    let mut resumed =
        ShardedCampaign::resume(w.op.clone(), w.partition.clone(), &w.field, ckpt).unwrap();
    let resumed_reports = resumed.run(&w.field, &w.train, &attack()).unwrap();
    assert_eq!(report_bytes(&resumed_reports), report_bytes(&full_reports));
    assert_eq!(posterior_bits(&resumed), posterior_bits(&uninterrupted));
    let _ = std::fs::remove_dir_all(&dir);
}
