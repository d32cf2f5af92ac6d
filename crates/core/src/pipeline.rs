//! The configuration, reports and per-round RNG purposes of the testing
//! loop of the paper's Figure 1, which [`crate::ShardedCampaign`] runs.

use crate::{PipelineError, RetrainConfig, SeedWeighting};
use opad_alert::{default_rules, Rule as AlertRule};
use opad_data::Dataset;
use opad_opmodel::Density;
use opad_par::Rng;
use opad_telemetry::{self as telemetry, JsonValue};

// Stream indices of the per-purpose generators inside one round (see
// `purpose_rng`). Distinct constants, not positions in a sequence: adding
// a purpose never renumbers the existing ones.
pub(crate) const PURPOSE_SAMPLE: u64 = 0;
pub(crate) const PURPOSE_FUZZ: u64 = 1;
pub(crate) const PURPOSE_EVAL: u64 = 2;
pub(crate) const PURPOSE_ASSESS: u64 = 3;
pub(crate) const PURPOSE_RETRAIN: u64 = 4;

/// One independent generator per round step, derived from the round's
/// seed. Because each step owns its stream, the number of draws one step
/// makes can never shift what another step sees.
pub(crate) fn purpose_rng(round_seed: u64, purpose: u64) -> Rng {
    Rng::seed_from_u64(opad_par::stream_seed(round_seed, purpose))
}

// The `naturalness_drift` floor is the field data's own low log-density
// quantile minus a generous margin: fuzzed candidates scoring below it
// are less plausible than (almost) anything the operational profile ever
// produced, so accepted AEs have stopped being *operational*.
const NATURALNESS_FLOOR_QUANTILE: f64 = 0.05;
const NATURALNESS_FLOOR_MARGIN: f64 = 10.0;

/// The default alert pack for a run against `target_pfd`, with the
/// naturalness floor derived from `density` over `field_data`. The floor
/// is also published as the `pipeline.naturalness_floor` gauge, so the
/// history plane records which threshold each stretch of a run was
/// judged against.
pub(crate) fn alert_pack<D: Density>(
    target_pfd: f64,
    density: &D,
    field_data: &Dataset,
) -> Result<Vec<AlertRule>, PipelineError> {
    if field_data.is_empty() {
        return Err(PipelineError::InvalidConfig {
            reason: "field data must be nonempty".into(),
        });
    }
    let d = field_data.feature_dim();
    let xs = field_data.features().as_slice();
    let mut scores = Vec::with_capacity(field_data.len());
    for i in 0..field_data.len() {
        scores.push(density.log_density(&xs[i * d..(i + 1) * d])?);
    }
    scores.sort_by(f64::total_cmp);
    let ix = ((scores.len() - 1) as f64 * NATURALNESS_FLOOR_QUANTILE).floor() as usize;
    let floor = scores[ix] - NATURALNESS_FLOOR_MARGIN;
    telemetry::gauge_set("pipeline.naturalness_floor", floor);
    Ok(default_rules(target_pfd, floor))
}

/// Configuration of the testing loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopConfig {
    /// Seeds attacked per round (the debug-testing budget).
    pub seeds_per_round: usize,
    /// Operational test cases evaluated per round for reliability
    /// assessment (the statistical-testing budget).
    pub eval_per_round: usize,
    /// Seed weighting scheme (RQ2).
    pub weighting: SeedWeighting,
    /// Whether round `r+1`'s seed weights are boosted by round `r`'s
    /// reliability-model cell priorities (the Fig. 1 feedback arrow).
    pub priority_feedback: bool,
    /// Retraining configuration (RQ4).
    pub retrain: RetrainConfig,
    /// Whether detected AEs are folded into the reliability evidence as
    /// failed demands (conservative, ReAsDL-style robustness evidence).
    /// Disable to assess *delivered* reliability from operational demands
    /// only — AEs then influence the claim solely through retraining.
    pub ae_evidence: bool,
    /// Maximum rounds before giving up.
    pub max_rounds: usize,
    /// Monte-Carlo draws for the pfd upper bound.
    pub mc_samples: usize,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            seeds_per_round: 30,
            eval_per_round: 200,
            weighting: SeedWeighting::OpTimesMargin,
            priority_feedback: true,
            retrain: RetrainConfig::default(),
            ae_evidence: true,
            max_rounds: 5,
            mc_samples: 2000,
        }
    }
}

impl LoopConfig {
    /// The configuration as JSON.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("seeds_per_round", self.seeds_per_round.into()),
            ("eval_per_round", self.eval_per_round.into()),
            ("weighting", self.weighting.to_json()),
            ("priority_feedback", self.priority_feedback.into()),
            ("retrain", self.retrain.to_json()),
            ("ae_evidence", self.ae_evidence.into()),
            ("max_rounds", self.max_rounds.into()),
            ("mc_samples", self.mc_samples.into()),
        ])
    }

    /// Reads [`LoopConfig::to_json`] output.
    ///
    /// # Errors
    ///
    /// When a field is missing or malformed.
    pub(crate) fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(LoopConfig {
            seeds_per_round: v.field("seeds_per_round")?.to_usize()?,
            eval_per_round: v.field("eval_per_round")?.to_usize()?,
            weighting: SeedWeighting::from_json(v.field("weighting")?)?,
            priority_feedback: v.field("priority_feedback")?.to_bool()?,
            retrain: RetrainConfig::from_json(v.field("retrain")?)?,
            ae_evidence: v.field("ae_evidence")?.to_bool()?,
            max_rounds: v.field("max_rounds")?.to_usize()?,
            mc_samples: v.field("mc_samples")?.to_usize()?,
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Fails on zero budgets or rounds.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.seeds_per_round == 0 || self.eval_per_round == 0 {
            return Err(PipelineError::InvalidConfig {
                reason: "per-round budgets must be nonzero".into(),
            });
        }
        if self.max_rounds == 0 || self.mc_samples == 0 {
            return Err(PipelineError::InvalidConfig {
                reason: "max_rounds and mc_samples must be nonzero".into(),
            });
        }
        self.retrain.validate()
    }
}

/// Wall-clock cost of one round, broken down by Fig. 1 step (all in
/// milliseconds). Carried on [`RoundReport`] so experiment outputs show
/// where each round's budget went.
#[derive(Debug, Clone, Default)]
pub struct StepDurations {
    /// Step 2: weight computation + seed sampling.
    pub sample_seeds_ms: f64,
    /// Step 3: per-seed attacks / fuzzing.
    pub fuzz_ms: f64,
    /// Step 5a: operational evaluation (statistical testing).
    pub evaluate_ms: f64,
    /// Step 5b: reliability claim (posterior + MC upper bound).
    pub assess_ms: f64,
    /// Step 4: retraining on the cumulative corpus (0 when skipped).
    pub retrain_ms: f64,
}

impl StepDurations {
    /// Sum of the per-step durations.
    pub fn total_ms(&self) -> f64 {
        self.sample_seeds_ms + self.fuzz_ms + self.evaluate_ms + self.assess_ms + self.retrain_ms
    }
}

/// Per-detector summary of one round's AE candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorRoundScore {
    /// The detector's stable name.
    pub detector: String,
    /// Mean suspicion score over this round's detected AEs (0 when the
    /// round found none).
    pub mean_score: f64,
    /// Number of AE candidates scored.
    pub scored: usize,
}

/// Summary of one loop round.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round index.
    pub round: usize,
    /// Seeds attacked.
    pub seeds_attacked: usize,
    /// Operational AEs detected this round.
    pub aes_found: usize,
    /// OP mass of the distinct cells in which AEs were found (cumulative
    /// corpus).
    pub op_mass_detected: f64,
    /// Posterior-mean pfd before retraining.
    pub pfd_mean: f64,
    /// 95% upper credible bound on the pfd before retraining.
    pub pfd_upper: f64,
    /// Accuracy on this round's operational evaluation sample.
    pub op_accuracy: f64,
    /// Whether the reliability target was met (testing stops).
    pub target_met: bool,
    /// Mean suspicion score of this round's AEs under every attached
    /// detector (empty when no detectors are attached).
    pub detector_scores: Vec<DetectorRoundScore>,
    /// Wall-clock duration of the whole round in milliseconds.
    pub wall_ms: f64,
    /// Per-step wall-clock breakdown.
    pub step_ms: StepDurations,
}

impl RoundReport {
    /// The report as JSON, every float bit-exact.
    pub(crate) fn to_json(&self) -> JsonValue {
        let score = |s: &DetectorRoundScore| {
            JsonValue::obj([
                ("detector", s.detector.as_str().into()),
                ("mean_score", s.mean_score.into()),
                ("scored", s.scored.into()),
            ])
        };
        let step = &self.step_ms;
        JsonValue::obj([
            ("round", self.round.into()),
            ("seeds_attacked", self.seeds_attacked.into()),
            ("aes_found", self.aes_found.into()),
            ("op_mass_detected", self.op_mass_detected.into()),
            ("pfd_mean", self.pfd_mean.into()),
            ("pfd_upper", self.pfd_upper.into()),
            ("op_accuracy", self.op_accuracy.into()),
            ("target_met", self.target_met.into()),
            (
                "detector_scores",
                JsonValue::arr(self.detector_scores.iter().map(score)),
            ),
            ("wall_ms", self.wall_ms.into()),
            (
                "step_ms",
                JsonValue::obj([
                    ("sample_seeds_ms", step.sample_seeds_ms.into()),
                    ("fuzz_ms", step.fuzz_ms.into()),
                    ("evaluate_ms", step.evaluate_ms.into()),
                    ("assess_ms", step.assess_ms.into()),
                    ("retrain_ms", step.retrain_ms.into()),
                ]),
            ),
        ])
    }

    /// Reads [`RoundReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// When a field is missing or malformed.
    pub(crate) fn from_json(v: &JsonValue) -> Result<Self, String> {
        let score = |s: &JsonValue| {
            Ok(DetectorRoundScore {
                detector: s.field("detector")?.to_str()?.to_string(),
                mean_score: s.field("mean_score")?.to_f64()?,
                scored: s.field("scored")?.to_usize()?,
            })
        };
        let step = v.field("step_ms")?;
        Ok(RoundReport {
            round: v.field("round")?.to_usize()?,
            seeds_attacked: v.field("seeds_attacked")?.to_usize()?,
            aes_found: v.field("aes_found")?.to_usize()?,
            op_mass_detected: v.field("op_mass_detected")?.to_f64()?,
            pfd_mean: v.field("pfd_mean")?.to_f64()?,
            pfd_upper: v.field("pfd_upper")?.to_f64()?,
            op_accuracy: v.field("op_accuracy")?.to_f64()?,
            target_met: v.field("target_met")?.to_bool()?,
            detector_scores: v.field("detector_scores")?.to_vec(score)?,
            wall_ms: v.field("wall_ms")?.to_f64()?,
            step_ms: StepDurations {
                sample_seeds_ms: step.field("sample_seeds_ms")?.to_f64()?,
                fuzz_ms: step.field("fuzz_ms")?.to_f64()?,
                evaluate_ms: step.field("evaluate_ms")?.to_f64()?,
                assess_ms: step.field("assess_ms")?.to_f64()?,
                retrain_ms: step.field("retrain_ms")?.to_f64()?,
            },
        })
    }
}

/// Equality ignores the timing fields (`wall_ms`, `step_ms`): two reports
/// are equal when the *testing outcome* matches, so determinism checks
/// stay meaningful across machines and runs.
impl PartialEq for RoundReport {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.seeds_attacked == other.seeds_attacked
            && self.aes_found == other.aes_found
            && self.op_mass_detected == other.op_mass_detected
            && self.pfd_mean == other.pfd_mean
            && self.pfd_upper == other.pfd_upper
            && self.op_accuracy == other.op_accuracy
            && self.target_met == other.target_met
            && self.detector_scores == other.detector_scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedCampaign, ShardedConfig};
    use opad_attack::{NormBall, Pgd};
    use opad_data::{gaussian_clusters, uniform_probs, zipf_probs, GaussianClustersConfig};
    use opad_nn::{Activation, Network, Optimizer, TrainConfig, Trainer};
    use opad_opmodel::{learn_op_gmm, CentroidPartition, Gmm, OperationalProfile};
    use opad_reliability::ReliabilityTarget;

    struct Fixture {
        net: Network,
        train: Dataset,
        field: Dataset,
        op: OperationalProfile<Gmm>,
        partition: CentroidPartition,
    }

    fn fixture() -> Fixture {
        let mut r = Rng::seed_from_u64(11);
        let cfg = GaussianClustersConfig::default();
        let train = gaussian_clusters(&cfg, 240, &uniform_probs(3), &mut r).unwrap();
        let field = gaussian_clusters(&cfg, 400, &zipf_probs(3, 1.5), &mut r).unwrap();
        let mut net = Network::mlp(&[2, 16, 3], Activation::Relu, &mut r).unwrap();
        let mut trainer = Trainer::new(TrainConfig::new(20, 32), Optimizer::adam(0.01));
        trainer
            .fit(&mut net, train.features(), train.labels(), None, &mut r)
            .unwrap();
        let op = learn_op_gmm(&field, 3, 15, &mut r).unwrap();
        let partition = CentroidPartition::fit(field.features(), 8, 20, &mut r).unwrap();
        Fixture {
            net,
            train,
            field,
            op,
            partition,
        }
    }

    fn small_config() -> LoopConfig {
        LoopConfig {
            seeds_per_round: 10,
            eval_per_round: 50,
            max_rounds: 2,
            mc_samples: 500,
            retrain: RetrainConfig {
                epochs: 3,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// A 1-shard campaign over `field` on the fixture's world.
    fn campaign(
        f: &Fixture,
        field: &Dataset,
        target: ReliabilityTarget,
        config: LoopConfig,
    ) -> Result<ShardedCampaign<Gmm>, PipelineError> {
        let config = ShardedConfig {
            shards: 1,
            base: config,
        };
        let (net, op, partition) = (f.net.clone(), f.op.clone(), f.partition.clone());
        ShardedCampaign::new(net, op, partition, field, target, config, 11)
    }

    #[test]
    fn config_validation() {
        assert!(LoopConfig::default().validate().is_ok());
        let bad = LoopConfig {
            seeds_per_round: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = LoopConfig {
            max_rounds: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn loop_construction_validates() {
        let f = fixture();
        let target = ReliabilityTarget::new(0.05, 0.95).unwrap();
        let empty = Dataset::new(opad_tensor::Tensor::zeros(&[1, 2]), vec![0], 3).unwrap();
        let sel = empty.select(&[0]).unwrap(); // 1-sample data is fine
        assert!(campaign(&f, &sel, target, small_config()).is_ok());
        let bad_cfg = LoopConfig {
            eval_per_round: 0,
            ..small_config()
        };
        assert!(campaign(&f, &f.field, target, bad_cfg).is_err());
        let none = Dataset::new(opad_tensor::Tensor::zeros(&[0, 2]), vec![], 3).unwrap();
        assert!(campaign(&f, &none, target, small_config()).is_err());
    }

    #[test]
    fn one_round_produces_a_report() {
        let f = fixture();
        let target = ReliabilityTarget::new(1e-4, 0.95).unwrap(); // hard target: won't stop
        let mut lp = campaign(&f, &f.field, target, small_config()).unwrap();
        let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 10, 0.08).unwrap();
        let report = lp.run_round(&f.field, &f.train, &attack).unwrap();
        assert_eq!(report.round, 0);
        assert_eq!(report.seeds_attacked, 10);
        assert!(report.pfd_upper >= report.pfd_mean);
        assert!(report.op_accuracy > 0.5, "accuracy {}", report.op_accuracy);
        assert!(!report.target_met);
        assert_eq!(lp.timeline().rounds().len(), 1);
        // OP mass detected is a probability.
        assert!((0.0..=1.0).contains(&report.op_mass_detected));
        // Timing is populated and self-consistent: the steps make up the
        // round, so their sum cannot exceed its wall time.
        assert!(report.wall_ms > 0.0);
        assert!(report.step_ms.fuzz_ms > 0.0);
        assert!(report.step_ms.total_ms() <= report.wall_ms);
    }

    #[test]
    fn constructed_loop_carries_the_default_alert_pack() {
        let f = fixture();
        let target = ReliabilityTarget::new(0.05, 0.95).unwrap();
        let lp = campaign(&f, &f.field, target, small_config()).unwrap();
        let names: Vec<&str> = lp.alert_rules().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                opad_alert::pack::PFD_BOUND_BREACH,
                opad_alert::pack::NATURALNESS_DRIFT,
                opad_alert::pack::FUZZ_DEAD,
                opad_alert::pack::SEEDS_STALLED,
                opad_alert::pack::STUCK_PHASE,
            ]
        );
        // The breach rule carries this run's own target as its threshold,
        // and the drift floor sits below anything the field data scores.
        let breach = &lp.alert_rules()[0];
        match &breach.condition {
            opad_alert::Condition::Compare { threshold, .. } => {
                assert!((threshold - 0.05).abs() < 1e-12)
            }
            other => panic!("unexpected breach condition {other:?}"),
        }
        let floor = match &lp.alert_rules()[1].condition {
            opad_alert::Condition::HistQuantile { threshold, .. } => *threshold,
            other => panic!("unexpected drift condition {other:?}"),
        };
        let d = f.field.feature_dim();
        let xs = f.field.features().as_slice();
        for i in 0..f.field.len() {
            let score = f.op.density().log_density(&xs[i * d..(i + 1) * d]).unwrap();
            assert!(score > floor, "field point {i} scores {score} <= {floor}");
        }
    }

    #[test]
    fn run_round_installs_the_pack_into_the_global_center() {
        let f = fixture();
        let target = ReliabilityTarget::new(1e-4, 0.95).unwrap();
        let mut lp = campaign(&f, &f.field, target, small_config()).unwrap();
        let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 5, 0.08).unwrap();
        let center = std::sync::Arc::new(opad_alert::AlertCenter::new(Vec::new()));
        opad_alert::install(center.clone());
        let ran = lp.run_round(&f.field, &f.train, &attack);
        opad_alert::uninstall();
        ran.unwrap();
        for name in [
            opad_alert::pack::PFD_BOUND_BREACH,
            opad_alert::pack::NATURALNESS_DRIFT,
            opad_alert::pack::FUZZ_DEAD,
            opad_alert::pack::SEEDS_STALLED,
            opad_alert::pack::STUCK_PHASE,
        ] {
            assert!(center.has_rule(name), "pack rule {name} not installed");
        }
    }

    #[test]
    fn full_run_respects_max_rounds_and_orders_reports() {
        let f = fixture();
        let target = ReliabilityTarget::new(1e-6, 0.99).unwrap(); // unreachable
        let mut lp = campaign(&f, &f.field, target, small_config()).unwrap();
        let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 8, 0.08).unwrap();
        let reports = lp.run(&f.field, &f.train, &attack).unwrap();
        assert_eq!(reports.len(), 2); // max_rounds
        assert_eq!(reports[0].round, 0);
        assert_eq!(reports[1].round, 1);
        assert_eq!(lp.timeline().total_tests(), 2 * (10 + 50));
    }

    #[test]
    fn easy_target_stops_early() {
        let f = fixture();
        // A very lax target: pfd ≤ 0.9 — met in round 0 for a decent model.
        let target = ReliabilityTarget::new(0.9, 0.9).unwrap();
        let config = LoopConfig {
            max_rounds: 5,
            ..small_config()
        };
        let mut lp = campaign(&f, &f.field, target, config).unwrap();
        let attack = Pgd::new(NormBall::linf(0.2).unwrap(), 5, 0.08).unwrap();
        let reports = lp.run(&f.field, &f.train, &attack).unwrap();
        assert_eq!(reports.len(), 1, "should stop after the first round");
        assert!(reports[0].target_met);
    }

    #[test]
    fn corpus_accumulates_across_rounds() {
        let f = fixture();
        let target = ReliabilityTarget::new(1e-6, 0.99).unwrap();
        let config = LoopConfig {
            max_rounds: 3,
            ..small_config()
        };
        let mut lp = campaign(&f, &f.field, target, config).unwrap();
        // A strong attack so AEs are plentiful.
        let attack = Pgd::new(NormBall::linf(0.5).unwrap(), 15, 0.1).unwrap();
        let reports = lp.run(&f.field, &f.train, &attack).unwrap();
        let per_round: usize = reports.iter().map(|x| x.aes_found).sum();
        assert_eq!(lp.corpus().len(), per_round);
    }

    #[test]
    fn update_profile_resets_evidence_but_keeps_corpus() {
        let f = fixture();
        let target = ReliabilityTarget::new(1e-5, 0.95).unwrap();
        let mut lp = campaign(&f, &f.field, target, small_config()).unwrap();
        let attack = Pgd::new(NormBall::linf(0.4).unwrap(), 12, 0.08).unwrap();
        lp.run_round(&f.field, &f.train, &attack).unwrap();
        let corpus_before = lp.corpus().len();
        let old_cell_op = lp.cell_op().to_vec();

        // Drifted field data: heavily skewed to another class.
        let cfg = GaussianClustersConfig::default();
        let mut r2 = Rng::seed_from_u64(77);
        let drifted = gaussian_clusters(&cfg, 400, &[0.05, 0.15, 0.8], &mut r2).unwrap();
        lp.update_profile(f.op.clone(), &drifted).unwrap();
        assert_eq!(lp.corpus().len(), corpus_before, "corpus survives drift");
        assert_ne!(lp.cell_op(), &old_cell_op[..], "cell OP refreshed");
        assert_eq!(lp.reliability().total_demands(), 0, "evidence reset");
        // The campaign keeps running against the new profile.
        let report = lp.run_round(&drifted, &f.train, &attack).unwrap();
        assert!(report.pfd_upper >= report.pfd_mean);

        // Empty data rejected.
        let bad = Dataset::new(opad_tensor::Tensor::zeros(&[0, 2]), vec![], 3).unwrap();
        assert!(lp
            .update_profile(learn_op_gmm(&drifted, 3, 5, &mut r2).unwrap(), &bad)
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let f = fixture();
            let target = ReliabilityTarget::new(1e-4, 0.95).unwrap();
            let mut lp = campaign(&f, &f.field, target, small_config()).unwrap();
            let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 10, 0.08).unwrap();
            lp.run_round(&f.field, &f.train, &attack).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn round_report_is_thread_count_invariant() {
        // The headline guarantee: same config + seed ⇒ the same report at
        // any thread count (report equality ignores only wall times).
        let run_at = |threads: usize| {
            let _pin = opad_par::override_threads(threads);
            let f = fixture();
            let target = ReliabilityTarget::new(1e-4, 0.95).unwrap();
            let mut lp = campaign(&f, &f.field, target, small_config()).unwrap();
            let attack = Pgd::new(NormBall::linf(0.3).unwrap(), 10, 0.08).unwrap();
            lp.run_round(&f.field, &f.train, &attack).unwrap()
        };
        let serial = run_at(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                run_at(threads),
                serial,
                "round differs at {threads} threads"
            );
        }
    }
}
