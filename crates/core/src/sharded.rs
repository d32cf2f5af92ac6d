//! The operational adversarial testing loop of the paper's Figure 1 —
//! learn OP → sample seeds → fuzz → retrain → assess, with each
//! assessment feeding the next round's sampling — run as a resumable
//! campaign over a sharded cell space.
//!
//! A [`ShardedCampaign`] deterministically splits the partition's cells
//! into contiguous shard ranges ([`shard_ranges`]). The two steps that
//! walk per-cell data run shard-local and fold back in shard order:
//! seed-weight accumulation ([`crate::SeedWeightAccumulator`]) and
//! operational evaluation (each shard into a fresh
//! [`CellReliabilityModel`]). Fuzzing fans out one task per seed at any
//! shard count, and its evidence is observed serially in seed order.
//! Every random stream is keyed by a *global* identity (seed index, cell
//! index) via [`opad_par::stream_seed`], and every merge adds integer
//! counts (exact in f64 far below 2^53), so the posterior and the full
//! [`RoundReport`] are bit-identical at any shard count and any
//! `OPAD_THREADS` — pinned by `tests/shard_equivalence.rs`. `shards: 1`
//! is the plain sequential loop.
//!
//! A campaign owns its RNG root: round `r` runs on
//! `stream_seed(campaign_seed, r)`, never on a caller's generator. That
//! makes it resumable — a checkpoint needs only the round counter, not
//! serialized RNG state (see [`crate::CampaignCheckpoint`]). Attached
//! detectors are not part of a checkpoint; re-attach them after
//! [`ShardedCampaign::resume`].

use crate::pipeline::{
    alert_pack, purpose_rng, DetectorRoundScore, LoopConfig, RoundReport, StepDurations,
    PURPOSE_ASSESS, PURPOSE_EVAL, PURPOSE_FUZZ, PURPOSE_RETRAIN, PURPOSE_SAMPLE,
};
use crate::{
    classify_outcome, retrain_with_aes, AeCorpus, DetectedAe, PipelineError, SeedSampler,
    SeedWeightAccumulator,
};
use opad_alert::Rule as AlertRule;
use opad_attack::Attack;
use opad_data::Dataset;
use opad_detect::Detector;
use opad_nn::Network;
use opad_opmodel::{CentroidPartition, Density, OperationalProfile, Partition};
use opad_par::Rng;
use opad_reliability::{Assessment, CellReliabilityModel, GrowthTimeline, ReliabilityTarget};
use opad_telemetry::{self as telemetry, JsonValue};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Span names are `&'static str`, so per-shard spans come from a static
/// table; campaigns wider than the table share the overflow name.
const SHARD_SPAN_NAMES: [&str; 16] = [
    "shard[0]",
    "shard[1]",
    "shard[2]",
    "shard[3]",
    "shard[4]",
    "shard[5]",
    "shard[6]",
    "shard[7]",
    "shard[8]",
    "shard[9]",
    "shard[10]",
    "shard[11]",
    "shard[12]",
    "shard[13]",
    "shard[14]",
    "shard[15]",
];

fn shard_span_name(shard: usize) -> &'static str {
    SHARD_SPAN_NAMES.get(shard).copied().unwrap_or("shard[*]")
}

/// Configuration of a sharded campaign: the number of shards plus the
/// full per-round [`LoopConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConfig {
    /// Number of cell-space shards. `1` is the sequential loop the
    /// equivalence suite compares against.
    pub shards: usize,
    /// The Figure-1 loop configuration applied within each round.
    pub base: LoopConfig,
}

impl ShardedConfig {
    /// The configuration as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("shards", self.shards.into()),
            ("base", self.base.to_json()),
        ])
    }

    /// Reads [`ShardedConfig::to_json`] output.
    ///
    /// # Errors
    ///
    /// When a field is missing or malformed.
    pub(crate) fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(ShardedConfig {
            shards: v.field("shards")?.to_usize()?,
            base: LoopConfig::from_json(v.field("base")?)?,
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Fails on zero shards or an invalid base config.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.shards == 0 {
            return Err(PipelineError::InvalidConfig {
                reason: "shard count must be nonzero".into(),
            });
        }
        self.base.validate()
    }
}

/// Deterministic partition of `num_cells` cells into `shards` contiguous
/// ranges (the same `div_ceil` chunking as `opad_par::par_ranges`, so
/// geometry rules match the thread pool's). Trailing ranges may be empty
/// when `shards` exceeds `num_cells`.
pub fn shard_ranges(num_cells: usize, shards: usize) -> Vec<Range<usize>> {
    let chunk = num_cells.div_ceil(shards.max(1)).max(1);
    (0..shards)
        .map(|s| (s * chunk).min(num_cells)..((s + 1) * chunk).min(num_cells))
        .collect()
}

/// A detector riding along with the campaign (shared, scored read-only).
#[derive(Clone)]
pub(crate) struct AttachedDetector(Arc<dyn Detector + Send + Sync>);

impl fmt::Debug for AttachedDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AttachedDetector({})", self.0.name())
    }
}

/// The operational adversarial testing loop (the paper's contribution,
/// Fig. 1), run as a resumable, cell-sharded campaign.
///
/// Owns the model under test, the (learned) operational profile, the cell
/// partition and the reliability model; each
/// [`ShardedCampaign::run_round`] performs steps 2–5 of the workflow and
/// records an [`Assessment`]. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct ShardedCampaign<D> {
    pub(crate) net: Network,
    pub(crate) op: OperationalProfile<D>,
    pub(crate) partition: CentroidPartition,
    pub(crate) cell_op: Vec<f64>,
    pub(crate) reliability: CellReliabilityModel,
    pub(crate) timeline: GrowthTimeline,
    pub(crate) corpus: AeCorpus,
    pub(crate) sampler: SeedSampler,
    pub(crate) config: ShardedConfig,
    pub(crate) campaign_seed: u64,
    pub(crate) rounds_run: usize,
    pub(crate) reports: Vec<RoundReport>,
    pub(crate) alert_rules: Vec<AlertRule>,
    pub(crate) detectors: Vec<AttachedDetector>,
}

impl<D: Density> ShardedCampaign<D> {
    /// Creates a campaign whose every random stream derives from
    /// `campaign_seed`.
    ///
    /// `field_data` (the operational dataset) defines the per-cell OP via
    /// its empirical cell occupancy (Laplace-smoothed).
    ///
    /// # Errors
    ///
    /// Fails on invalid config or degenerate field data.
    pub fn new(
        net: Network,
        op: OperationalProfile<D>,
        partition: CentroidPartition,
        field_data: &Dataset,
        target: ReliabilityTarget,
        config: ShardedConfig,
        campaign_seed: u64,
    ) -> Result<Self, PipelineError> {
        config.validate()?;
        let alert_rules = alert_pack(target.target_pfd, op.density(), field_data)?;
        let cell_op = partition.cell_distribution(field_data.features(), 0.5)?;
        let reliability = CellReliabilityModel::new(cell_op.clone())?;
        let sampler = SeedSampler::new(config.base.weighting);
        Ok(ShardedCampaign {
            net,
            op,
            partition,
            cell_op,
            reliability,
            timeline: GrowthTimeline::new(target),
            corpus: AeCorpus::new(),
            sampler,
            config,
            campaign_seed,
            rounds_run: 0,
            reports: Vec::new(),
            alert_rules,
            detectors: Vec::new(),
        })
    }

    /// Attaches a fitted detector: every subsequent round scores its AE
    /// candidates through it and reports the mean suspicion per detector
    /// on [`RoundReport::detector_scores`]. Detectors observe the round
    /// read-only, so attaching them never perturbs sampling, fuzzing or
    /// the reliability claim.
    pub fn attach_detector(&mut self, detector: Arc<dyn Detector + Send + Sync>) {
        self.detectors.push(AttachedDetector(detector));
    }

    /// Names of the attached detectors, in attachment order.
    pub fn detector_names(&self) -> Vec<&'static str> {
        self.detectors.iter().map(|d| d.0.name()).collect()
    }

    /// The model under test (read-only).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The cumulative corpus of detected operational AEs.
    pub fn corpus(&self) -> &AeCorpus {
        &self.corpus
    }

    /// The reliability-growth timeline.
    pub fn timeline(&self) -> &GrowthTimeline {
        &self.timeline
    }

    /// The current (merged) reliability model.
    pub fn reliability(&self) -> &CellReliabilityModel {
        &self.reliability
    }

    /// The discretised (per-cell) operational profile.
    pub fn cell_op(&self) -> &[f64] {
        &self.cell_op
    }

    /// The campaign configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The campaign's RNG root.
    pub fn campaign_seed(&self) -> u64 {
        self.campaign_seed
    }

    /// Rounds completed so far (across resumes).
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Every round report so far, including rounds run before a
    /// checkpoint/resume cycle.
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// The default alert pack this campaign installs into the global
    /// [`opad_alert`] center (when one is installed) at the top of every
    /// round: pfd-bound breach, naturalness drift against the training
    /// OP, dead fuzz fan-out / stalled seeds, and the stuck-phase
    /// watchdog — parameterised on this run's own target and data.
    pub fn alert_rules(&self) -> &[AlertRule] {
        &self.alert_rules
    }

    /// Replaces the operational profile mid-campaign (RQ1 re-learning
    /// after drift): recomputes the per-cell OP from `fresh_field_data`
    /// and resets the reliability evidence, since the old demands were
    /// drawn from a profile that no longer holds. The naturalness floor
    /// is re-derived from the new profile. The AE corpus and the model
    /// are kept — fixed bugs stay fixed.
    ///
    /// # Errors
    ///
    /// Fails on empty data or a degenerate profile.
    pub fn update_profile(
        &mut self,
        op: OperationalProfile<D>,
        fresh_field_data: &Dataset,
    ) -> Result<(), PipelineError> {
        let alert_rules = alert_pack(
            self.timeline.target().target_pfd,
            op.density(),
            fresh_field_data,
        )?;
        self.cell_op = self
            .partition
            .cell_distribution(fresh_field_data.features(), 0.5)?;
        self.reliability = CellReliabilityModel::new(self.cell_op.clone())?;
        self.alert_rules = alert_rules;
        self.op = op;
        Ok(())
    }

    /// The cell of every row of `data`.
    fn row_cells(&self, data: &Dataset) -> Result<Vec<usize>, PipelineError> {
        let d = data.feature_dim();
        let xs = data.features().as_slice();
        (0..data.len())
            .map(|i| Ok(self.partition.cell_of(&xs[i * d..(i + 1) * d])?))
            .collect()
    }

    /// Runs one round: sample seeds (RQ2) → fuzz (RQ3) → assess (RQ5) →
    /// retrain (RQ4). Seeds are drawn from `field_data` itself.
    ///
    /// # Errors
    ///
    /// Propagates sampling, attack, assessment and retraining failures.
    pub fn run_round<A: Attack + Sync>(
        &mut self,
        field_data: &Dataset,
        train_data: &Dataset,
        attack: &A,
    ) -> Result<RoundReport, PipelineError>
    where
        D: Sync,
    {
        self.run_round_with_pool(field_data, field_data, train_data, attack)
    }

    /// Like [`ShardedCampaign::run_round`] but draws attack seeds from a
    /// separate `seed_pool` (e.g. a balanced test set, to reproduce
    /// OP-ignorant baselines) while operational evaluation still draws
    /// from `field_data`. The sample step shards the pool's rows by their
    /// own cells.
    ///
    /// # Errors
    ///
    /// Propagates sampling, attack, assessment and retraining failures
    /// (the first error in seed or shard order surfaces).
    pub fn run_round_with_pool<A: Attack + Sync>(
        &mut self,
        seed_pool: &Dataset,
        field_data: &Dataset,
        train_data: &Dataset,
        attack: &A,
    ) -> Result<RoundReport, PipelineError>
    where
        D: Sync,
    {
        let round = self.rounds_run;
        let round_start = Instant::now();
        let _round_span = telemetry::span("round");
        // Live observers (opad-serve `/healthz`, `/metrics`) read these
        // gauges to report where the run currently is.
        telemetry::phase::set_round(round);
        telemetry::gauge_set("shard.count", self.config.shards as f64);
        // If an alert center is watching this process, make sure it has
        // the default pack for this run (idempotent by rule name, so
        // operator-tuned overrides with the same names win).
        if let Some(center) = opad_alert::current() {
            center.ensure_rules(&self.alert_rules);
        }
        let mut step_ms = StepDurations::default();

        // No caller draw: a resumed campaign re-derives round r's streams
        // from (seed, r) alone.
        let round_seed = opad_par::stream_seed(self.campaign_seed, round as u64);
        let mut sample_rng = purpose_rng(round_seed, PURPOSE_SAMPLE);
        let fuzz_base = opad_par::stream_seed(round_seed, PURPOSE_FUZZ);
        let eval_base = opad_par::stream_seed(round_seed, PURPOSE_EVAL);
        let mut assess_rng = purpose_rng(round_seed, PURPOSE_ASSESS);
        let mut retrain_rng = purpose_rng(round_seed, PURPOSE_RETRAIN);

        let ranges = shard_ranges(self.partition.num_cells(), self.config.shards);
        // Each dataset's rows are assigned to cells once per round; a pool
        // that is the field data itself shares the field's assignment.
        let field_cells = self.row_cells(field_data)?;
        let own_pool_cells;
        let pool_cells = if std::ptr::eq(seed_pool, field_data) {
            &field_cells
        } else {
            own_pool_cells = self.row_cells(seed_pool)?;
            &own_pool_cells
        };

        // ---- Step 2: sharded weight accumulation + global sampling. ----
        let step_start = Instant::now();
        telemetry::phase::set(telemetry::phase::SAMPLE_SEEDS);
        let seed_idx = {
            let _span = telemetry::span("sample_seeds");
            let net = &self.net;
            let density = self.op.density();
            let sampler = &self.sampler;
            let partials = opad_par::par_map(
                &ranges,
                |s, cells: &Range<usize>| -> Result<SeedWeightAccumulator, PipelineError> {
                    let _span = telemetry::span(shard_span_name(s));
                    let idx: Vec<usize> = (0..seed_pool.len())
                        .filter(|&i| cells.contains(&pool_cells[i]))
                        .collect();
                    let mut shard_net = net.clone();
                    let mut acc = sampler.accumulator();
                    acc.accumulate(&mut shard_net, seed_pool, &idx, Some(density))?;
                    Ok(acc)
                },
            );
            let mut acc = self.sampler.accumulator();
            for partial in partials {
                acc.merge(&partial?)?;
                telemetry::counter_add("shard.merges", 1);
            }
            let mut weights = acc.finalize(seed_pool.len())?;
            if self.config.base.priority_feedback && round > 0 {
                let priority = self.reliability.cell_priority();
                self.sampler
                    .apply_cell_priority(&mut weights, pool_cells, &priority)?;
            }
            let k = self.config.base.seeds_per_round.min(seed_pool.len());
            self.sampler.sample(&weights, k, &mut sample_rng)?
        };
        let k = seed_idx.len();
        step_ms.sample_seeds_ms = telemetry::ms_since(step_start);

        // ---- Step 3: naturalness-guided fuzzing, one task per seed. ----
        let step_start = Instant::now();
        telemetry::phase::set(telemetry::phase::FUZZ);
        let round_corpus: AeCorpus = {
            let _span = telemetry::span("fuzz");
            let net = &self.net;
            let partition = &self.partition;
            let density = self.op.density();
            let d = seed_pool.feature_dim();
            // Each seed attacks its own clone of the model on its own RNG
            // stream keyed by seed index, so outcomes depend on neither
            // thread count nor shard count. Attacks only touch forward
            // caches, never weights, so the clones predict identically.
            type SeedVerdict = (bool, Option<DetectedAe>);
            let results = opad_par::par_map(
                &seed_idx,
                |_, &i: &usize| -> Result<SeedVerdict, PipelineError> {
                    let mut seed_net = net.clone();
                    let mut seed_rng =
                        Rng::seed_from_u64(opad_par::stream_seed(fuzz_base, i as u64));
                    let (seed, label) = seed_pool.sample(i)?;
                    let outcome = attack.run(&mut seed_net, &seed, label, &mut seed_rng)?;
                    let seed_pred = seed_net.predict_labels(&seed.reshape(&[1, d])?)?[0];
                    let ae = classify_outcome(i, &seed, label, &outcome, density, partition)?;
                    Ok((seed_pred != label, ae))
                },
            );
            // Evidence is observed serially in seed order — the seed itself
            // is an operational demand — and the first error by seed order
            // is the one that surfaces. Counts are integers, so the
            // posterior does not depend on the order either.
            let mut aes = Vec::new();
            for (&i, result) in seed_idx.iter().zip(results) {
                let (seed_failed, ae) = result?;
                self.reliability.observe(pool_cells[i], seed_failed)?;
                if let Some(ae) = ae {
                    if self.config.base.ae_evidence {
                        self.reliability.observe(ae.cell, true)?;
                    }
                    aes.push(ae);
                }
            }
            telemetry::counter_add("shard.demands", k as u64);
            // AEs enter the corpus in seed-index order, not sampling
            // order: retraining batches and checkpointed corpora follow it.
            aes.sort_by_key(|ae| ae.seed_index);
            aes.into_iter().collect()
        };
        step_ms.fuzz_ms = telemetry::ms_since(step_start);
        let aes_found = round_corpus.len();
        telemetry::counter_add("pipeline.seeds_attacked", k as u64);
        telemetry::counter_add("pipeline.aes_found", aes_found as u64);
        telemetry::counter_add(
            "pipeline.cells_hit",
            round_corpus.distinct_cells().len() as u64,
        );
        self.corpus.extend_from(&round_corpus);

        // ---- Detector plane: score this round's AE candidates through
        // every attached detector. Serial, in corpus (= seed-index) order,
        // so the reported means are byte-identical at any thread count. ----
        let mut detector_scores = Vec::with_capacity(self.detectors.len());
        for det in &self.detectors {
            let mut total = 0.0f64;
            for ae in round_corpus.aes() {
                let s = det.0.score(ae.candidate.as_slice())?;
                telemetry::histogram_record("detector.score", s);
                total += s;
            }
            telemetry::counter_add("detector.scored", aes_found as u64);
            detector_scores.push(DetectorRoundScore {
                detector: det.0.name().to_string(),
                mean_score: if aes_found == 0 {
                    0.0
                } else {
                    total / aes_found as f64
                },
                scored: aes_found,
            });
        }

        // ---- Step 5a: sharded operational evaluation. ----
        // The eval budget is apportioned to cells by OP mass (largest
        // remainder), and every cell draws demands from its own stream —
        // the per-cell keying that makes the step shardable.
        let step_start = Instant::now();
        telemetry::phase::set(telemetry::phase::EVALUATE);
        let op_accuracy = {
            let _span = telemetry::span("evaluate");
            let mut cell_points: Vec<Vec<usize>> = vec![Vec::new(); self.partition.num_cells()];
            for (i, &cell) in field_cells.iter().enumerate() {
                cell_points[cell].push(i);
            }
            let quota = apportion(&self.cell_op, self.config.base.eval_per_round);
            let net = &self.net;
            let d = field_data.feature_dim();
            type ShardEval = (CellReliabilityModel, u64, u64);
            let cell_op = &self.cell_op;
            let results = opad_par::par_map(
                &ranges,
                |s, cells: &Range<usize>| -> Result<ShardEval, PipelineError> {
                    let _span = telemetry::span(shard_span_name(s));
                    let mut model = CellReliabilityModel::new(cell_op.clone())?;
                    let mut shard_net = net.clone();
                    let (mut correct, mut attempted) = (0u64, 0u64);
                    for cell in cells.clone() {
                        let pts = &cell_points[cell];
                        if pts.is_empty() || quota[cell] == 0 {
                            continue;
                        }
                        let mut cell_rng =
                            Rng::seed_from_u64(opad_par::stream_seed(eval_base, cell as u64));
                        for _ in 0..quota[cell] {
                            let i = pts[cell_rng.gen_range(0..pts.len())];
                            let (x, label) = field_data.sample(i)?;
                            let pred = shard_net.predict_labels(&x.reshape(&[1, d])?)?[0];
                            let failed = pred != label;
                            model.observe(cell, failed)?;
                            telemetry::counter_add("shard.demands", 1);
                            attempted += 1;
                            if !failed {
                                correct += 1;
                            }
                        }
                    }
                    Ok((model, correct, attempted))
                },
            );
            let (mut correct, mut attempted) = (0u64, 0u64);
            for result in results {
                let (model, c, a) = result?;
                self.reliability.merge(&model)?;
                telemetry::counter_add("shard.merges", 1);
                correct += c;
                attempted += a;
            }
            correct as f64 / (attempted.max(1)) as f64
        };
        step_ms.evaluate_ms = telemetry::ms_since(step_start);

        // ---- Step 5b: global reliability claim on the merged model. ----
        let step_start = Instant::now();
        telemetry::phase::set(telemetry::phase::ASSESS);
        let (pfd_mean, pfd_upper, target_met) = {
            let _span = telemetry::span("assess");
            let pfd_mean = self.reliability.pfd_mean();
            let pfd_upper = self.reliability.pfd_upper_bound(
                self.timeline.target().confidence,
                self.config.base.mc_samples,
                &mut assess_rng,
            )?;
            self.timeline.record(Assessment {
                round,
                pfd_mean,
                pfd_upper,
                tests_spent: k + self.config.base.eval_per_round,
                aes_found,
            })?;
            (pfd_mean, pfd_upper, self.timeline.target_met())
        };
        step_ms.assess_ms = telemetry::ms_since(step_start);
        telemetry::gauge_set("pipeline.pfd_mean", pfd_mean);
        telemetry::gauge_set("pipeline.pfd_upper", pfd_upper);
        // The reliability claim under its own namespace, so dashboards
        // watching the paper's convergence criterion need only this one.
        telemetry::gauge_set("reliability.pfd_mean", pfd_mean);
        // Snapshot the freshly assessed gauges into the history plane
        // immediately: the round boundary is the trajectory point that
        // matters, not wherever the sampler's cadence happens to land.
        opad_tsdb::pulse();

        // ---- Step 4: retrain on the cumulative corpus (skipped once the
        // target is met — testing stops). ----
        let step_start = Instant::now();
        if !target_met {
            telemetry::phase::set(telemetry::phase::RETRAIN);
            let _span = telemetry::span("retrain");
            retrain_with_aes(
                &mut self.net,
                train_data,
                &self.corpus,
                Some(self.op.density()),
                &self.config.base.retrain,
                &mut retrain_rng,
            )?;
            // Evidence gathered against the old model no longer applies.
            self.reliability = CellReliabilityModel::new(self.cell_op.clone())?;
            step_ms.retrain_ms = telemetry::ms_since(step_start);
        }

        self.rounds_run += 1;
        telemetry::phase::set(telemetry::phase::IDLE);
        let report = RoundReport {
            round,
            seeds_attacked: k,
            aes_found,
            op_mass_detected: self.corpus.op_mass_detected(&self.cell_op)?,
            pfd_mean,
            pfd_upper,
            op_accuracy,
            target_met,
            detector_scores,
            wall_ms: telemetry::ms_since(round_start),
            step_ms,
        };
        self.reports.push(report.clone());
        Ok(report)
    }

    /// Runs rounds until the reliability target is met or `max_rounds`
    /// is exhausted (counting rounds run before a resume); returns every
    /// report from the whole campaign, pre-resume rounds included.
    ///
    /// # Errors
    ///
    /// Propagates round failures.
    pub fn run<A: Attack + Sync>(
        &mut self,
        field_data: &Dataset,
        train_data: &Dataset,
        attack: &A,
    ) -> Result<Vec<RoundReport>, PipelineError>
    where
        D: Sync,
    {
        while self.rounds_run < self.config.base.max_rounds
            && !self.reports.last().is_some_and(|r| r.target_met)
        {
            self.run_round(field_data, train_data, attack)?;
        }
        telemetry::phase::set(telemetry::phase::DONE);
        Ok(self.reports.clone())
    }
}

/// Largest-remainder apportionment of `total` demands to cells by OP
/// mass. Computed globally from the cell OP alone, so every shard count
/// sees the same per-cell quotas.
fn apportion(cell_op: &[f64], total: usize) -> Vec<usize> {
    let mut quota: Vec<usize> = cell_op
        .iter()
        .map(|&p| (p * total as f64).floor() as usize)
        .collect();
    let assigned: usize = quota.iter().sum();
    let mut remainders: Vec<(f64, usize)> = cell_op
        .iter()
        .enumerate()
        .map(|(c, &p)| (p * total as f64 - quota[c] as f64, c))
        .collect();
    // Largest fraction first; ties break to the lower cell index.
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for i in 0..total.saturating_sub(assigned) {
        quota[remainders[i % remainders.len()].1] += 1;
    }
    quota
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_cells_exactly_once() {
        for (cells, shards) in [(8usize, 1usize), (8, 2), (8, 3), (8, 8), (3, 8), (1, 4)] {
            let ranges = shard_ranges(cells, shards);
            assert_eq!(ranges.len(), shards);
            let mut seen = vec![false; cells];
            for r in &ranges {
                for c in r.clone() {
                    assert!(!seen[c], "cell {c} in two shards ({cells}/{shards})");
                    seen[c] = true;
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "uncovered cell at {cells}/{shards}"
            );
        }
    }

    #[test]
    fn apportion_spends_the_whole_budget_on_nonempty_op() {
        let op = vec![0.5, 0.25, 0.125, 0.125];
        let q = apportion(&op, 10);
        assert_eq!(q.iter().sum::<usize>(), 10);
        assert_eq!(q[0], 5);
        // A skewed profile with awkward fractions still spends exactly
        // the budget, remainder going to the largest fractions.
        let op = vec![0.4, 0.35, 0.15, 0.1];
        let q = apportion(&op, 7);
        assert_eq!(q.iter().sum::<usize>(), 7);
        assert!(q[0] >= q[3]);
    }

    #[test]
    fn sharded_config_validates() {
        let bad = ShardedConfig {
            shards: 0,
            base: LoopConfig::default(),
        };
        assert!(bad.validate().is_err());
        let good = ShardedConfig {
            shards: 4,
            base: LoopConfig::default(),
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn shard_span_names_are_static_and_bounded() {
        assert_eq!(shard_span_name(0), "shard[0]");
        assert_eq!(shard_span_name(15), "shard[15]");
        assert_eq!(shard_span_name(16), "shard[*]");
        assert_eq!(shard_span_name(1000), "shard[*]");
    }
}
