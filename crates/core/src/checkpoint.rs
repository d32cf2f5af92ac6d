//! Campaign checkpoint/resume: the schema-versioned `CKPT_<seq>.json`
//! envelope a [`ShardedCampaign`] can be frozen into between rounds and
//! thawed from later — in a different process, on a different machine.
//!
//! The envelope carries everything round `r+1` depends on: the
//! (retrained) network, the merged reliability posterior, the growth
//! timeline, the cumulative AE corpus, the discretised cell OP, the
//! config, the campaign seed and the round counter. It deliberately does
//! **not** carry RNG state — a campaign derives round `r`'s streams from
//! `(campaign_seed, r)` alone, which is the whole reason resume can be
//! bit-exact (pinned by `tests/checkpoint_roundtrip.rs`).
//!
//! The operational profile and the partition are *not* serialized
//! either: they are inputs the caller already owns (a `Density` is a
//! trait object boundary), so [`ShardedCampaign::resume`] takes them
//! back and cross-checks their geometry against the envelope. A profile
//! swap between save and resume is caught by those checks wherever
//! geometry changes; swapping in a different same-shape profile is the
//! caller's responsibility, exactly as with
//! [`ShardedCampaign::update_profile`]. Attached detectors are not
//! serialized either: re-attach them to the resumed campaign.
//!
//! Filename conventions (`CKPT_0007.json`, historical unpadded forms
//! tolerated) and the schema-version constant live in
//! [`opad_telemetry`] next to the `BENCH_` family, so `obsctl
//! selfcheck` validates checkpoints without linking this crate.

use crate::pipeline::RoundReport;
use crate::sharded::{ShardedCampaign, ShardedConfig};
use crate::{AeCorpus, PipelineError, SeedSampler};
use opad_data::Dataset;
use opad_nn::Network;
use opad_opmodel::{CentroidPartition, Density, OperationalProfile, Partition};
use opad_reliability::{CellReliabilityModel, GrowthTimeline};
use opad_telemetry::{
    ckpt_files, parse_json, JsonValue, CHECKPOINT_KIND_SHARDED, CHECKPOINT_SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};

/// A frozen [`ShardedCampaign`], saved as one self-describing JSON
/// document ([`ShardedCampaign::save_checkpoint`], [`read_checkpoint`]).
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    /// Layout version ([`CHECKPOINT_SCHEMA_VERSION`] at write time).
    /// Readers reject versions newer than they understand.
    pub schema_version: u32,
    /// Envelope family tag ([`CHECKPOINT_KIND_SHARDED`]).
    pub kind: String,
    /// The campaign's RNG root.
    pub campaign_seed: u64,
    /// Rounds completed when the checkpoint was taken.
    pub rounds_run: usize,
    /// The campaign configuration.
    pub config: ShardedConfig,
    /// The discretised per-cell OP the reliability model runs on.
    pub cell_op: Vec<f64>,
    /// The model under test, including any retraining so far.
    pub net: Network,
    /// The merged reliability posterior (reset state after a retrain).
    pub reliability: CellReliabilityModel,
    /// The reliability-growth timeline (carries the target).
    pub timeline: GrowthTimeline,
    /// The cumulative AE corpus, in canonical seed-index order.
    pub corpus: AeCorpus,
    /// Reports of every completed round.
    pub reports: Vec<RoundReport>,
}

impl CampaignCheckpoint {
    /// The envelope as JSON. Every float keeps its bits, and
    /// `campaign_seed` is written as a decimal string when it exceeds
    /// 2^53, so any seed reads back exactly.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("schema_version", self.schema_version.into()),
            ("kind", self.kind.as_str().into()),
            ("campaign_seed", self.campaign_seed.into()),
            ("rounds_run", self.rounds_run.into()),
            ("config", self.config.to_json()),
            ("cell_op", JsonValue::arr(self.cell_op.iter().copied())),
            ("net", self.net.to_json()),
            ("reliability", self.reliability.to_json()),
            ("timeline", self.timeline.to_json()),
            ("corpus", self.corpus.to_json()),
            (
                "reports",
                JsonValue::arr(self.reports.iter().map(RoundReport::to_json)),
            ),
        ])
    }

    /// Reads [`CampaignCheckpoint::to_json`] output (not yet validated:
    /// [`read_checkpoint`] and [`ShardedCampaign::resume`] do that).
    ///
    /// # Errors
    ///
    /// When a field is missing or malformed.
    pub(crate) fn from_json(v: &JsonValue) -> Result<Self, String> {
        let schema_version = v.field("schema_version")?.to_u64()?;
        Ok(CampaignCheckpoint {
            schema_version: u32::try_from(schema_version)
                .map_err(|_| format!("schema version {schema_version} out of range"))?,
            kind: v.field("kind")?.to_str()?.to_string(),
            campaign_seed: v.field("campaign_seed")?.to_u64()?,
            rounds_run: v.field("rounds_run")?.to_usize()?,
            config: ShardedConfig::from_json(v.field("config")?)?,
            cell_op: v.field("cell_op")?.to_vec(JsonValue::to_f64)?,
            net: Network::from_json(v.field("net")?).map_err(|e| e.to_string())?,
            reliability: CellReliabilityModel::from_json(v.field("reliability")?)?,
            timeline: GrowthTimeline::from_json(v.field("timeline")?)?,
            corpus: AeCorpus::from_json(v.field("corpus")?)?,
            reports: v.field("reports")?.to_vec(RoundReport::from_json)?,
        })
    }
}

impl<D: Density> ShardedCampaign<D> {
    /// Freezes the campaign's state into an envelope.
    pub fn checkpoint(&self) -> CampaignCheckpoint {
        CampaignCheckpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            kind: CHECKPOINT_KIND_SHARDED.to_string(),
            campaign_seed: self.campaign_seed,
            rounds_run: self.rounds_run,
            config: self.config.clone(),
            cell_op: self.cell_op.clone(),
            net: self.net.clone(),
            reliability: self.reliability.clone(),
            timeline: self.timeline.clone(),
            corpus: self.corpus.clone(),
            reports: self.reports.clone(),
        }
    }

    /// Writes the campaign's checkpoint as the next `CKPT_<seq>.json` in
    /// `dir` (created if missing), returning the path.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn save_checkpoint(&self, dir: &Path) -> Result<PathBuf, PipelineError> {
        let ckpt = self.checkpoint();
        std::fs::create_dir_all(dir).map_err(|e| PipelineError::Checkpoint {
            reason: format!("cannot create {}: {e}", dir.display()),
        })?;
        let seq = ckpt_files(dir).last().map_or(0, |(s, _)| s + 1);
        let path = dir.join(format!("CKPT_{seq:04}.json"));
        std::fs::write(&path, format!("{:#}", ckpt.to_json())).map_err(|e| {
            PipelineError::Checkpoint {
                reason: format!("cannot write {}: {e}", path.display()),
            }
        })?;
        opad_telemetry::counter_add("shard.checkpoints", 1);
        Ok(path)
    }

    /// Thaws a checkpoint back into a runnable campaign. The caller
    /// re-supplies the operational profile and partition (not part of
    /// the envelope — see the module docs); their geometry is
    /// cross-checked against the frozen state.
    ///
    /// # Errors
    ///
    /// Fails when the envelope is inconsistent or the supplied profile
    /// and partition do not match its geometry.
    pub fn resume(
        op: OperationalProfile<D>,
        partition: CentroidPartition,
        field_data: &Dataset,
        ckpt: CampaignCheckpoint,
    ) -> Result<Self, PipelineError> {
        validate_envelope(&ckpt)?;
        ckpt.config.validate()?;
        if partition.num_cells() != ckpt.cell_op.len() {
            return Err(PipelineError::Checkpoint {
                reason: format!(
                    "partition has {} cells but the checkpoint froze {}",
                    partition.num_cells(),
                    ckpt.cell_op.len()
                ),
            });
        }
        if ckpt.reliability.num_cells() != ckpt.cell_op.len() {
            return Err(PipelineError::Checkpoint {
                reason: format!(
                    "reliability model spans {} cells but cell_op has {}",
                    ckpt.reliability.num_cells(),
                    ckpt.cell_op.len()
                ),
            });
        }
        if ckpt.rounds_run != ckpt.reports.len() {
            return Err(PipelineError::Checkpoint {
                reason: format!(
                    "{} rounds run but {} reports frozen",
                    ckpt.rounds_run,
                    ckpt.reports.len()
                ),
            });
        }
        let sampler = SeedSampler::new(ckpt.config.base.weighting);
        let alert_rules = crate::pipeline::alert_pack(
            ckpt.timeline.target().target_pfd,
            op.density(),
            field_data,
        )?;
        Ok(ShardedCampaign {
            net: ckpt.net,
            op,
            partition,
            cell_op: ckpt.cell_op,
            reliability: ckpt.reliability,
            timeline: ckpt.timeline,
            corpus: ckpt.corpus,
            sampler,
            config: ckpt.config,
            campaign_seed: ckpt.campaign_seed,
            rounds_run: ckpt.rounds_run,
            reports: ckpt.reports,
            alert_rules,
            detectors: Vec::new(),
        })
    }
}

/// Reads and validates a checkpoint envelope from disk. Truncated,
/// malformed, foreign-kind and future-versioned files all fail loudly.
///
/// # Errors
///
/// Fails on I/O errors, parse errors, or an invalid envelope.
pub fn read_checkpoint(path: &Path) -> Result<CampaignCheckpoint, PipelineError> {
    let text = std::fs::read_to_string(path).map_err(|e| PipelineError::Checkpoint {
        reason: format!("cannot read {}: {e}", path.display()),
    })?;
    let ckpt = parse_json(&text)
        .map_err(|e| e.to_string())
        .and_then(|v| CampaignCheckpoint::from_json(&v))
        .map_err(|e| PipelineError::Checkpoint {
            reason: format!("{} is not a valid checkpoint: {e}", path.display()),
        })?;
    validate_envelope(&ckpt)?;
    Ok(ckpt)
}

fn validate_envelope(ckpt: &CampaignCheckpoint) -> Result<(), PipelineError> {
    if ckpt.kind != CHECKPOINT_KIND_SHARDED {
        return Err(PipelineError::Checkpoint {
            reason: format!(
                "unknown checkpoint kind {:?} (expected {CHECKPOINT_KIND_SHARDED:?})",
                ckpt.kind
            ),
        });
    }
    if ckpt.schema_version > CHECKPOINT_SCHEMA_VERSION {
        return Err(PipelineError::Checkpoint {
            reason: format!(
                "checkpoint schema v{} is newer than supported v{CHECKPOINT_SCHEMA_VERSION}",
                ckpt.schema_version
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_envelope() -> CampaignCheckpoint {
        CampaignCheckpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            kind: CHECKPOINT_KIND_SHARDED.to_string(),
            campaign_seed: 7,
            rounds_run: 0,
            config: ShardedConfig {
                shards: 2,
                base: crate::LoopConfig::default(),
            },
            cell_op: vec![0.5, 0.5],
            net: {
                let mut rng = opad_par::Rng::seed_from_u64(0);
                Network::mlp(&[2, 3, 2], opad_nn::Activation::Relu, &mut rng).unwrap()
            },
            reliability: CellReliabilityModel::new(vec![0.5, 0.5]).unwrap(),
            timeline: GrowthTimeline::new(opad_reliability::ReliabilityTarget {
                target_pfd: 1e-3,
                confidence: 0.9,
            }),
            corpus: AeCorpus::new(),
            reports: Vec::new(),
        }
    }

    #[test]
    fn envelope_round_trips_through_json() {
        let ckpt = minimal_envelope();
        let text = ckpt.to_json().to_string();
        let back = CampaignCheckpoint::from_json(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(back.campaign_seed, 7);
        assert_eq!(back.cell_op, ckpt.cell_op);
        assert!(validate_envelope(&back).is_ok());
    }

    #[test]
    fn foreign_kind_and_future_schema_are_rejected() {
        let mut ckpt = minimal_envelope();
        ckpt.kind = "something_else".into();
        assert!(matches!(
            validate_envelope(&ckpt),
            Err(PipelineError::Checkpoint { .. })
        ));
        let mut ckpt = minimal_envelope();
        ckpt.schema_version = CHECKPOINT_SCHEMA_VERSION + 1;
        let err = validate_envelope(&ckpt).unwrap_err();
        assert!(err.to_string().contains("newer than supported"));
    }

    #[test]
    fn truncated_files_fail_loudly() {
        let dir = std::env::temp_dir().join("opad_core_ckpt_truncation_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let full = minimal_envelope().to_json().to_string();
        let path = dir.join("CKPT_0000.json");
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(PipelineError::Checkpoint { .. })
        ));
        assert!(read_checkpoint(&dir.join("CKPT_0001.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
