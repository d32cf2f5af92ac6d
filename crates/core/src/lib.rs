//! # opad-core
//!
//! The paper's primary contribution: a testing method for deep-learning
//! classifiers that detects **operational adversarial examples** — AEs
//! with a realistic chance of being met in the field — instead of wasting
//! budget on "5,000-year bugs".
//!
//! The five-step iterative workflow of the paper's Figure 1 maps onto:
//!
//! 1. **Learn the OP** (RQ1) — `opad_opmodel::learn_op_gmm` /
//!    `learn_op_kde` over field data;
//! 2. **Sample seeds** (RQ2) — [`SeedSampler`] with auxiliary-information
//!    weightings ([`SeedWeighting`]);
//! 3. **Fuzz** (RQ3) — any `opad_attack::Attack`, canonically
//!    `opad_attack::Pgd` guided by the OP density
//!    (`Pgd::guided_by(&OpDensityDetector, λ)`);
//! 4. **Retrain** (RQ4) — [`retrain_with_aes`], OP-weighted;
//! 5. **Assess** (RQ5) — `opad_reliability::CellReliabilityModel`, whose
//!    cell priorities feed back into step 2.
//!
//! [`ShardedCampaign`] wires the steps together and iterates until the
//! reliability target is met. Its random streams all derive from one
//! campaign seed, and its per-cell steps run partitioned over the cell
//! space — bit-identical at any shard count thanks to mergeable
//! sufficient statistics everywhere — so it can be frozen into a
//! [`CampaignCheckpoint`] between rounds and resumed.
//!
//! # Examples
//!
//! ```
//! use opad_core::{LoopConfig, SeedSampler, SeedWeighting};
//!
//! let sampler = SeedSampler::new(SeedWeighting::OpTimesMargin);
//! assert_eq!(sampler.weighting().name(), "op*margin");
//! let config = LoopConfig::default();
//! assert!(config.validate().is_ok());
//! ```

#![warn(missing_docs)]

mod bench;
mod checkpoint;
mod error;
mod operational_ae;
mod pipeline;
mod retrain;
mod seed_sampler;
mod sharded;

pub use bench::CoreBenches;
pub use checkpoint::{read_checkpoint, CampaignCheckpoint};
pub use error::PipelineError;
pub use operational_ae::{classify_outcome, AeCorpus, DetectedAe};
pub use pipeline::{DetectorRoundScore, LoopConfig, RoundReport, StepDurations};
pub use retrain::{retrain_with_aes, RetrainConfig};
pub use seed_sampler::{SeedSampler, SeedWeightAccumulator, SeedWeighting};
pub use sharded::{shard_ranges, ShardedCampaign, ShardedConfig};
