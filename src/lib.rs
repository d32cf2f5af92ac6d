//! # opad — Operational Adversarial Example Detection
//!
//! A Rust reproduction of *"Detecting Operational Adversarial Examples
//! for Reliable Deep Learning"* (Zhao, Huang, Schewe, Dong & Huang,
//! DSN 2021): a testing method for DL classifiers that spends its budget
//! detecting adversarial examples the *operational profile* says will
//! actually be met in the field.
//!
//! This meta-crate re-exports the whole toolkit:
//!
//! * [`tensor`] — dense tensors (the numeric substrate);
//! * [`nn`] — from-scratch neural networks with input gradients;
//! * [`data`] — procedural datasets with controllable class skew;
//! * [`opmodel`] — operational profiles: densities, partitions, drift;
//! * [`attack`] — FGSM, random fuzzing and PGD, whose detector guide
//!   makes it the paper's naturalness-guided fuzzer (guided by the OP
//!   density) or the Carlini–Wagner adaptive attack (guided by any other
//!   detector);
//! * [`detect`] — the detector zoo behind one [`detect::Detector`]
//!   trait: LID, feature squeezing, MagNet reconstruction, DLA and the
//!   paper's OP-density signal, plus ROC/AUROC evaluation;
//! * [`reliability`] — ReAsDL-style Bayesian reliability assessment;
//! * [`core`] — the five-step testing loop tying it all together;
//! * [`par`] — the deterministic scoped worker pool behind the parallel
//!   kernels (`OPAD_THREADS` controls width, results never change);
//! * [`telemetry`] — std-only spans, counters and run traces;
//! * [`serve`] — the live observability server: Prometheus `/metrics`,
//!   `/healthz`, `/runs` and `/alerts` over a `LiveRecorder`;
//! * [`alert`] — the alerting & watchdog plane: declarative rules over
//!   live metrics with Prometheus-style pending/firing hysteresis, a
//!   background watch thread, and deterministic offline replay
//!   (`obsctl alerts check|replay`);
//! * [`tsdb`] — the history plane: ring-buffer time series sampled from
//!   the live recorder, window functions (`rate`, `quantile_over_time`,
//!   …) behind `GET /timeseries`/`/query`, windowed alert conditions and
//!   `obsctl watch`.
//!
//! # Quickstart
//!
//! ```
//! use opad::prelude::*;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! // Balanced training data, skewed operational data.
//! let cfg = GaussianClustersConfig::default();
//! let train = gaussian_clusters(&cfg, 200, &uniform_probs(3), &mut rng)?;
//! let field = gaussian_clusters(&cfg, 200, &zipf_probs(3, 1.5), &mut rng)?;
//! // Train a model and learn the OP.
//! let mut net = Network::mlp(&[2, 16, 3], Activation::Relu, &mut rng)?;
//! Trainer::new(TrainConfig::new(10, 32), Optimizer::adam(0.01))
//!     .fit(&mut net, train.features(), train.labels(), None, &mut rng)?;
//! let op = learn_op_gmm(&field, 3, 10, &mut rng)?;
//! assert_eq!(op.num_classes(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use opad_alert as alert;
pub use opad_attack as attack;
pub use opad_core as core;
pub use opad_data as data;
pub use opad_detect as detect;
pub use opad_nn as nn;
pub use opad_opmodel as opmodel;
pub use opad_par as par;
pub use opad_reliability as reliability;
pub use opad_serve as serve;
pub use opad_telemetry as telemetry;
pub use opad_tensor as tensor;
pub use opad_tsdb as tsdb;

/// One-stop imports for examples and downstream binaries.
pub mod prelude {
    pub use opad_alert::{parse_rules, AlertCenter, AlertState, AlertWatch, Transition};
    pub use opad_attack::{Attack, AttackOutcome, Fgsm, NormBall, Pgd, RandomFuzz};
    pub use opad_core::{
        classify_outcome, read_checkpoint, retrain_with_aes, shard_ranges, AeCorpus,
        CampaignCheckpoint, DetectedAe, DetectorRoundScore, LoopConfig, PipelineError,
        RetrainConfig, RoundReport, SeedSampler, SeedWeightAccumulator, SeedWeighting,
        ShardedCampaign, ShardedConfig,
    };
    pub use opad_data::{
        gaussian_clusters, glyphs, rings, two_moons, uniform_probs, zipf_probs, Dataset,
        GaussianClustersConfig, GlyphConfig,
    };
    pub use opad_detect::{
        auroc, roc_curve, score_batch, DetectError, Detector, Dla, FeatureSqueeze, Lid, Magnet,
        OpDensityDetector, RocCurve, RocPoint,
    };
    pub use opad_nn::{
        cross_entropy, prediction_entropy, prediction_margin, Activation, ConfusionMatrix, Network,
        Optimizer, TrainConfig, Trainer,
    };
    pub use opad_opmodel::{
        js_divergence, kl_divergence, learn_op_gmm, learn_op_kde, tv_distance, CentroidPartition,
        Density, Gmm, GmmComponent, GridPartition, Kde, LinearDrift, OperationalProfile, Partition,
    };
    pub use opad_par::Rng;
    pub use opad_reliability::{
        clopper_pearson_upper, demands_for_target, Assessment, Beta, CellReliabilityModel,
        GrowthTimeline, ReliabilityTarget,
    };
    pub use opad_serve::{MetricsServer, ServerConfig};
    pub use opad_telemetry::{JsonlSink, LiveRecorder, Recorder, Sink, TestSink};
    pub use opad_tensor::{Shape, Tensor, TensorError};
    pub use opad_tsdb::{parse_expr, Sample, Sampler, SeriesKind, TsdbLink, TsdbStore};
}
