//! End-to-end check that one `ShardedCampaign::run_round` emits the
//! telemetry the observability docs promise: a `round` span wrapping one
//! child span per Fig.-1 step, counters that agree with the returned
//! [`RoundReport`], and a `pipeline.naturalness_floor` gauge published by
//! both `new` and `resume`.
//!
//! The global recorder is process-wide state, so everything lives in one
//! test function — integration tests run in their own process, keeping
//! this isolated from the library's unit tests.

use opad_alert::{pack::NATURALNESS_DRIFT, Condition};
use opad_attack::{NormBall, Pgd};
use opad_core::{LoopConfig, RetrainConfig, RoundReport, ShardedCampaign, ShardedConfig};
use opad_data::{gaussian_clusters, uniform_probs, zipf_probs, GaussianClustersConfig};
use opad_nn::{Activation, Network, Optimizer, TrainConfig, Trainer};
use opad_opmodel::{learn_op_gmm, CentroidPartition};
use opad_par::Rng;
use opad_reliability::ReliabilityTarget;
use opad_telemetry::{self as telemetry, Event, LiveRecorder, TestSink};
use std::sync::Arc;

/// The Fig.-1 step spans in the order they end: each step's child span,
/// then the enclosing round. `opad-par` adds one `par.task` span per pool
/// task under whichever step dispatched it; those are not what this test
/// is about.
const STEP_SPANS: [&str; 6] = [
    "sample_seeds",
    "fuzz",
    "evaluate",
    "assess",
    "retrain",
    "round",
];

/// The `naturalness_drift` rule's threshold.
fn drift_threshold(rules: &[opad_alert::Rule]) -> f64 {
    let rule = rules.iter().find(|r| r.name == NATURALNESS_DRIFT).unwrap();
    match rule.condition {
        Condition::HistQuantile { threshold, .. } => threshold,
        ref other => panic!("unexpected drift condition {other:?}"),
    }
}

#[test]
fn run_round_emits_expected_spans_and_counters() {
    // --- world -----------------------------------------------------------
    let mut rng = Rng::seed_from_u64(11);
    let cfg = GaussianClustersConfig::default();
    let train = gaussian_clusters(&cfg, 240, &uniform_probs(3), &mut rng).unwrap();
    let field = gaussian_clusters(&cfg, 400, &zipf_probs(3, 1.5), &mut rng).unwrap();
    let mut net = Network::mlp(&[2, 16, 3], Activation::Relu, &mut rng).unwrap();
    Trainer::new(TrainConfig::new(20, 32), Optimizer::adam(0.01))
        .fit(&mut net, train.features(), train.labels(), None, &mut rng)
        .unwrap();
    let op = learn_op_gmm(&field, 3, 15, &mut rng).unwrap();
    let partition = CentroidPartition::fit(field.features(), 8, 20, &mut rng).unwrap();

    // --- recorder: capture every streamed event --------------------------
    let sink = Arc::new(TestSink::new());
    let recorder = Arc::new(LiveRecorder::with_sink(sink.clone()));
    telemetry::install(recorder.clone());

    let config = LoopConfig {
        seeds_per_round: 10,
        eval_per_round: 50,
        max_rounds: 2,
        mc_samples: 500,
        retrain: RetrainConfig {
            epochs: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let target = ReliabilityTarget::new(1e-4, 0.95).unwrap(); // unreachable: retrain runs
    let config = ShardedConfig {
        shards: 1,
        base: config,
    };
    let (op2, partition2) = (op.clone(), partition.clone());
    let mut lp = ShardedCampaign::new(net, op, partition, &field, target, config, 11).unwrap();
    // The history plane needs the drift threshold from the first round on.
    let floor = drift_threshold(lp.alert_rules());
    assert_eq!(recorder.gauge("pipeline.naturalness_floor"), Some(floor));
    // A wide ball, so the round finds AEs on these well-separated clusters.
    let attack = Pgd::new(NormBall::linf(1.0).unwrap(), 10, 0.2).unwrap();
    let report: RoundReport = lp.run_round(&field, &train, &attack).unwrap();

    // A resumed campaign publishes its floor again: clobber the gauge so
    // only resume's own write can restore it.
    telemetry::gauge_set("pipeline.naturalness_floor", 0.0);
    let resumed = ShardedCampaign::resume(op2, partition2, &field, lp.checkpoint()).unwrap();
    assert_eq!(drift_threshold(resumed.alert_rules()), floor);
    assert_eq!(recorder.gauge("pipeline.naturalness_floor"), Some(floor));
    telemetry::uninstall();

    // --- span structure ---------------------------------------------------
    // Children end in Fig.-1 order; the enclosing round span ends last.
    let mut step_spans = sink.span_names();
    step_spans.retain(|name| STEP_SPANS.contains(&name.as_str()));
    assert_eq!(step_spans, STEP_SPANS);

    // Of the step spans, the round span opens first, with no parent; every
    // other one is its direct child.
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| match e {
            Event::SpanStart { name, .. } | Event::SpanEnd { name, .. } => {
                STEP_SPANS.contains(&name.as_str())
            }
            _ => true,
        })
        .collect();
    let round_id = match &events[0] {
        Event::SpanStart {
            id,
            parent: None,
            name,
            ..
        } if name == "round" => *id,
        other => panic!("first event should open the round span, got {other:?}"),
    };
    for e in &events[1..] {
        if let Event::SpanStart { parent, name, .. } = e {
            assert_eq!(
                *parent,
                Some(round_id),
                "span {name} should nest directly under the round span"
            );
        }
    }

    // Every start has a matching end with a non-negative duration.
    let starts = events
        .iter()
        .filter(|e| matches!(e, Event::SpanStart { .. }))
        .count();
    let ends: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanEnd { wall_ms, .. } => Some(*wall_ms),
            _ => None,
        })
        .collect();
    assert_eq!(starts, ends.len());
    assert!(ends.iter().all(|&ms| ms >= 0.0));

    // --- aggregates agree with the report --------------------------------
    recorder.flush_summary();
    let s = recorder.summary();
    assert_eq!(
        s.counter("pipeline.seeds_attacked"),
        Some(report.seeds_attacked as u64)
    );
    assert_eq!(
        s.counter("pipeline.aes_found"),
        Some(report.aes_found as u64)
    );
    let cells_hit = s.counter("pipeline.cells_hit").expect("cells_hit counted");
    assert!(cells_hit <= report.aes_found as u64);
    let pfd_mean = s.gauge("pipeline.pfd_mean").unwrap();
    assert!((pfd_mean - report.pfd_mean).abs() < 1e-12);
    // The attack layer saw exactly the attacked seeds, and counted every
    // AE it found as accepted: the default pack's `fuzz_dead` rule
    // watches that counter.
    let pgd_total =
        s.counter("attack.pgd.success").unwrap_or(0) + s.counter("attack.pgd.failure").unwrap_or(0);
    assert_eq!(pgd_total, report.seeds_attacked as u64);
    assert!(report.aes_found > 0, "the PGD round found no AEs");
    assert_eq!(
        s.counter("attack.fuzz.accepted"),
        Some(report.aes_found as u64)
    );
    // The report's step timings come from the same clock as the spans: the
    // round span's wall time matches the report within measurement noise.
    let round_span = s.span("round").expect("round span aggregated");
    assert_eq!(round_span.count, 1);
    assert!(report.step_ms.total_ms() <= report.wall_ms);
    // flush_summary forwarded the aggregates and flushed the sink.
    assert!(sink.flushes() >= 1);
}
