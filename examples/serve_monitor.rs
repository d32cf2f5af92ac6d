//! The exp2-style testing loop with the live observability plane
//! attached: a `LiveRecorder` (teeing the usual JSONL trace), the
//! `opad-serve` HTTP server, the `opad-alert` watchdog plane and the
//! `opad-tsdb` history plane — so `/metrics`, `/healthz`, `/runs`,
//! `/alerts`, `/timeseries` and `/query` can be scraped while the
//! rounds are in flight, and a demo alert is driven through its full
//! pending → firing → resolved lifecycle at the end.
//!
//! Run with: `cargo run --release --example serve_monitor`
//!
//! While it runs (and for `OPAD_SERVE_HOLD_SECS` seconds afterwards,
//! default 0):
//!
//! ```text
//! curl http://127.0.0.1:9184/metrics     # Prometheus text exposition
//! curl http://127.0.0.1:9184/healthz     # round + phase + alert + sampler status
//! curl http://127.0.0.1:9184/runs        # finished-run envelopes
//! curl http://127.0.0.1:9184/alerts      # live alert states
//! curl http://127.0.0.1:9184/timeseries  # ring-buffer history index
//! curl 'http://127.0.0.1:9184/query?expr=rate(pipeline.seeds_attacked,10s)'
//! ```
//!
//! Or watch the rings render live in a terminal:
//!
//! ```text
//! cargo run --bin obsctl -- watch --addr 127.0.0.1:9184
//! ```
//!
//! Set `OPAD_SERVE_ADDR` to change the bind address (e.g.
//! `127.0.0.1:0` for an ephemeral port — the chosen one is printed).

use opad::prelude::*;
use opad_par::Rng;
use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

/// A one-shot HTTP GET against our own server (std-only, like the
/// server itself) so the example can show what a scraper would see.
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = std::net::TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or(response))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from_u64(42);

    // Observability: the live recorder aggregates contention-free and
    // tees span events to the same JSONL trace the offline obsctl
    // workflows (summary/flame/diff) consume.
    let sink = Arc::new(JsonlSink::create("results/serve_monitor_trace.jsonl")?);
    let recorder = Arc::new(LiveRecorder::with_sink(sink));
    opad::telemetry::install(recorder.clone());

    // The alerting plane: an empty center (the testing loop installs its
    // own default pack on the first round) plus one demo rule we can
    // drive through the full lifecycle by hand at the end. Transitions
    // are appended to an alerts JSONL log as they happen.
    let alert_log = Arc::new(JsonlSink::create("results/serve_monitor_alerts.jsonl")?);
    let (demo_rules, parse_errors) =
        parse_rules("alert demo_hot severity=info for=200ms when demo.temperature > 90");
    assert!(parse_errors.is_empty(), "{parse_errors:?}");
    let center = Arc::new(AlertCenter::with_log(demo_rules, alert_log));
    opad::alert::install(center.clone());
    let watch = AlertWatch::new(recorder.clone(), center.clone())
        .interval(Duration::from_millis(100))
        .spawn();

    // The history plane: a ring-buffer store fed by a background sampler
    // on the alert-watch cadence, plus the process-wide link that lets
    // `run_round` pulse an extra sample at every round boundary.
    let store = Arc::new(TsdbStore::new());
    let sampler = Sampler::new(recorder.clone(), store.clone())
        .interval(Duration::from_millis(100))
        .spawn();
    opad::tsdb::install(Arc::new(TsdbLink {
        recorder: recorder.clone(),
        store: store.clone(),
    }));
    center.attach_series(store.clone());

    let addr = std::env::var("OPAD_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:9184".to_string());
    let server = opad::serve::MetricsServer::new(
        recorder.clone(),
        ServerConfig {
            addr,
            results_dir: "results".into(),
            bench_dir: ".".into(),
            git_commit: opad::telemetry::run_id(),
        },
    )
    .alerts(center.clone())
    .timeseries(store.clone())
    .spawn()?;
    println!("live metrics: http://{}/metrics", server.addr());
    println!("health:       http://{}/healthz", server.addr());
    println!("run index:    http://{}/runs", server.addr());
    println!("alerts:       http://{}/alerts", server.addr());
    println!("history:      http://{}/timeseries", server.addr());

    // The detection-efficiency setup: balanced training data, a
    // Zipf-skewed operational profile, and the full Fig. 1 loop.
    let cfg = GaussianClustersConfig {
        separation: 2.0,
        std: 1.0,
        ..Default::default()
    };
    let train = gaussian_clusters(&cfg, 600, &uniform_probs(3), &mut rng)?;
    let field = gaussian_clusters(&cfg, 800, &zipf_probs(3, 1.5), &mut rng)?;
    let mut net = Network::mlp(&[2, 32, 3], Activation::Relu, &mut rng)?;
    Trainer::new(TrainConfig::new(30, 32), Optimizer::adam(0.01)).fit(
        &mut net,
        train.features(),
        train.labels(),
        None,
        &mut rng,
    )?;

    let op = learn_op_gmm(&field, 3, 20, &mut rng)?;
    let partition = CentroidPartition::fit(field.features(), 12, 25, &mut rng)?;
    let target = ReliabilityTarget::new(0.05, 0.90)?;
    let config = LoopConfig {
        seeds_per_round: 30,
        eval_per_round: 300,
        max_rounds: 5,
        ..Default::default()
    };
    let config = ShardedConfig {
        shards: 1,
        base: config,
    };
    let mut testing = ShardedCampaign::new(net, op, partition, &field, target, config, 42)?;
    let attack = Pgd::new(NormBall::linf(0.4)?, 15, 0.08)?;

    println!("\nround | seeds | AEs | pfd-mean | pfd-90%UB | stop");
    let reports = testing.run(&field, &train, &attack)?;
    for r in &reports {
        println!(
            "{:5} | {:5} | {:3} | {:8.4} | {:9.4} | {}",
            r.round,
            r.seeds_attacked,
            r.aes_found,
            r.pfd_mean,
            r.pfd_upper,
            if r.target_met { "yes" } else { "no" }
        );
    }

    // Drive the demo rule through its lifecycle: publish a breaching
    // gauge, let the watch see it long enough to clear the 200 ms
    // hysteresis budget, then recover. `/healthz` flips to `degraded`
    // while the alert is firing and back to `ok` once it resolves.
    println!("\ndriving demo_hot through pending -> firing -> resolved:");
    recorder.gauge_set("demo.temperature", 97.0);
    std::thread::sleep(Duration::from_millis(600));
    println!(
        "  while firing, /healthz reports: {}",
        http_get(&server.addr().to_string(), "/healthz")?.trim()
    );
    recorder.gauge_set("demo.temperature", 20.0);
    std::thread::sleep(Duration::from_millis(400));
    for t in center.history() {
        println!("  {t}");
    }
    println!(
        "\n/alerts now reports: {}",
        http_get(&server.addr().to_string(), "/alerts")?.trim()
    );

    // The history plane answers windowed questions about the run we just
    // watched — here, the seed-attack throughput over the last 10s.
    println!(
        "/query says:     {}",
        http_get(
            &server.addr().to_string(),
            "/query?expr=rate(pipeline.seeds_attacked,10s)"
        )?
        .trim()
    );

    // Keep serving after the loop so a human (or a scrape job) can look
    // at the final state; CI leaves the default of 0.
    let hold: u64 = std::env::var("OPAD_SERVE_HOLD_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if hold > 0 {
        println!("\nholding the server for {hold}s (OPAD_SERVE_HOLD_SECS)…");
        std::thread::sleep(std::time::Duration::from_secs(hold));
    }

    watch.shutdown();
    sampler.shutdown();
    opad::tsdb::uninstall();
    opad::alert::uninstall();
    opad::telemetry::uninstall();
    recorder.flush_summary();
    server.shutdown();
    let s = recorder.summary();
    println!(
        "\ntelemetry: {:.0} ms wall, {} events — trace in results/serve_monitor_trace.jsonl, \
         alert transitions in results/serve_monitor_alerts.jsonl",
        s.wall_ms, s.events
    );
    println!("flamegraph: cargo run --bin obsctl -- flame results/serve_monitor_trace.jsonl");
    println!("replay:     cargo run --bin obsctl -- alerts check rules/default.alerts");
    Ok(())
}
