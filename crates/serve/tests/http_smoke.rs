//! End-to-end smoke test: bind on an ephemeral port, scrape the
//! endpoints over a real `TcpStream`, and verify graceful shutdown.
//! `scripts/check.sh` runs this test by name as the serve smoke gate.

use opad_serve::{MetricsServer, ServerConfig};
use opad_telemetry::{parse_json, LiveRecorder, Recorder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opad_serve_smoke_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

/// One plain HTTP GET; returns (status line, body).
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("server accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout is settable");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request writes");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("server closes the connection after responding");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn serves_metrics_healthz_and_runs_then_shuts_down_gracefully() {
    let results = fixture_dir("endpoints");
    std::fs::write(
        results.join("exp_live.json"),
        r#"{"schema_version":1,"experiment":"exp_live","run_id":"live-1",
           "telemetry":{"wall_ms":77.0}}"#,
    )
    .expect("fixture writes");
    let bench = fixture_dir("endpoints_bench");
    std::fs::write(
        bench.join("BENCH_0003.json"),
        r#"{"schema_version":2,"seq":3,"run_id":"live-1","kernels":[
           {"name":"par/par_map_4k_t1","iters":30,"samples":30,"mean_ns":1600.0,
            "min_ns":1400.0,"p50_ns":1500.5,"p90_ns":1700.0,"p99_ns":1800.0,
            "max_ns":1900.0}]}"#,
    )
    .expect("fixture writes");

    let recorder = Arc::new(LiveRecorder::new());
    recorder.counter_add("pipeline.seeds_attacked", 30);
    recorder.gauge_set("reliability.pfd_mean", 0.0125);
    recorder.gauge_set("pipeline.round", 3.0);
    recorder.gauge_set("pipeline.phase", opad_telemetry::phase::FUZZ as f64);
    recorder.histogram_record("attack.iters", 4.0);
    recorder.span_start("round", 1, None);
    recorder.span_end("round", 1, None, 12.0);

    let handle = MetricsServer::new(
        recorder,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            results_dir: results.clone(),
            bench_dir: bench.clone(),
            git_commit: "smoke123".to_string(),
        },
    )
    .spawn()
    .expect("ephemeral port binds");
    let addr = handle.addr();
    assert_ne!(addr.port(), 0, "the handle reports the real port");

    let (status, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        body.contains("opad_pipeline_seeds_attacked_total 30"),
        "{body}"
    );
    assert!(body.contains("opad_reliability_pfd_mean 0.0125"), "{body}");
    assert!(
        body.contains("opad_span_wall_ms_count{span=\"round\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("opad_attack_iters_bucket{le=\"+Inf\"} 1"),
        "{body}"
    );
    assert!(body.contains("opad_bench_snapshot_seq 3"), "{body}");
    assert!(
        body.contains("opad_bench_kernel_min_ns{kernel=\"par/par_map_4k_t1\"} 1400"),
        "{body}"
    );

    assert!(
        body.contains("opad_build_info{git_commit=\"smoke123\",version=\""),
        "{body}"
    );

    let (status, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    let health = parse_json(body.trim()).expect("healthz is valid JSON");
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(health.get("round").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(health.get("phase").and_then(|v| v.as_str()), Some("fuzz"));
    assert_eq!(
        health.get("git_commit").and_then(|v| v.as_str()),
        Some("smoke123")
    );
    assert_eq!(
        health.get("alerts_firing").and_then(|v| v.as_u64()),
        Some(0),
        "no alert center attached"
    );

    // Without an attached alert center, /alerts is an empty (but valid)
    // document rather than an error.
    let (status, body) = get(addr, "/alerts");
    assert!(status.contains("200"), "{status}");
    let alerts = parse_json(body.trim()).expect("alerts is valid JSON");
    assert_eq!(alerts.get("firing").and_then(|v| v.as_u64()), Some(0));

    let (status, body) = get(addr, "/runs");
    assert!(status.contains("200"), "{status}");
    let runs = parse_json(body.trim()).expect("runs is valid JSON");
    let rows = runs.as_arr().expect("array");
    assert_eq!(rows.len(), 1, "{body}");
    assert_eq!(
        rows[0].get("experiment").and_then(|v| v.as_str()),
        Some("exp_live")
    );

    let (status, _) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");

    // Graceful shutdown: the call returns (the loop joined) and the
    // port stops accepting.
    handle.shutdown();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be closed after shutdown"
    );
    let _ = std::fs::remove_dir_all(&results);
    let _ = std::fs::remove_dir_all(&bench);
}

#[test]
fn alert_center_drives_alerts_metrics_and_degraded_health() {
    use opad_alert::{parse_rules, AlertCenter, MetricsFrame};

    let (rules, errors) =
        parse_rules("alert pfd_breach severity=critical when reliability.pfd_mean > 0.05");
    assert!(errors.is_empty(), "{errors:?}");
    let center = Arc::new(AlertCenter::new(rules));
    let recorder = Arc::new(LiveRecorder::new());
    let handle = MetricsServer::new(
        recorder.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            results_dir: fixture_dir("alerts"),
            bench_dir: fixture_dir("alerts_bench"),
            git_commit: "smoke123".to_string(),
        },
    )
    .alerts(center.clone())
    .spawn()
    .expect("ephemeral port binds");
    let addr = handle.addr();

    // Quiet: /alerts lists the rule inactive, health is ok.
    let (_, body) = get(addr, "/alerts");
    let alerts = parse_json(body.trim()).expect("alerts is valid JSON");
    assert_eq!(alerts.get("firing").and_then(|v| v.as_u64()), Some(0));
    let rows = alerts
        .get("alerts")
        .and_then(|v| v.as_arr())
        .expect("array");
    assert_eq!(rows.len(), 1, "{body}");
    assert_eq!(
        rows[0].get("state").and_then(|v| v.as_str()),
        Some("inactive")
    );
    let (_, body) = get(addr, "/metrics");
    assert!(body.contains("opad_alerts_firing 0"), "{body}");
    assert!(!body.contains("ALERTS{"), "{body}");

    // Breach: the server reports the same state the engine holds.
    recorder.gauge_set("reliability.pfd_mean", 0.21);
    let mut frame = MetricsFrame::from_snapshot(&recorder.snapshot());
    frame.t_ms = 100.0;
    center.eval_frame(&frame);

    let (_, body) = get(addr, "/alerts");
    let alerts = parse_json(body.trim()).expect("alerts is valid JSON");
    assert_eq!(alerts.get("firing").and_then(|v| v.as_u64()), Some(1));
    let (_, body) = get(addr, "/metrics");
    assert!(
        body.contains("ALERTS{alertname=\"pfd_breach\",severity=\"critical\",state=\"firing\"} 1"),
        "{body}"
    );
    let (_, body) = get(addr, "/healthz");
    let health = parse_json(body.trim()).expect("healthz is valid JSON");
    assert_eq!(
        health.get("status").and_then(|v| v.as_str()),
        Some("degraded")
    );
    assert_eq!(
        health.get("alerts_firing").and_then(|v| v.as_u64()),
        Some(1)
    );

    // Recovery: /healthz flips back to ok.
    recorder.gauge_set("reliability.pfd_mean", 0.01);
    let mut frame = MetricsFrame::from_snapshot(&recorder.snapshot());
    frame.t_ms = 200.0;
    center.eval_frame(&frame);
    let (_, body) = get(addr, "/healthz");
    let health = parse_json(body.trim()).expect("healthz is valid JSON");
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));

    handle.shutdown();
}

#[test]
fn timeseries_and_query_serve_the_attached_history_store() {
    use opad_tsdb::{Sample, SeriesKind, TsdbStore};

    let store = Arc::new(TsdbStore::new());
    for i in 0..5u32 {
        store.push(
            "pipeline.seeds_attacked",
            SeriesKind::Counter,
            Sample {
                t_ms: i as f64 * 250.0,
                value: (i * 10) as f64,
            },
        );
    }
    store.set_expected_interval_ms(250.0);
    let recorder = Arc::new(LiveRecorder::new());
    let handle = MetricsServer::new(
        recorder,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            results_dir: fixture_dir("tsdb"),
            bench_dir: fixture_dir("tsdb_bench"),
            git_commit: "smoke123".to_string(),
        },
    )
    .timeseries(store.clone())
    .spawn()
    .expect("ephemeral port binds");
    let addr = handle.addr();

    let (status, body) = get(addr, "/timeseries");
    assert!(status.contains("200"), "{status}");
    let doc = parse_json(body.trim()).expect("valid JSON");
    let series = doc.get("series").and_then(|v| v.as_arr()).expect("array");
    assert_eq!(series.len(), 1, "{body}");
    assert_eq!(
        series[0].get("name").and_then(|v| v.as_str()),
        Some("pipeline.seeds_attacked")
    );

    let (status, body) = get(addr, "/timeseries?all=1&window=500ms");
    assert!(status.contains("200"), "{status}");
    let doc = parse_json(body.trim()).expect("valid JSON");
    let series = doc.get("series").and_then(|v| v.as_arr()).expect("array");
    let samples = series[0]
        .get("samples")
        .and_then(|v| v.as_arr())
        .expect("samples present in all mode");
    assert_eq!(samples.len(), 3, "{body}");

    let (status, body) = get(addr, "/query?expr=rate(pipeline.seeds_attacked,%2010s)");
    assert!(status.contains("200"), "{status} {body}");
    let doc = parse_json(body.trim()).expect("valid JSON");
    assert_eq!(doc.get("value").and_then(|v| v.as_f64()), Some(40.0));

    let (status, _) = get(addr, "/query?expr=rate(nope,10s)");
    assert!(status.contains("404"), "{status}");
    let (status, _) = get(addr, "/query?expr=%28%28");
    assert!(status.contains("400"), "{status}");

    // The sampler block: samples exist and the frame clock has barely
    // advanced past them, but the store was stamped by hand at t=1000ms
    // while the recorder just started — so age is near zero only if the
    // recorder clock ran past 1000ms, which it hasn't: age clamps at 0
    // and the sampler reads fresh.
    let (_, body) = get(addr, "/healthz");
    let health = parse_json(body.trim()).expect("valid JSON");
    let sampler = health.get("sampler").expect("sampler block present");
    assert_eq!(
        sampler.get("last_sample_ms").and_then(|v| v.as_f64()),
        Some(1000.0)
    );
    assert_eq!(sampler.get("stale").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));

    handle.shutdown();
}

#[test]
fn healthz_degrades_when_the_sampler_never_sampled() {
    use opad_tsdb::TsdbStore;

    let recorder = Arc::new(LiveRecorder::new());
    let handle = MetricsServer::new(
        recorder,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            results_dir: fixture_dir("tsdb_stale"),
            bench_dir: fixture_dir("tsdb_stale_bench"),
            git_commit: "smoke123".to_string(),
        },
    )
    .timeseries(Arc::new(TsdbStore::new()))
    .spawn()
    .expect("ephemeral port binds");
    let addr = handle.addr();

    let (_, body) = get(addr, "/healthz");
    let health = parse_json(body.trim()).expect("valid JSON");
    assert_eq!(
        health.get("status").and_then(|v| v.as_str()),
        Some("degraded"),
        "{body}"
    );
    let sampler = health.get("sampler").expect("sampler block present");
    assert_eq!(sampler.get("stale").and_then(|v| v.as_bool()), Some(true));

    // An empty /timeseries index is still a valid 200 document.
    let (status, body) = get(addr, "/timeseries");
    assert!(status.contains("200"), "{status}");
    let doc = parse_json(body.trim()).expect("valid JSON");
    assert_eq!(
        doc.get("series").and_then(|v| v.as_arr()).map(|a| a.len()),
        Some(0)
    );

    handle.shutdown();
}

#[test]
fn malformed_requests_get_400_and_do_not_wedge_the_loop() {
    let recorder = Arc::new(LiveRecorder::new());
    let handle = MetricsServer::new(
        recorder,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            results_dir: fixture_dir("bad_requests"),
            bench_dir: fixture_dir("bad_requests_bench"),
            ..ServerConfig::default()
        },
    )
    .spawn()
    .expect("ephemeral port binds");
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    write!(stream, "garbage\r\n\r\n").expect("writes");
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout is settable");
    stream.read_to_string(&mut response).expect("reads");
    assert!(response.contains("400"), "{response}");

    // POST is rejected but the server keeps serving afterwards.
    let mut stream = TcpStream::connect(addr).expect("still accepting");
    write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").expect("writes");
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout is settable");
    stream.read_to_string(&mut response).expect("reads");
    assert!(response.contains("405"), "{response}");

    let (status, _) = get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    handle.shutdown();
}

#[test]
fn healthz_writes_the_build_commit_as_a_json_string() {
    // A control character is legal in a label value but not raw in JSON.
    let commit = "abc\"1\\2\u{1}\t";
    let handle = MetricsServer::new(
        Arc::new(LiveRecorder::new()),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            results_dir: fixture_dir("healthz_commit"),
            bench_dir: fixture_dir("healthz_commit_bench"),
            git_commit: commit.to_string(),
        },
    )
    .spawn()
    .expect("ephemeral port binds");
    let (status, body) = get(handle.addr(), "/healthz");
    assert!(status.contains("200"), "{status}");
    let doc = parse_json(body.trim()).expect("healthz is valid JSON");
    assert_eq!(doc.get("git_commit").and_then(|v| v.as_str()), Some(commit));
    handle.shutdown();
}

#[test]
fn an_idle_server_on_the_unspecified_address_stops_promptly() {
    let handle = MetricsServer::new(
        Arc::new(LiveRecorder::new()),
        ServerConfig {
            addr: "0.0.0.0:0".to_string(),
            results_dir: fixture_dir("unspecified"),
            bench_dir: fixture_dir("unspecified_bench"),
            ..ServerConfig::default()
        },
    )
    .spawn()
    .expect("ephemeral port binds");
    assert!(handle.addr().ip().is_unspecified(), "{}", handle.addr());
    let loopback = SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));

    // No request ever arrived: the loop is blocked in accept, and the
    // stop's wake connection (to loopback) is what ends it.
    let t = Instant::now();
    handle.shutdown();
    assert!(t.elapsed() < Duration::from_secs(2), "{:?}", t.elapsed());
    assert!(
        TcpStream::connect_timeout(&loopback, Duration::from_millis(500)).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn a_head_written_in_pieces_with_pauses_gets_a_200() {
    let handle = MetricsServer::new(
        Arc::new(LiveRecorder::new()),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            results_dir: fixture_dir("trickle"),
            bench_dir: fixture_dir("trickle_bench"),
            ..ServerConfig::default()
        },
    )
    .spawn()
    .expect("ephemeral port binds");
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay is settable");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout is settable");
    // Three bytes per write, so the blank line straddles two writes.
    for piece in b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n".chunks(3) {
        stream.write_all(piece).expect("piece writes");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("\"status\":\"ok\""), "{response}");
    handle.shutdown();
}
