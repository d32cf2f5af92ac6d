//! # opad-serve
//!
//! The pull side of the live observability plane: a std-only HTTP/1.1
//! server over [`std::net::TcpListener`] that exposes a
//! [`LiveRecorder`](opad_telemetry::LiveRecorder)'s metrics while the
//! testing loop is still running.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition format v0.0.4:
//!   counters as `opad_*_total`, gauges as `opad_*`, histograms and
//!   per-span wall-time rollups as `_bucket`/`_sum`/`_count` families,
//!   with metric-name sanitization and label-value escaping per the
//!   exposition spec, plus the newest `BENCH_<seq>.json` snapshot's
//!   per-kernel `p50_ns`/`min_ns` as `opad_bench_kernel_*` gauges
//!   labeled by kernel (the perf trajectory, scrapeable next to the
//!   live pipeline metrics);
//! * `GET /healthz` — liveness JSON including the pipeline's current
//!   round and phase (read off the `pipeline.round` / `pipeline.phase`
//!   gauges published by `opad-core`, decoded through the checked
//!   [`phase::gauge_label`](opad_telemetry::phase::gauge_label)), build
//!   provenance (`git_commit`, `version`), and — when an
//!   [`AlertCenter`](opad_alert::AlertCenter) is attached — a `status`
//!   that flips from `ok` to `degraded` while any alert is firing;
//! * `GET /alerts` — JSON state of every attached alert rule (name,
//!   severity, lifecycle state, last value, condition) plus the firing
//!   count;
//! * `GET /runs` — JSON list of the run envelopes discovered under the
//!   configured `results/` directory, so a dashboard can pair the live
//!   metrics with finished-run artefacts;
//! * `GET /timeseries` — with a [`TsdbStore`](opad_tsdb::TsdbStore)
//!   attached ([`MetricsServer::timeseries`]): the history plane's
//!   series index, one series' windowed samples
//!   (`?series=NAME&window=10s`), or index + samples for everything
//!   (`?all=1` — the shape `obsctl watch` polls);
//! * `GET /query?expr=rate(pipeline.seeds_attacked,10s)` — one window
//!   expression evaluated at the newest sample's frame clock.
//!
//! With a history store attached, `/healthz` additionally reports
//! sampler liveness (`sampler.age_ms`, the age of the newest sample)
//! and degrades when the sampler has stalled.
//!
//! `/metrics` additionally carries `opad_build_info{git_commit,version} 1`
//! and, with an alert center attached, the Prometheus-convention
//! `ALERTS{alertname,severity,state}` constant-1 series for every
//! pending/firing alert (attach via [`MetricsServer::alerts`]).
//!
//! The accept loop is bounded: one handler services connections
//! sequentially off a blocking accept, so a request is answered as soon
//! as it arrives and a scrape storm degrades to queueing in the kernel
//! backlog instead of a thread-per-connection pileup. Shutdown is
//! graceful: the handle raises a flag, wakes the blocked accept with one
//! connection to the listener's own port, and joins the loop, which
//! finishes any in-flight response first (a wake that cannot connect
//! leaves the loop to stop after its next connection, unjoined). Scrapes
//! are read-only over the
//! recorder's lock-free snapshot — they never block the recording hot
//! path.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//! use opad_telemetry::LiveRecorder;
//! use opad_serve::{MetricsServer, ServerConfig};
//!
//! let recorder = Arc::new(LiveRecorder::new());
//! opad_telemetry::install(recorder.clone());
//! let handle = MetricsServer::new(recorder, ServerConfig::default())
//!     .spawn()
//!     .expect("bind");
//! println!("metrics at http://{}/metrics", handle.addr());
//! // ... run the experiment ...
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

mod alerts;
mod bench;
mod http;
mod prom;
mod runs;
mod server;
mod timeseries;

pub use alerts::{alerts_json, render_alert_metrics, render_build_info};
pub use bench::load_latest_bench;
pub use http::{read_request, write_response, Request};
pub use prom::{
    escape_label_value, render_bench_metrics, render_metrics, sanitize_metric_name, CONTENT_TYPE,
};
pub use runs::runs_json;
pub use server::{MetricsServer, ServerConfig, ServerHandle};
pub use timeseries::{parse_query, query_json, timeseries_json, TIMESERIES_VERSION};
