//! The accept loop: bind, serve, shut down gracefully.

use crate::alerts::{alerts_json, render_alert_metrics, render_build_info};
use crate::bench::load_latest_bench;
use crate::http::{read_request, write_response, Request};
use crate::prom::{render_bench_metrics, render_metrics, CONTENT_TYPE};
use crate::runs::runs_json;
use crate::timeseries::{query_json, timeseries_json};
use opad_alert::AlertCenter;
use opad_telemetry::{phase, BackgroundThread, JsonNum, JsonStr, LiveRecorder};
use opad_tsdb::TsdbStore;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the accept loop backs off after a failed `accept` (say, the
/// process ran out of file descriptors), so an error that persists does
/// not spin the thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// How long a connected client gets to deliver its request before the
/// handler gives up on it (a stalled scraper must not wedge the loop).
/// Also bounds the shutdown wake's connect.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Where and what to serve.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address
    /// is on the returned handle).
    pub addr: String,
    /// Directory `/runs` scans for run envelopes.
    pub results_dir: PathBuf,
    /// Directory `/metrics` scans for the newest `BENCH_<seq>.json`
    /// snapshot, whose per-kernel timings are appended as gauges.
    pub bench_dir: PathBuf,
    /// Build provenance stamped into `/healthz` and the
    /// `opad_build_info` gauge, usually [`opad_telemetry::run_id`]
    /// (`git describe --always --dirty`, `"unknown"` outside a checkout).
    pub git_commit: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:9184".to_string(),
            results_dir: PathBuf::from("results"),
            bench_dir: PathBuf::from("."),
            git_commit: "unknown".to_string(),
        }
    }
}

/// A not-yet-started metrics server: a [`LiveRecorder`] to expose and a
/// [`ServerConfig`] saying where. [`MetricsServer::spawn`] binds and
/// starts the background accept loop.
pub struct MetricsServer {
    recorder: Arc<LiveRecorder>,
    config: ServerConfig,
    center: Option<Arc<AlertCenter>>,
    tsdb: Option<Arc<TsdbStore>>,
}

impl MetricsServer {
    /// Pairs `recorder` with `config`; nothing is bound yet.
    pub fn new(recorder: Arc<LiveRecorder>, config: ServerConfig) -> MetricsServer {
        MetricsServer {
            recorder,
            config,
            center: None,
            tsdb: None,
        }
    }

    /// Attaches an [`AlertCenter`]: `/alerts` serves its rule states,
    /// `/metrics` gains the `ALERTS{...}` series, and `/healthz`
    /// degrades while any rule is firing. Wiring is explicit (no global
    /// lookup) so a server only reports alerts its owner opted into.
    pub fn alerts(mut self, center: Arc<AlertCenter>) -> MetricsServer {
        self.center = Some(center);
        self
    }

    /// Attaches a [`TsdbStore`] history plane: `/timeseries` serves its
    /// ring contents, `/query?expr=` evaluates window expressions over
    /// it, and `/healthz` gains a `sampler` liveness block (age of the
    /// newest sample; `status` degrades to `degraded` when the sampler
    /// has gone quiet for more than four expected intervals).
    pub fn timeseries(mut self, store: Arc<TsdbStore>) -> MetricsServer {
        self.tsdb = Some(store);
        self
    }

    /// Binds the listener and starts the accept loop on a background
    /// thread. Fails only on bind errors (port in use, bad address).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.config.addr)?;
        let addr = listener.local_addr()?;
        let wake = wake_addr(addr);
        let thread = BackgroundThread::spawn("opad-serve", move |stop| {
            accept_loop(
                listener,
                self.recorder,
                self.config,
                self.center,
                self.tsdb,
                stop,
            )
        })
        // The loop blocks in `accept`; the stop raises the flag, then this
        // one connection makes `accept` return so the loop sees it.
        .with_wake(move || TcpStream::connect_timeout(&wake, CLIENT_TIMEOUT).is_ok());
        Ok(ServerHandle { addr, thread })
    }
}

/// Handle to a running server: its bound address and the graceful stop.
/// Dropping the handle also shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: BackgroundThread,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Any in-flight
    /// response finishes first; returns once the listener is closed. If
    /// the wake connection cannot be made (no file descriptor left, say),
    /// returns without joining: the thread then stops, and closes the
    /// listener, after the next connection it accepts.
    pub fn shutdown(self) {
        self.thread.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    recorder: Arc<LiveRecorder>,
    config: ServerConfig,
    center: Option<Arc<AlertCenter>>,
    tsdb: Option<Arc<TsdbStore>>,
    stop: &AtomicBool,
) {
    // One connection at a time, by design: exposition responses are
    // small and cheap, so sequential handling bounds resource use at
    // exactly one handler regardless of how many scrapers connect —
    // excess connections queue in the kernel backlog. `accept` blocks
    // until a connection arrives; the flag is checked after each one,
    // so the shutdown wake's connection ends the loop unanswered.
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = handle_connection(
                    stream,
                    &recorder,
                    &config,
                    center.as_deref(),
                    tsdb.as_deref(),
                );
            }
            // Transient accept errors (e.g. a client that reset before
            // we got to it) don't kill the server.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Where the shutdown wake connects: the listener's own address, with an
/// unspecified IP (`0.0.0.0`, `[::]`) replaced by the loopback address of
/// the same family. Everything else, an IPv6 scope id included, is kept.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    if bound.ip().is_unspecified() {
        wake.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

fn handle_connection(
    mut stream: TcpStream,
    recorder: &LiveRecorder,
    config: &ServerConfig,
    center: Option<&AlertCenter>,
    tsdb: Option<&TsdbStore>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(_) => {
            return write_response(
                &mut stream,
                400,
                "Bad Request",
                "text/plain",
                "bad request\n",
            )
        }
    };
    respond(&mut stream, &request, recorder, config, center, tsdb)
}

fn respond(
    stream: &mut TcpStream,
    request: &Request,
    recorder: &LiveRecorder,
    config: &ServerConfig,
    center: Option<&AlertCenter>,
    tsdb: Option<&TsdbStore>,
) -> io::Result<()> {
    if request.method != "GET" {
        return write_response(
            stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    // Split target into path and raw query. Non-history endpoints still
    // ignore the query (scrapers sometimes append cache busters); the
    // history endpoints parse it.
    let (path, query) = match request.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (request.target.as_str(), ""),
    };
    match path {
        "/metrics" => {
            let mut body = render_metrics(&recorder.snapshot());
            body.push_str(&render_build_info(&config.git_commit));
            if let Some(gauges) = load_latest_bench(&config.bench_dir) {
                body.push_str(&render_bench_metrics(&gauges));
            }
            if let Some(center) = center {
                body.push_str(&render_alert_metrics(&center.statuses()));
            }
            write_response(stream, 200, "OK", CONTENT_TYPE, &body)
        }
        "/healthz" => {
            let round = recorder.gauge(phase::ROUND_GAUGE).unwrap_or(0.0) as u64;
            // Checked phase decode (shared with the watchdog rule): a
            // gauge outside the phase vocabulary renders `unknown(<n>)`
            // instead of silently truncating to some valid phase.
            let phase_label = phase::gauge_label(recorder.gauge(phase::PHASE_GAUGE).unwrap_or(0.0));
            let firing = center.map(AlertCenter::firing_count).unwrap_or(0);
            // Sampler liveness, when a history store is attached: the
            // age of the newest sample on the recorder's frame clock. A
            // sampler quiet for more than four expected intervals (or
            // one that never sampled at all) reads as stalled — the run
            // is then flying without history, which degrades health
            // just like a firing alert.
            let sampler = tsdb.map(|store| sampler_health(store, recorder.elapsed_ms()));
            let stale = sampler.as_ref().is_some_and(|s| s.stale);
            let status = if firing > 0 || stale {
                "degraded"
            } else {
                "ok"
            };
            let mut body = format!(
                "{{\"status\":\"{status}\",\"uptime_ms\":{:.0},\"round\":{round},\"phase\":\"{phase_label}\",\"git_commit\":{},\"version\":\"{}\",\"alerts_firing\":{firing}",
                recorder.elapsed_ms(),
                JsonStr(&config.git_commit),
                env!("CARGO_PKG_VERSION"),
            );
            if let Some(s) = sampler {
                body.push_str(&format!(
                    ",\"sampler\":{{\"last_sample_ms\":{},\"age_ms\":{},\"stale\":{}}}",
                    JsonNum(s.last_sample_ms.unwrap_or(f64::NAN)),
                    JsonNum(s.age_ms.unwrap_or(f64::NAN)),
                    s.stale,
                ));
            }
            body.push_str("}\n");
            write_response(stream, 200, "OK", "application/json", &body)
        }
        "/alerts" => {
            let body = match center {
                Some(center) => alerts_json(&center.statuses(), center.firing_count()),
                None => "{\"firing\":0,\"alerts\":[]}\n".to_string(),
            };
            write_response(stream, 200, "OK", "application/json", &body)
        }
        "/runs" => {
            let body = runs_json(&config.results_dir);
            write_response(stream, 200, "OK", "application/json", &body)
        }
        "/timeseries" => match tsdb {
            Some(store) => {
                let (code, body) = timeseries_json(store, query);
                write_response(stream, code, reason(code), "application/json", &body)
            }
            None => write_response(
                stream,
                404,
                "Not Found",
                "application/json",
                "{\"error\":\"no history store attached\"}\n",
            ),
        },
        "/query" => match tsdb {
            Some(store) => {
                let (code, body) = query_json(store, query);
                write_response(stream, code, reason(code), "application/json", &body)
            }
            None => write_response(
                stream,
                404,
                "Not Found",
                "application/json",
                "{\"error\":\"no history store attached\"}\n",
            ),
        },
        _ => write_response(stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

fn reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    }
}

struct SamplerHealth {
    last_sample_ms: Option<f64>,
    age_ms: Option<f64>,
    stale: bool,
}

fn sampler_health(store: &TsdbStore, now_ms: f64) -> SamplerHealth {
    match store.last_sample_ms() {
        Some(last) => {
            let age = (now_ms - last).max(0.0);
            let stale = store
                .expected_interval_ms()
                .is_some_and(|interval| age > 4.0 * interval);
            SamplerHealth {
                last_sample_ms: Some(last),
                age_ms: Some(age),
                stale,
            }
        }
        // Attached but never sampled: stalled from birth.
        None => SamplerHealth {
            last_sample_ms: None,
            age_ms: None,
            stale: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddrV6;

    #[test]
    fn the_wake_goes_to_loopback_for_an_unspecified_bind() {
        let wake = |bound: &str| wake_addr(bound.parse().expect("valid address")).to_string();
        assert_eq!(wake("0.0.0.0:9184"), "127.0.0.1:9184");
        assert_eq!(wake("[::]:9184"), "[::1]:9184");
        assert_eq!(wake("10.1.2.3:9184"), "10.1.2.3:9184");
    }

    #[test]
    fn the_wake_keeps_an_ipv6_scope_id_and_flowinfo() {
        // Linux refuses a link-local connect without the scope id.
        let link_local = Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1);
        let bound = SocketAddr::V6(SocketAddrV6::new(link_local, 80, 0, 2));
        assert_eq!(wake_addr(bound), bound);
        let any = SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::UNSPECIFIED, 9184, 7, 2));
        let loopback = SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::LOCALHOST, 9184, 7, 2));
        assert_eq!(wake_addr(any), loopback);
    }
}
