//! Prometheus text exposition format v0.0.4 over a
//! [`LiveSnapshot`](opad_telemetry::LiveSnapshot).
//!
//! Rendering rules:
//!
//! * Metric names are sanitized to the spec charset
//!   `[a-zA-Z_:][a-zA-Z0-9_:]*`: the workspace's dotted names map dots
//!   (and any other illegal byte) to `_`, and everything is prefixed
//!   `opad_`. Counters additionally get the conventional `_total`
//!   suffix.
//! * Label values escape `\` as `\\`, `"` as `\"` and newline as `\n`,
//!   exactly the three escapes the exposition spec defines.
//! * Histograms render cumulative `_bucket{le="..."}` series over the
//!   fixed [`LE_BOUNDS_MS`] grid plus `le="+Inf"`, then `_sum` and
//!   `_count`. Cumulative counts come from
//!   [`FixedHistogram::cumulative_le`](opad_telemetry::FixedHistogram::cumulative_le),
//!   which is monotone by construction and exact at `+Inf`.
//! * Per-span wall-time rollups render as one shared family
//!   `opad_span_wall_ms` with a `span` label per name, so dashboards
//!   aggregate across spans without knowing the name set up front.

use opad_telemetry::{BenchReport, FixedHistogram, LiveSnapshot};
use std::fmt::Write;

/// Content type a v0.0.4 exposition response must declare.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Upper bucket bounds (milliseconds) for histogram exposition, paired
/// with their exact rendered `le` strings so output is byte-stable.
const LE_BOUNDS_MS: &[(f64, &str)] = &[
    (0.01, "0.01"),
    (0.1, "0.1"),
    (1.0, "1"),
    (5.0, "5"),
    (10.0, "10"),
    (50.0, "50"),
    (100.0, "100"),
    (500.0, "500"),
    (1000.0, "1000"),
    (10000.0, "10000"),
];

/// Maps a workspace metric name onto the exposition charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and prefixes it `opad_`. Dots — the
/// workspace's namespace separator — and any other illegal character
/// become `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("opad_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition spec: `\` → `\\`, `"` →
/// `\"`, newline → `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn render_histogram(out: &mut String, family: &str, labels: &str, h: &FixedHistogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    // `cumulative_le(+∞)` is the exact count, so `+Inf` is one more line
    // of the same loop.
    for &(bound, le) in LE_BOUNDS_MS.iter().chain([&(f64::INFINITY, "+Inf")]) {
        let _ = writeln!(
            out,
            "{family}_bucket{{{labels}{sep}le=\"{le}\"}} {}",
            h.cumulative_le(bound)
        );
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{family}_sum{braces} {}", fmt_value(h.sum()));
    let _ = writeln!(out, "{family}_count{braces} {}", h.count());
}

/// Renders a full v0.0.4 exposition document for `snap`.
///
/// Families appear in a fixed order (process meta, counters, gauges,
/// histograms, spans), each name-sorted by the snapshot, so consecutive
/// scrapes of an idle recorder are byte-identical.
pub fn render_metrics(snap: &LiveSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "# TYPE opad_uptime_ms gauge");
    let _ = writeln!(out, "opad_uptime_ms {}", fmt_value(snap.wall_ms));
    let _ = writeln!(out, "# TYPE opad_telemetry_events_total counter");
    let _ = writeln!(out, "opad_telemetry_events_total {}", snap.events);
    for (name, total) in &snap.counters {
        let family = format!("{}_total", sanitize_metric_name(name));
        let _ = writeln!(out, "# TYPE {family} counter");
        let _ = writeln!(out, "{family} {total}");
    }
    for (name, value) in &snap.gauges {
        let family = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {family} gauge");
        let _ = writeln!(out, "{family} {}", fmt_value(*value));
    }
    for (name, h) in &snap.histograms {
        let family = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {family} histogram");
        render_histogram(&mut out, &family, "", h);
    }
    if !snap.spans.is_empty() {
        let _ = writeln!(out, "# TYPE opad_span_wall_ms histogram");
        for (name, h) in &snap.spans {
            let labels = format!("span=\"{}\"", escape_label_value(name));
            render_histogram(&mut out, "opad_span_wall_ms", &labels, h);
        }
    }
    out
}

/// Renders the newest bench snapshot's per-kernel timings as labeled
/// gauges, appended to the `/metrics` document after the live families.
///
/// Per-kernel `p50_ns`/`min_ns` share two families with a `kernel` label
/// each (the same pattern as the span rollups), plus an unlabeled
/// `opad_bench_snapshot_seq` (the snapshot's `seq`) so dashboards can
/// tell which snapshot the numbers came from. Kernel order follows the
/// snapshot, so consecutive scrapes are byte-identical.
pub fn render_bench_metrics(g: &BenchReport) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "# TYPE opad_bench_snapshot_seq gauge");
    let _ = writeln!(out, "opad_bench_snapshot_seq {}", g.seq);
    if g.kernels.is_empty() {
        return out;
    }
    let _ = writeln!(out, "# TYPE opad_bench_kernel_p50_ns gauge");
    for k in &g.kernels {
        let _ = writeln!(
            out,
            "opad_bench_kernel_p50_ns{{kernel=\"{}\"}} {}",
            escape_label_value(&k.name),
            fmt_value(k.p50_ns)
        );
    }
    let _ = writeln!(out, "# TYPE opad_bench_kernel_min_ns gauge");
    for k in &g.kernels {
        let _ = writeln!(
            out,
            "opad_bench_kernel_min_ns{{kernel=\"{}\"}} {}",
            escape_label_value(&k.name),
            fmt_value(k.min_ns)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_map_onto_the_spec_charset() {
        assert_eq!(
            sanitize_metric_name("pipeline.pfd_mean"),
            "opad_pipeline_pfd_mean"
        );
        assert_eq!(
            sanitize_metric_name("attack/pgd iters-to-success"),
            "opad_attack_pgd_iters_to_success"
        );
        assert_eq!(sanitize_metric_name("ok_name:sub"), "opad_ok_name:sub");
    }

    #[test]
    fn label_values_escape_exactly_the_three_spec_escapes() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), r"a\nb");
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
    }

    #[test]
    fn special_float_values_render_per_spec() {
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(2.5), "2.5");
        assert_eq!(fmt_value(3.0), "3");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_count() {
        let mut h = FixedHistogram::new();
        for v in [0.05, 0.5, 2.0, 7.0, 400.0] {
            h.record(v);
        }
        let mut out = String::new();
        render_histogram(&mut out, "opad_lat_ms", "", &h);
        let buckets: Vec<u64> = out
            .lines()
            .filter(|l| l.contains("_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(buckets.len(), LE_BOUNDS_MS.len() + 1);
        for w in buckets.windows(2) {
            assert!(w[0] <= w[1], "buckets must be cumulative: {buckets:?}");
        }
        assert_eq!(*buckets.last().unwrap(), 5, "+Inf bucket equals count");
        assert!(out.ends_with("opad_lat_ms_count 5\n"), "{out}");
    }
}
