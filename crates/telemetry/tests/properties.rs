//! Randomized property tests for opad-telemetry, driven by a small LCG so
//! they run without any external property-testing crate.

use opad_telemetry::{Event, FixedHistogram, LiveRecorder, Recorder, TestSink};
use std::sync::Arc;

/// Minimal LCG (Numerical Recipes constants) — deterministic, no deps.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn next_f64(&mut self) -> f64 {
        // Uniform in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Mixed-sign, mixed-magnitude sample: 10^[-6, 6) scaled, ~half negative.
    fn sample(&mut self) -> f64 {
        let mag = 10f64.powf(self.next_f64() * 12.0 - 6.0);
        if self.next_u64().is_multiple_of(2) {
            mag
        } else {
            -mag
        }
    }

    fn range(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[test]
fn histogram_quantiles_are_bounded_by_exact_min_max() {
    let mut rng = Lcg(0xC0FFEE);
    for case in 0..50 {
        let mut h = FixedHistogram::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let n = 1 + rng.range(500);
        for _ in 0..n {
            let v = rng.sample();
            lo = lo.min(v);
            hi = hi.max(v);
            h.record(v);
        }
        assert_eq!(h.count(), n);
        assert_eq!(h.min(), Some(lo));
        assert_eq!(h.max(), Some(hi));
        for step in 0..=20 {
            let q = step as f64 / 20.0;
            let v = h.quantile(q).unwrap();
            assert!(
                (lo..=hi).contains(&v),
                "case {case}: q={q} v={v} outside [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn histogram_quantiles_are_monotone_in_q() {
    let mut rng = Lcg(0xBADF00D);
    for case in 0..50 {
        let mut h = FixedHistogram::new();
        let n = 1 + rng.range(300);
        for _ in 0..n {
            h.record(rng.sample());
        }
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=40 {
            let q = step as f64 / 40.0;
            let v = h.quantile(q).unwrap();
            assert!(
                v >= prev,
                "case {case}: quantile dipped at q={q}: {v} < {prev}"
            );
            prev = v;
        }
    }
}

#[test]
fn histogram_mean_lies_between_min_and_max() {
    let mut rng = Lcg(0x5EED);
    for _ in 0..50 {
        let mut h = FixedHistogram::new();
        let n = 1 + rng.range(200);
        for _ in 0..n {
            h.record(rng.sample());
        }
        let mean = h.mean().unwrap();
        assert!(mean >= h.min().unwrap() && mean <= h.max().unwrap());
    }
}

/// Bucket `i`'s geometric midpoint, computed per call as `cumulative_le`
/// once did: 180 buckets per sign, ten per decade from 1e-9, negatives
/// below the zero bucket at 180.
fn reference_mid(i: usize) -> f64 {
    if i == 180 {
        return 0.0;
    }
    let (off, sign) = if i > 180 {
        (i - 181, 1.0)
    } else {
        (179 - i, -1.0)
    };
    sign * 10f64.powf(-9.0 + (off as f64 + 0.5) / 10.0)
}

/// The per-bucket `powf` filter `cumulative_le` used to run.
fn reference_cumulative_le(h: &FixedHistogram, bound: f64) -> u64 {
    if bound.is_infinite() && bound > 0.0 {
        return h.count();
    }
    h.bucket_counts()
        .iter()
        .enumerate()
        .filter(|(i, _)| reference_mid(*i) <= bound)
        .map(|(_, &c)| c)
        .sum()
}

#[test]
fn cumulative_le_matches_the_per_bucket_powf_filter() {
    // Every midpoint, each just above and below, the `le` grid opad-serve
    // renders (both signs), zero, ±∞ and NaN.
    let le_bounds_ms = [
        0.01, 0.1, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 10000.0,
    ];
    let buckets = FixedHistogram::new().bucket_counts().len();
    let mut bounds: Vec<f64> = Vec::new();
    for mid in (0..buckets).map(reference_mid) {
        bounds.extend([mid, mid.next_down(), mid.next_up()]);
    }
    bounds.extend(le_bounds_ms);
    bounds.extend(le_bounds_ms.map(|b| -b));
    bounds.extend([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);

    let mut rng = Lcg(0xB0CE7);
    for case in 0..40 {
        let mut h = FixedHistogram::new();
        for _ in 0..rng.range(600) {
            // Magnitudes past both ends of the bucket range, a tenth zero.
            let v = match rng.range(10) {
                0 => 0.0,
                k => {
                    let mag = 10f64.powf(rng.next_f64() * 22.0 - 11.0);
                    if k % 2 == 0 {
                        mag
                    } else {
                        -mag
                    }
                }
            };
            h.record(v);
        }
        for &bound in &bounds {
            assert_eq!(
                h.cumulative_le(bound),
                reference_cumulative_le(&h, bound),
                "case {case}, le {bound:e}"
            );
        }
    }
}

#[test]
fn counters_are_monotone_under_random_interleavings() {
    let mut rng = Lcg(0xFACADE);
    let rec = LiveRecorder::new();
    let names: [&'static str; 3] = ["a", "b", "c"];
    let mut last = [0u64; 3];
    for _ in 0..500 {
        let which = rng.range(3) as usize;
        let delta = rng.range(10);
        rec.counter_add(names[which], delta);
        let now = rec.summary().counter(names[which]).unwrap_or(0);
        assert!(
            now >= last[which],
            "counter {} went backwards",
            names[which]
        );
        assert_eq!(now, last[which] + delta);
        last[which] = now;
    }
}

#[test]
fn span_nesting_is_well_formed_for_random_tree_shapes() {
    // Build random span trees through the real recorder/sink machinery and
    // assert the event stream is a well-formed forest: every end matches a
    // start, parents are open at child start, children close before parents.
    let mut rng = Lcg(0xD15EA5E);
    for case in 0..30 {
        let sink = Arc::new(TestSink::new());
        let rec = Arc::new(LiveRecorder::with_sink(sink.clone()));
        opad_telemetry::install(rec.clone());
        build_random_tree(&mut rng, 0);
        opad_telemetry::uninstall();

        let events = sink.events();
        let mut open: Vec<u64> = Vec::new();
        let mut starts = 0usize;
        let mut ends = 0usize;
        for e in &events {
            match e {
                Event::SpanStart { id, parent, .. } => {
                    starts += 1;
                    assert_eq!(
                        *parent,
                        open.last().copied(),
                        "case {case}: child started under wrong parent"
                    );
                    open.push(*id);
                }
                Event::SpanEnd {
                    id,
                    parent,
                    wall_ms,
                    ..
                } => {
                    ends += 1;
                    assert!(*wall_ms >= 0.0);
                    assert_eq!(
                        open.pop(),
                        Some(*id),
                        "case {case}: span ended out of order"
                    );
                    assert_eq!(*parent, open.last().copied());
                }
                _ => {}
            }
        }
        assert_eq!(starts, ends, "case {case}: unbalanced span events");
        assert!(open.is_empty(), "case {case}: spans left open");
    }
}

fn build_random_tree(rng: &mut Lcg, depth: u32) {
    let children = rng.range(if depth >= 3 { 1 } else { 4 });
    for _ in 0..children {
        let _s = opad_telemetry::span("node");
        build_random_tree(rng, depth + 1);
    }
}

#[test]
fn summary_json_survives_random_metric_soup() {
    let mut rng = Lcg(0xFEED);
    let rec = LiveRecorder::new();
    let names: [&'static str; 4] = ["m.a", "m.b", "m.c", "m.d"];
    for _ in 0..300 {
        let name = names[rng.range(4) as usize];
        match rng.range(3) {
            0 => rec.counter_add(name, rng.range(100)),
            1 => rec.gauge_set(name, rng.sample()),
            _ => rec.histogram_record(name, rng.sample()),
        }
    }
    let j = rec.summary().to_json();
    assert_eq!(j.matches('{').count(), j.matches('}').count());
    assert_eq!(j.matches('[').count(), j.matches(']').count());
    assert_eq!(j.matches('"').count() % 2, 0);
    assert!(!j.contains("NaN") && !j.contains("inf"), "{j}");
}
