//! Fixed-bucket streaming histograms: bounded memory, O(1) record,
//! quantile estimates with bounded relative error.
//!
//! Buckets are geometric over the magnitude of the value, mirrored for
//! negative values (naturalness scores are log-densities, i.e. negative),
//! with a dedicated zero bucket: 10 buckets per decade over
//! `|v| ∈ [1e-9, 1e9)` per sign. Within a bucket the representative value
//! is the geometric midpoint, so quantile estimates carry at most ~12%
//! relative error — and are always clamped into the exact `[min, max]`.

use crate::json::{push_f64, push_str_literal};
use std::sync::OnceLock;

const DECADE_STEPS: f64 = 10.0;
const MIN_EXP: f64 = -9.0;
const MAX_EXP: f64 = 9.0;
/// `(MAX_EXP - MIN_EXP) * DECADE_STEPS` buckets per sign.
const SIDE: usize = 180;
const NBUCKETS: usize = 2 * SIDE + 1; // negatives | zero | positives

/// A fixed-bucket histogram over `f64` samples.
///
/// # Examples
///
/// ```
/// use opad_telemetry::FixedHistogram;
///
/// let mut h = FixedHistogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!(p50 >= h.min().unwrap() && p50 <= h.max().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for FixedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl FixedHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        FixedHistogram {
            buckets: vec![0; NBUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (exact), `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact), `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of recorded samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (exact), `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The `q`-quantile estimate, `q ∈ [0, 1]` (clamped). Always within
    /// the exact `[min, max]` and monotone in `q`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds `other` into `self`: bucket occupancies, counts and sums add;
    /// min/max widen. Used to merge the per-stripe histograms of the live
    /// recorder into one read-side view. The merged `sum` depends on the
    /// order samples were striped (floating-point addition), but counts and
    /// bucket occupancies are exact regardless of striping.
    pub fn merge(&mut self, other: &FixedHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The raw bucket occupancies (fixed layout: negatives below, the zero
    /// bucket in the middle, positives above — geometric in `|v|`).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Number of samples whose bucket representative (geometric midpoint)
    /// is `≤ bound` — the cumulative count behind a Prometheus
    /// `_bucket{le="bound"}` line. Approximate at bucket granularity
    /// (≤ ~12% relative error on the boundary bucket), monotone in
    /// `bound`, and exact for `bound = +∞` (the total count).
    pub fn cumulative_le(&self, bound: f64) -> u64 {
        if bound.is_infinite() && bound > 0.0 {
            return self.count;
        }
        // The midpoints increase strictly with the index, so those `≤
        // bound` are a prefix (empty for NaN).
        let n = bucket_mids().partition_point(|&mid| mid <= bound);
        self.buckets[..n].iter().sum()
    }

    /// A point-in-time summary of this histogram.
    pub fn summary(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count,
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
            mean: self.mean().unwrap_or(0.0),
            p50: self.quantile(0.5).unwrap_or(0.0),
            p90: self.quantile(0.9).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
        }
    }
}

/// Named snapshot of a [`FixedHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Histogram name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
    /// Exact mean (0 when empty).
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSummary {
    /// JSON object fragment (no schema tag; used inside larger documents).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"name\":");
        push_str_literal(&mut s, &self.name);
        s.push_str(",\"count\":");
        s.push_str(&self.count.to_string());
        for (k, v) in [
            ("min", self.min),
            ("max", self.max),
            ("mean", self.mean),
            ("p50", self.p50),
            ("p90", self.p90),
            ("p99", self.p99),
        ] {
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":");
            push_f64(&mut s, v);
        }
        s.push('}');
        s
    }
}

/// Bucket index for a value: negatives below, zero in the middle,
/// positives above, each side geometric in `|v|`.
fn bucket_of(v: f64) -> usize {
    if v == 0.0 {
        return SIDE;
    }
    let l = v.abs().log10().clamp(MIN_EXP, MAX_EXP - 1e-9);
    let off = (((l - MIN_EXP) * DECADE_STEPS) as usize).min(SIDE - 1);
    if v > 0.0 {
        SIDE + 1 + off
    } else {
        SIDE - 1 - off
    }
}

/// Geometric midpoint of a bucket (0 for the zero bucket).
fn bucket_mid(i: usize) -> f64 {
    if i == SIDE {
        return 0.0;
    }
    let (off, sign) = if i > SIDE {
        (i - SIDE - 1, 1.0)
    } else {
        (SIDE - 1 - i, -1.0)
    };
    let exp = MIN_EXP + (off as f64 + 0.5) / DECADE_STEPS;
    sign * 10f64.powf(exp)
}

/// [`bucket_mid`] of every bucket by index, computed on first use.
/// Strictly increasing.
fn bucket_mids() -> &'static [f64; NBUCKETS] {
    static MIDS: OnceLock<[f64; NBUCKETS]> = OnceLock::new();
    MIDS.get_or_init(|| std::array::from_fn(bucket_mid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_none() {
        let h = FixedHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert!(h.mean().is_none());
        assert!(h.quantile(0.5).is_none());
        let s = h.summary("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
    }

    #[test]
    fn exact_stats_and_bounded_quantiles() {
        let mut h = FixedHistogram::new();
        for v in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(9.0));
        assert!((h.mean().unwrap() - 31.0 / 8.0).abs() < 1e-12);
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((1.0..=9.0).contains(&v), "q={q} v={v}");
        }
        // Quantiles are monotone.
        assert!(h.quantile(0.5).unwrap() <= h.quantile(0.9).unwrap());
        assert!(h.quantile(0.9).unwrap() <= h.quantile(0.99).unwrap());
    }

    #[test]
    fn negative_and_mixed_values_are_ordered() {
        let mut h = FixedHistogram::new();
        for v in [-100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.min(), Some(-100.0));
        assert_eq!(h.max(), Some(100.0));
        let p10 = h.quantile(0.1).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        assert!(p10 < 0.0, "p10 {p10}");
        assert!(p90 > 0.0, "p90 {p90}");
        assert!(p10 <= p90);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut h = FixedHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert!(h.is_empty());
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(2.0));
    }

    #[test]
    fn single_value_quantiles_collapse() {
        let mut h = FixedHistogram::new();
        h.record(42.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(42.0));
        }
    }

    #[test]
    fn quantile_relative_error_is_bounded_on_a_known_distribution() {
        // Uniform 1..=1000: true p50 ≈ 500, p90 ≈ 900.
        let mut h = FixedHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.15, "p50 {p50}");
        assert!((p90 - 900.0).abs() / 900.0 < 0.15, "p90 {p90}");
    }

    #[test]
    fn extreme_magnitudes_clamp_into_the_bucket_range() {
        let mut h = FixedHistogram::new();
        h.record(1e300);
        h.record(1e-300);
        h.record(-1e300);
        assert_eq!(h.count(), 3);
        for q in [0.01, 0.5, 0.99] {
            let v = h.quantile(q).unwrap();
            assert!((-1e300..=1e300).contains(&v));
        }
    }

    #[test]
    fn merge_adds_counts_and_widens_bounds() {
        let mut a = FixedHistogram::new();
        let mut b = FixedHistogram::new();
        for v in [1.0, 2.0, 3.0] {
            a.record(v);
        }
        for v in [-5.0, 10.0] {
            b.record(v);
        }
        let mut whole = FixedHistogram::new();
        for v in [1.0, 2.0, 3.0, -5.0, 10.0] {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), Some(-5.0));
        assert_eq!(a.max(), Some(10.0));
        assert_eq!(a.bucket_counts(), whole.bucket_counts());
        assert!((a.sum() - whole.sum()).abs() < 1e-12);
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&FixedHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn cumulative_le_is_monotone_and_exact_at_infinity() {
        let mut h = FixedHistogram::new();
        for v in [0.5, 1.5, 20.0, 300.0] {
            h.record(v);
        }
        assert_eq!(h.cumulative_le(f64::INFINITY), 4);
        assert_eq!(h.cumulative_le(f64::NEG_INFINITY), 0);
        let bounds = [0.1, 1.0, 10.0, 100.0, 1000.0];
        let cum: Vec<u64> = bounds.iter().map(|&b| h.cumulative_le(b)).collect();
        for w in cum.windows(2) {
            assert!(w[0] <= w[1], "cumulative counts must be monotone: {cum:?}");
        }
        // Everything is ≤ 1000 up to bucket granularity.
        assert_eq!(*cum.last().expect("nonempty"), 4);
    }

    #[test]
    fn summary_json_is_parseable_shape() {
        let mut h = FixedHistogram::new();
        h.record(1.0);
        let j = h.summary("lat_ms").to_json();
        assert!(j.starts_with("{\"name\":\"lat_ms\""), "{j}");
        assert!(j.contains("\"p99\":"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
