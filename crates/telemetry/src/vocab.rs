//! The workspace's metric-name vocabulary.
//!
//! Every counter, gauge and histogram the instrumented crates publish is
//! listed here by name and kind. The list exists so tooling can catch
//! typos *statically*: `obsctl alerts check` validates a rule file's
//! metric references against it before any rule is trusted to watch a
//! live run — an alert on `reliability.pfd_meen` would otherwise just
//! never fire, which is the worst possible failure mode for a watchdog.
//!
//! Keep this in sync when instrumenting new code paths: the names are
//! data, not magic — an unknown name only downgrades tooling from
//! "validated" to "best effort", it never breaks recording.

/// What a metric name is published as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (`counter_add`).
    Counter,
    /// Last-writer-wins gauge (`gauge_set`).
    Gauge,
    /// Fixed-bucket histogram (`histogram_record` / `timer`).
    Histogram,
}

/// Every metric name the workspace publishes, with its kind.
///
/// Name-sorted within each kind group for readability; lookup goes
/// through [`kind_of`], not binary search, so ordering is not load
/// bearing.
pub const KNOWN_METRICS: &[(&str, MetricKind)] = &[
    // Counters.
    ("attack.fuzz.accepted", MetricKind::Counter),
    ("attack.fuzz.proposals", MetricKind::Counter),
    ("attack.fuzz.rejected_unnatural", MetricKind::Counter),
    ("attack.pgd.failure", MetricKind::Counter),
    ("attack.pgd.success", MetricKind::Counter),
    ("detector.fit_rows", MetricKind::Counter),
    ("detector.merges", MetricKind::Counter),
    ("detector.scored", MetricKind::Counter),
    ("par.tasks", MetricKind::Counter),
    ("pipeline.aes_found", MetricKind::Counter),
    ("pipeline.cells_hit", MetricKind::Counter),
    ("pipeline.seeds_attacked", MetricKind::Counter),
    ("reliability.mc_samples", MetricKind::Counter),
    ("reliability.observations", MetricKind::Counter),
    ("shard.checkpoints", MetricKind::Counter),
    ("shard.demands", MetricKind::Counter),
    ("shard.merges", MetricKind::Counter),
    ("tsdb.evictions", MetricKind::Counter),
    ("tsdb.samples", MetricKind::Counter),
    // Gauges.
    ("nn.train.loss", MetricKind::Gauge),
    ("pipeline.naturalness_floor", MetricKind::Gauge),
    ("pipeline.pfd_mean", MetricKind::Gauge),
    ("pipeline.pfd_upper", MetricKind::Gauge),
    ("pipeline.phase", MetricKind::Gauge),
    ("pipeline.round", MetricKind::Gauge),
    ("reliability.pfd_mean", MetricKind::Gauge),
    ("shard.count", MetricKind::Gauge),
    // Histograms.
    ("attack.fuzz.naturalness", MetricKind::Histogram),
    ("attack.pgd.iters_to_success", MetricKind::Histogram),
    ("detector.score", MetricKind::Histogram),
    ("nn.conv.forward_ms", MetricKind::Histogram),
    ("nn.train.epoch_ms", MetricKind::Histogram),
    ("par.task_us", MetricKind::Histogram),
    ("reliability.pfd_upper_ms", MetricKind::Histogram),
    ("tensor.matmul_ms", MetricKind::Histogram),
    ("tsdb.query_us", MetricKind::Histogram),
];

/// The kind a metric name is published as, `None` for unknown names.
pub fn kind_of(name: &str) -> Option<MetricKind> {
    KNOWN_METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, k)| *k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_each_kind_and_rejects_typos() {
        assert_eq!(
            kind_of("pipeline.seeds_attacked"),
            Some(MetricKind::Counter)
        );
        assert_eq!(kind_of("reliability.pfd_mean"), Some(MetricKind::Gauge));
        assert_eq!(
            kind_of("attack.fuzz.naturalness"),
            Some(MetricKind::Histogram)
        );
        assert_eq!(kind_of("reliability.pfd_meen"), None);
        assert_eq!(kind_of(""), None);
    }

    #[test]
    fn vocabulary_has_no_duplicate_names() {
        let mut names: Vec<&str> = KNOWN_METRICS.iter().map(|(n, _)| *n).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name in vocabulary");
    }

    #[test]
    fn history_plane_metrics_are_registered() {
        assert_eq!(kind_of("tsdb.samples"), Some(MetricKind::Counter));
        assert_eq!(kind_of("tsdb.evictions"), Some(MetricKind::Counter));
        assert_eq!(kind_of("tsdb.query_us"), Some(MetricKind::Histogram));
        assert_eq!(
            kind_of("pipeline.naturalness_floor"),
            Some(MetricKind::Gauge)
        );
    }

    #[test]
    fn phase_vocabulary_constants_are_registered() {
        assert_eq!(kind_of(crate::phase::PHASE_GAUGE), Some(MetricKind::Gauge));
        assert_eq!(kind_of(crate::phase::ROUND_GAUGE), Some(MetricKind::Gauge));
    }
}
