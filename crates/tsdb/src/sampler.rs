//! [`Sampler`]: the background thread that folds [`LiveRecorder`]
//! snapshots into a [`TsdbStore`] on a fixed cadence, and the process
//! global [`TsdbLink`] slot that lets deep call sites (`run_round`, the
//! sharded campaign) force an immediate sample at interesting moments
//! via [`pulse`] without threading the store through every signature.
//!
//! The thread is a [`BackgroundThread::poll`] loop, the same one the
//! alert watch runs: it parks between samples, a stop is honoured at
//! once even at long intervals, and one final sample on shutdown lands
//! the end-of-run state in history.

use crate::store::TsdbStore;
use opad_telemetry::{BackgroundThread, LiveRecorder};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Default sampling interval — matches the alert watch cadence, so one
/// `/timeseries` sample exists per alert evaluation point.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_millis(250);

/// A not-yet-started sampler: a recorder to snapshot and a store to
/// feed.
pub struct Sampler {
    recorder: Arc<LiveRecorder>,
    store: Arc<TsdbStore>,
    interval: Duration,
}

impl Sampler {
    /// Pairs `recorder` with `store` at the default interval.
    pub fn new(recorder: Arc<LiveRecorder>, store: Arc<TsdbStore>) -> Sampler {
        Sampler {
            recorder,
            store,
            interval: DEFAULT_SAMPLE_INTERVAL,
        }
    }

    /// Overrides the sampling interval.
    pub fn interval(mut self, interval: Duration) -> Sampler {
        self.interval = interval;
        self
    }

    /// Starts the background sampling thread. Declares the cadence on
    /// the store so `/healthz` can judge sampler liveness.
    pub fn spawn(self) -> SamplerHandle {
        let Sampler {
            recorder,
            store,
            interval,
        } = self;
        store.set_expected_interval_ms(interval.as_secs_f64() * 1e3);
        BackgroundThread::poll("opad-tsdb-sampler", interval, move || {
            store.record_snapshot(&recorder.snapshot());
        })
    }
}

/// Handle to a running sampler; `shutdown` (or dropping it) takes one
/// final sample and joins the thread.
pub type SamplerHandle = BackgroundThread;

/// A recorder/store pair published process-wide so instrumented code
/// can [`pulse`] a sample at moments that matter (end of a round, a
/// checkpoint) without waiting for the next cadence tick.
pub struct TsdbLink {
    /// The recorder snapshots are read from.
    pub recorder: Arc<LiveRecorder>,
    /// The store samples land in.
    pub store: Arc<TsdbStore>,
}

fn link_slot() -> &'static Mutex<Option<Arc<TsdbLink>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<TsdbLink>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Publishes a recorder/store pair as the process-wide history link.
/// Last install wins.
pub fn install(link: Arc<TsdbLink>) {
    *link_slot().lock().expect("tsdb link lock poisoned") = Some(link);
}

/// Withdraws the process-wide link (pulses become no-ops again).
pub fn uninstall() {
    *link_slot().lock().expect("tsdb link lock poisoned") = None;
}

/// The currently installed link, if any.
pub fn current() -> Option<Arc<TsdbLink>> {
    link_slot().lock().expect("tsdb link lock poisoned").clone()
}

/// Takes one immediate sample through the installed link; a no-op when
/// none is installed. Cheap enough to call once per pipeline round.
pub fn pulse() {
    if let Some(link) = current() {
        link.store.record_snapshot(&link.recorder.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opad_telemetry::Recorder;

    #[test]
    fn sampler_fills_the_store_and_takes_a_final_sample() {
        let recorder = Arc::new(LiveRecorder::new());
        let store = Arc::new(TsdbStore::new());
        recorder.gauge_set("g", 1.0);
        let handle = Sampler::new(recorder.clone(), store.clone())
            .interval(Duration::from_millis(5))
            .spawn();
        assert_eq!(store.expected_interval_ms(), Some(5.0));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.samples("g").map(|s| s.len()).unwrap_or(0) < 2
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        recorder.gauge_set("g", 9.0);
        handle.shutdown();
        let samples = store.samples("g").expect("sampled series");
        assert!(samples.len() >= 2, "sampler never took two samples");
        // The shutdown sample saw the last write.
        assert_eq!(samples.last().unwrap().value, 9.0);
        assert!(store.last_sample_ms().is_some());
    }

    #[test]
    fn pulse_is_a_noop_without_a_link_and_samples_with_one() {
        uninstall();
        pulse(); // must not panic
        let recorder = Arc::new(LiveRecorder::new());
        let store = Arc::new(TsdbStore::new());
        recorder.gauge_set("g", 3.0);
        install(Arc::new(TsdbLink {
            recorder: recorder.clone(),
            store: store.clone(),
        }));
        assert!(current().is_some());
        pulse();
        uninstall();
        assert!(current().is_none());
        pulse(); // no-op again
        let samples = store.samples("g").expect("pulse recorded");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].value, 3.0);
    }
}
