//! [`BackgroundThread`]: the one lifecycle of the observability plane's
//! background threads (the alert watch, the tsdb sampler and the metrics
//! server's accept loop). A named thread watches a stop flag; shutting
//! the handle down, or dropping it, raises the flag, unparks the thread,
//! runs the handle's wake hook (if any) and joins the thread.
//!
//! [`BackgroundThread::poll`] is the loop the pollers share: call `tick`,
//! park until the interval's deadline (the stop unparks it, so a stop is
//! honoured at once however long the interval), and tick one final time
//! on the way out so the end-of-run state is always observed. A body that
//! blocks in a call no flag or unpark can interrupt, such as the server's
//! `accept`, registers a wake hook with [`BackgroundThread::with_wake`]; a
//! wake that fails leaves that thread unjoined rather than hang the stop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle to a running background thread; dropping it stops the thread.
pub struct BackgroundThread {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    wake: Option<Box<dyn FnOnce() -> bool + Send>>,
}

impl BackgroundThread {
    /// Starts thread `name` running `body`, which is handed the stop flag
    /// and must return soon after the flag reads `true`. The stop also
    /// unparks the thread, so a body may wait with `thread::park`.
    ///
    /// # Panics
    ///
    /// If the operating system refuses to spawn the thread.
    pub fn spawn(name: &str, body: impl FnOnce(&AtomicBool) + Send + 'static) -> BackgroundThread {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || body(&flag))
            .unwrap_or_else(|e| panic!("spawning the {name} thread: {e}"));
        BackgroundThread {
            stop,
            thread: Some(thread),
            wake: None,
        }
    }

    /// Sets the hook the stop runs after raising the flag and before the
    /// join: for a body blocked in a call that neither the flag nor an
    /// unpark interrupts, `wake` makes that call return so the body sees
    /// the flag. It returns whether the wake landed; when it did not, the
    /// stop returns without joining, and the thread ends on its own once
    /// its call returns.
    pub fn with_wake(mut self, wake: impl FnOnce() -> bool + Send + 'static) -> BackgroundThread {
        self.wake = Some(Box::new(wake));
        self
    }

    /// Starts thread `name` calling `tick` once per `interval` until
    /// stopped, then one final time.
    pub fn poll(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> BackgroundThread {
        BackgroundThread::spawn(name, move |stop| {
            while !stop.load(Ordering::Acquire) {
                tick();
                let deadline = Instant::now() + interval;
                // The unpark that follows the raised flag ends the wait;
                // an early or spurious return loops back to the check.
                while !stop.load(Ordering::Acquire) {
                    match deadline.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => std::thread::park_timeout(left),
                        _ => break,
                    }
                }
            }
            tick();
        })
    }

    /// Stops the thread and joins it; a poller's final tick has run when
    /// this returns.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for BackgroundThread {
    fn drop(&mut self) {
        // Release pairs with the body's Acquire load; the unpark, made
        // after the store, also makes the store visible to the thread that
        // returns from park.
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
        let woken = match self.wake.take() {
            Some(wake) => wake(),
            None => true,
        };
        if let Some(thread) = self.thread.take() {
            // A body the wake did not reach may block for ever; dropping
            // the handle unjoined detaches it instead.
            if woken {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn a_long_interval_still_stops_promptly_after_the_final_tick() {
        let ticks = Arc::new(AtomicU64::new(0));
        let seen = ticks.clone();
        let handle = BackgroundThread::poll("test-slow", Duration::from_secs(3600), move || {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        while ticks.load(Ordering::Relaxed) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t = std::time::Instant::now();
        drop(handle);
        assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
        assert_eq!(ticks.load(Ordering::Relaxed), 2, "first tick + final tick");
    }

    #[test]
    fn a_poller_ticks_no_faster_than_its_interval() {
        let ticks = Arc::new(AtomicU64::new(0));
        let seen = ticks.clone();
        let interval = Duration::from_millis(20);
        let t = std::time::Instant::now();
        let handle = BackgroundThread::poll("test-paced", interval, move || {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(100));
        let before_stop = ticks.load(Ordering::Relaxed);
        let bound = (t.elapsed().as_millis() / interval.as_millis()) as u64 + 1;
        drop(handle);
        assert!(
            before_stop >= 1 && before_stop <= bound,
            "{before_stop} ticks, bound {bound}"
        );
        assert_eq!(
            ticks.load(Ordering::Relaxed),
            before_stop + 1,
            "one final tick"
        );
    }

    #[test]
    fn the_wake_hook_runs_after_the_flag_is_raised() {
        let (wake_tx, wake_rx) = std::sync::mpsc::channel::<()>();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        // The body blocks in a receive that only the hook's send ends.
        let handle = BackgroundThread::spawn("opad-test-woken", move |stop| {
            let _ = wake_rx.recv();
            let _ = seen_tx.send(stop.load(Ordering::Acquire));
        })
        .with_wake(move || wake_tx.send(()).is_ok());
        handle.shutdown();
        assert_eq!(
            seen_rx.recv().ok(),
            Some(true),
            "the body saw the raised flag"
        );
    }

    #[test]
    fn a_wake_that_does_not_land_leaves_the_thread_unjoined() {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        // Nothing but the test's own send ends this body's receive.
        let handle = BackgroundThread::spawn("opad-test-unwoken", move |stop| {
            let _ = release_rx.recv();
            let _ = seen_tx.send(stop.load(Ordering::Acquire));
        })
        .with_wake(|| false);
        let t = Instant::now();
        handle.shutdown();
        assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
        // The detached body ends once its call returns, flag raised.
        release_tx.send(()).unwrap();
        assert_eq!(seen_rx.recv().ok(), Some(true));
    }

    #[test]
    fn spawn_names_the_thread_and_hands_it_the_stop_flag() {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = BackgroundThread::spawn("opad-test-named", move |stop| {
            let _ = tx.send(std::thread::current().name().map(str::to_string));
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(rx.recv().unwrap().as_deref(), Some("opad-test-named"));
        handle.shutdown();
    }
}
