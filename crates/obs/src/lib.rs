//! `lor-obs` — simulated-clock tracing and metrics for the repository
//! simulator.
//!
//! Everything in this workspace runs on *simulated* time (`SimDuration`
//! nanoseconds), so an observability layer keyed to wall clocks would be
//! useless: spans here open and close on simulated timestamps supplied by
//! the instrumented layer (disk model, store server, maintenance
//! scheduler), never on `Instant::now()`.
//!
//! The design centre is the [`Obs`] handle:
//!
//! * [`Obs::null()`] is the default everywhere.  It holds no recorder at
//!   all, so every instrumentation call is a branch on `Option::is_none`
//!   — no allocation, no formatting, no clock reads.  Simulations with a
//!   null handle must be bit-identical to uninstrumented ones (a property
//!   the workspace pins with proptests).
//! * [`Obs::trace`]`(capacity)` attaches a [`TraceRecorder`]: a bounded
//!   ring buffer of [`SpanRecord`]s and [`MetricSample`]s.  When the ring
//!   is full the oldest record is dropped and counted, so a trace of an
//!   arbitrarily long run costs bounded memory.
//!
//! Records export to Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`) via [`TraceRecorder::to_chrome_json`], with a
//! `metrics` time-series section alongside the `traceEvents` array.
//! [`validate_chrome_trace`] checks an exported document the way CI does:
//! it parses, per-track timestamps are monotone, and spans nest.
//!
//! `Obs` clones share one recorder through `Arc`, so a handle may cross
//! thread boundaries: `lor-shard`'s parallel fleet drains each shard's
//! sub-stream on its own worker thread, each with a private per-shard
//! recorder, and splices the per-shard records into one fleet
//! [`TraceHandle`] in deterministic shard order afterwards (see
//! [`Obs::record_span`] / [`TraceHandle::drain`]).  Each simulated
//! timeline is still single-threaded; the lock never contends on the
//! hot path because every worker records into its own recorder.

mod export;
mod validate;

pub use export::{json_f64, json_string, TraceRecorder};
pub use validate::{validate_chrome_trace, TraceCheck};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Message for the unreachable poisoning case: recorders only store
/// plain data, so a panic while the lock is held means a caller's
/// closure panicked — at that point the trace is unusable anyway.
const LOCK_MSG: &str = "obs recorder lock poisoned";

/// Logical timeline a span belongs to.  Each track maps to one `tid` in
/// the Chrome trace so Perfetto renders them as separate rows.
///
/// `Server`, `Background`, and `Disk` share the store server's simulated
/// timeline.  `Maintenance` runs on the maintenance scheduler's own
/// monotone clock, which is advanced to the caller's `now` on every
/// server-driven slice but never rewinds across measurement intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// Foreground request service in the store server's timeline.
    Server,
    /// Background maintenance slices as scheduled by the store server
    /// (server timeline; pairs with request-level interference args).
    Background,
    /// Individual disk requests (seek/rotation/transfer split).
    Disk,
    /// Per-task maintenance spans on the scheduler's clock.
    Maintenance,
    /// Segment-cleaner passes of the log-structured store: bytes copied and
    /// segments freed land on their own row, separate from the generic
    /// maintenance track, so cleaning pressure is visible at a glance.
    Cleaner,
    /// One shard of a sharded fleet (`lor-shard`): per-shard gauges and
    /// spans land on their own Chrome trace row, so a straggler shard is
    /// visually separable from its siblings.
    Shard(u8),
}

/// Display names for the per-shard tracks.  Shards beyond the named range
/// collapse onto the final catch-all row (their `tid` stays distinct).
const SHARD_TRACK_NAMES: [&str; 17] = [
    "shard-0", "shard-1", "shard-2", "shard-3", "shard-4", "shard-5", "shard-6", "shard-7",
    "shard-8", "shard-9", "shard-10", "shard-11", "shard-12", "shard-13", "shard-14", "shard-15",
    "shard-n",
];

impl Track {
    /// Chrome trace `tid` for this track.  Shard rows start at 16, well
    /// clear of the four fixed tracks and below the counter row (99).
    pub fn tid(self) -> u32 {
        match self {
            Track::Server => 0,
            Track::Background => 1,
            Track::Disk => 2,
            Track::Maintenance => 3,
            Track::Cleaner => 4,
            Track::Shard(n) => 16 + n as u32,
        }
    }

    /// Human-readable track name (also emitted as a span arg).
    pub fn name(self) -> &'static str {
        match self {
            Track::Server => "server",
            Track::Background => "background",
            Track::Disk => "disk",
            Track::Maintenance => "maintenance",
            Track::Cleaner => "cleaner",
            Track::Shard(n) => SHARD_TRACK_NAMES[(n as usize).min(SHARD_TRACK_NAMES.len() - 1)],
        }
    }
}

/// A span argument value.  Keys and string values are `&'static str` so
/// recording a span never allocates for the common case beyond the one
/// `Vec` holding the pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    U64(u64),
    F64(f64),
    Str(&'static str),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

/// A closed span: `[start_ns, start_ns + dur_ns]` in simulated
/// nanoseconds on one [`Track`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub track: Track,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Whether a metric sample is a monotone counter or an instantaneous
/// gauge.  Only presentation differs; both are `(at_ns, value)` points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
}

impl MetricKind {
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One sample of a named metric at a simulated timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSample {
    pub name: &'static str,
    pub at_ns: u64,
    pub value: f64,
    pub kind: MetricKind,
}

/// Shared state behind an [`Obs`] handle.  `now_ns` is a timeline hint:
/// the store server publishes its simulated `now` here so that layers
/// without their own global clock (the disk model's per-request trace
/// cursor) can align their spans with the server timeline.
struct Shared {
    now_ns: AtomicU64,
    recorder: Mutex<TraceRecorder>,
}

/// Cheap, clonable handle threaded through every instrumented layer.
///
/// A disabled handle (`Obs::null()`, also `Default`) stores `None` and
/// every method returns immediately; an enabled handle shares one
/// recorder across all clones.
#[derive(Clone)]
pub struct Obs {
    inner: Option<Arc<Shared>>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::null()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// The default, disabled handle: no recorder, no allocation per
    /// event, nothing observable from the simulation's point of view.
    pub fn null() -> Self {
        Obs { inner: None }
    }

    /// Creates an enabled handle backed by a bounded [`TraceRecorder`]
    /// ring holding at most `capacity` spans (and `capacity` metric
    /// samples).  Returns the handle to thread through the stack and a
    /// [`TraceHandle`] for reading the recording back out.
    pub fn trace(capacity: usize) -> (Obs, TraceHandle) {
        let shared = Arc::new(Shared {
            now_ns: AtomicU64::new(0),
            recorder: Mutex::new(TraceRecorder::new(capacity)),
        });
        let obs = Obs {
            inner: Some(shared.clone()),
        };
        (obs, TraceHandle { shared })
    }

    /// Whether a recorder is attached.  Instrumentation sites use this to
    /// skip argument marshalling entirely on the null path.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Publishes the current simulated time (server timeline).  Layers
    /// with only a local clock read it back via [`Obs::now_hint`] to
    /// align their spans.  No-op when disabled.
    pub fn set_now(&self, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.now_ns.store(ns, Ordering::Relaxed);
        }
    }

    /// Last published simulated time, or 0 when disabled / never set.
    pub fn now_hint(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.now_ns.load(Ordering::Relaxed))
    }

    /// Records a closed span.  `args` is only copied when a recorder is
    /// attached, so call sites may build the slice unconditionally as
    /// long as the values are cheap (numbers and static strings).
    pub fn span(
        &self,
        track: Track,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&'static str, ArgValue)],
    ) {
        if let Some(inner) = &self.inner {
            inner
                .recorder
                .lock()
                .expect(LOCK_MSG)
                .record_span(SpanRecord {
                    track,
                    name,
                    start_ns,
                    dur_ns,
                    args: args.to_vec(),
                });
        }
    }

    /// Records an already-built span verbatim.  Used when splicing the
    /// contents of one recorder into another (e.g. per-shard recorders
    /// merged into a fleet trace); `Obs::span` is the ergonomic path for
    /// instrumentation sites.
    pub fn record_span(&self, span: SpanRecord) {
        if let Some(inner) = &self.inner {
            inner.recorder.lock().expect(LOCK_MSG).record_span(span);
        }
    }

    /// Records an already-built metric sample verbatim (splice path).
    pub fn record_metric(&self, sample: MetricSample) {
        if let Some(inner) = &self.inner {
            inner.recorder.lock().expect(LOCK_MSG).record_metric(sample);
        }
    }

    /// Records a gauge sample (instantaneous value at `at_ns`).
    pub fn gauge(&self, name: &'static str, at_ns: u64, value: f64) {
        self.metric(name, at_ns, value, MetricKind::Gauge);
    }

    /// Records a counter sample (cumulative value at `at_ns`).
    pub fn counter(&self, name: &'static str, at_ns: u64, value: f64) {
        self.metric(name, at_ns, value, MetricKind::Counter);
    }

    fn metric(&self, name: &'static str, at_ns: u64, value: f64, kind: MetricKind) {
        if let Some(inner) = &self.inner {
            inner
                .recorder
                .lock()
                .expect(LOCK_MSG)
                .record_metric(MetricSample {
                    name,
                    at_ns,
                    value,
                    kind,
                });
        }
    }
}

/// Read side of a tracing session created by [`Obs::trace`].
pub struct TraceHandle {
    shared: Arc<Shared>,
}

impl TraceHandle {
    /// Runs `f` with shared access to the recorder.  Panics if called
    /// re-entrantly from inside a recording callback (which the
    /// instrumentation never does).
    pub fn with<T>(&self, f: impl FnOnce(&TraceRecorder) -> T) -> T {
        f(&self.shared.recorder.lock().expect(LOCK_MSG))
    }

    /// Removes and returns everything recorded so far (spans and metric
    /// samples, each oldest first), leaving the ring empty.  The fleet
    /// uses this to splice per-shard recordings into one trace.
    pub fn drain(&self) -> (Vec<SpanRecord>, Vec<MetricSample>) {
        self.shared.recorder.lock().expect(LOCK_MSG).take_records()
    }

    /// Number of spans currently retained in the ring.
    pub fn span_count(&self) -> usize {
        self.with(|r| r.spans().len())
    }

    /// Number of metric samples currently retained in the ring.
    pub fn metric_count(&self) -> usize {
        self.with(|r| r.metrics().len())
    }

    /// Spans evicted from the ring because it was full.
    pub fn dropped_spans(&self) -> u64 {
        self.with(|r| r.dropped_spans())
    }

    /// Metric samples evicted from the ring because it was full.
    pub fn dropped_metrics(&self) -> u64 {
        self.with(|r| r.dropped_metrics())
    }

    /// Exports the recording as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        self.with(|r| r.to_chrome_json())
    }

    /// All samples of one metric, in recording order.
    pub fn metric_series(&self, name: &str) -> Vec<(u64, f64)> {
        self.with(|r| r.metric_series(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_is_disabled_and_inert() {
        let obs = Obs::null();
        assert!(!obs.enabled());
        obs.set_now(123);
        assert_eq!(obs.now_hint(), 0);
        // Recording into a disabled handle is a no-op, not an error.
        obs.span(Track::Server, "noop", 0, 10, &[("k", 1u64.into())]);
        obs.gauge("g", 0, 1.0);
    }

    #[test]
    fn trace_handle_records_spans_and_metrics() {
        let (obs, trace) = Obs::trace(16);
        assert!(obs.enabled());
        obs.set_now(42);
        assert_eq!(obs.now_hint(), 42);
        obs.span(
            Track::Disk,
            "read",
            100,
            50,
            &[("bytes", 4096u64.into()), ("kind", "read".into())],
        );
        obs.counter("ops", 150, 1.0);
        obs.gauge("queue_depth", 150, 3.0);
        assert_eq!(trace.span_count(), 1);
        assert_eq!(trace.metric_count(), 2);
        assert_eq!(trace.metric_series("queue_depth"), vec![(150, 3.0)]);
        trace.with(|r| {
            let span = &r.spans()[0];
            assert_eq!(span.name, "read");
            assert_eq!((span.start_ns, span.dur_ns), (100, 50));
            assert_eq!(span.args[1], ("kind", ArgValue::Str("read")));
        });
    }

    #[test]
    fn clones_share_one_recorder() {
        let (obs, trace) = Obs::trace(16);
        let other = obs.clone();
        other.span(Track::Server, "a", 0, 1, &[]);
        obs.span(Track::Server, "b", 1, 1, &[]);
        assert_eq!(trace.span_count(), 2);
        other.set_now(7);
        assert_eq!(obs.now_hint(), 7);
    }

    #[test]
    fn shard_tracks_have_distinct_tids_and_stable_names() {
        assert_eq!(Track::Shard(0).tid(), 16);
        assert_eq!(Track::Shard(3).name(), "shard-3");
        assert_eq!(Track::Shard(15).name(), "shard-15");
        assert_eq!(Track::Shard(40).name(), "shard-n");
        assert_eq!(Track::Shard(40).tid(), 56);
        assert_ne!(Track::Shard(0).tid(), Track::Maintenance.tid());
    }

    #[test]
    fn handles_are_send_and_records_splice_across_handles() {
        fn assert_send<T: Send>() {}
        assert_send::<Obs>();
        assert_send::<TraceHandle>();

        // Record on a worker-local recorder, then splice into a fleet one.
        let (local_obs, local_trace) = Obs::trace(16);
        let worker = std::thread::spawn(move || {
            local_obs.span(Track::Shard(2), "request", 10, 5, &[]);
            local_obs.gauge("g", 15, 1.0);
            local_obs
        });
        worker.join().unwrap();
        let (spans, metrics) = local_trace.drain();
        assert_eq!((spans.len(), metrics.len()), (1, 1));
        assert_eq!(local_trace.span_count(), 0);

        let (fleet_obs, fleet_trace) = Obs::trace(16);
        for span in spans {
            fleet_obs.record_span(span);
        }
        for sample in metrics {
            fleet_obs.record_metric(sample);
        }
        assert_eq!(fleet_trace.span_count(), 1);
        assert_eq!(fleet_trace.metric_series("g"), vec![(15, 1.0)]);
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let (obs, trace) = Obs::trace(4);
        for i in 0..10u64 {
            obs.span(Track::Server, "s", i, 1, &[]);
            obs.gauge("g", i, i as f64);
        }
        assert_eq!(trace.span_count(), 4);
        assert_eq!(trace.metric_count(), 4);
        assert_eq!(trace.dropped_spans(), 6);
        assert_eq!(trace.dropped_metrics(), 6);
        // Oldest records were evicted: the survivors are the last four.
        trace.with(|r| assert_eq!(r.spans()[0].start_ns, 6));
        assert_eq!(trace.metric_series("g")[0], (6, 6.0));
    }
}
