//! The disk service-time model itself.
//!
//! [`Disk`] deterministically converts [`IoRequest`]s into a
//! [`ServiceTime`] breakdown (seek + rotation + transfer + overhead),
//! tracking head position between requests so that sequential streams are
//! rewarded and scattered layouts pay one mechanical positioning delay per
//! fragment — exactly the cost structure that makes fragmentation matter in
//! the paper.

use lor_obs::{Obs, Track};
use serde::{Deserialize, Serialize};

use crate::config::DiskConfig;
use crate::request::{AccessKind, ByteRun, IoRequest};
use crate::stats::DiskStats;
use crate::time::{SimClock, SimDuration};

/// Breakdown of the time needed to service one request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceTime {
    /// Head movement time.
    pub seek: SimDuration,
    /// Rotational latency.
    pub rotation: SimDuration,
    /// Media transfer time.
    pub transfer: SimDuration,
    /// Controller/command overhead.
    pub overhead: SimDuration,
}

impl ServiceTime {
    /// Total service time.
    pub fn total(&self) -> SimDuration {
        self.seek + self.rotation + self.transfer + self.overhead
    }
}

/// Deterministic single-spindle disk model.
///
/// The disk keeps its head position and an internal clock.  Every call to
/// [`Disk::service`] advances the clock by the computed service time, charges
/// the statistics counters, and leaves the head at the end of the last
/// segment transferred.
#[derive(Debug, Clone)]
pub struct Disk {
    config: DiskConfig,
    /// Current head position as a byte offset.
    head: u64,
    /// End offset and kind of the most recent transfer, used for sequential
    /// detection.
    last_transfer: Option<(u64, AccessKind)>,
    clock: SimClock,
    stats: DiskStats,
    /// Observability handle (inert by default).
    obs: Obs,
    /// Label identifying who owns this spindle in trace spans.
    obs_consumer: &'static str,
    /// Monotone trace timestamp cursor in nanoseconds.  Unlike `clock`,
    /// this never resets (measurement phases reset the clock, but trace
    /// timestamps must stay monotone per track), and it jumps forward to
    /// the server-published timeline hint so disk spans line up with
    /// request spans when a `StoreServer` is driving.
    trace_cursor: u64,
}

impl Disk {
    /// Creates a disk from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`DiskConfig::validate`]; building a
    /// simulator on an invalid disk is a programming error.
    pub fn new(config: DiskConfig) -> Self {
        config.validate().expect("disk configuration must be valid");
        Disk {
            config,
            head: 0,
            last_transfer: None,
            clock: SimClock::new(),
            stats: DiskStats::default(),
            obs: Obs::null(),
            obs_consumer: "disk",
            trace_cursor: 0,
        }
    }

    /// Attaches an observability handle; every serviced request emits a
    /// span on the disk track labelled with `consumer` (e.g. which store
    /// owns this spindle).  The handle is inert by default, and tracing
    /// never changes any service-time computation.
    pub fn set_obs(&mut self, obs: Obs, consumer: &'static str) {
        self.obs = obs;
        self.obs_consumer = consumer;
    }

    /// The configuration this disk was built from.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Current head position (byte offset).
    pub fn head_position(&self) -> u64 {
        self.head
    }

    /// Total simulated time spent servicing requests so far.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.now()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Clears statistics and the clock but keeps the head where it is.
    ///
    /// Used by the experiment harness to measure phases independently
    /// (e.g. write throughput between two storage ages) without pretending the
    /// head teleported back to the outer edge.
    pub fn reset_measurements(&mut self) {
        self.stats.reset();
        self.clock.reset();
    }

    /// Computes the service time of `request` without mutating any state.
    pub fn estimate(&self, request: &IoRequest) -> ServiceTime {
        self.compute(request).0
    }

    /// Services `request`: computes its cost, advances the clock, updates the
    /// statistics and the head position, and returns the cost breakdown.
    pub fn service(&mut self, request: &IoRequest) -> ServiceTime {
        let (service, new_head, sequential_hit, segments) = self.compute(request);
        if let Some(end) = new_head {
            self.head = end;
            self.last_transfer = Some((end, request.kind));
        }
        self.clock.advance(service.total());
        let direction = self.stats.direction_mut(request.kind);
        direction.requests += 1;
        direction.segments += segments;
        direction.bytes += request.total_bytes();
        direction.seek_time += service.seek;
        direction.rotation_time += service.rotation;
        direction.transfer_time += service.transfer;
        direction.overhead_time += service.overhead;
        if sequential_hit {
            self.stats.sequential_hits += 1;
        }
        if self.obs.enabled() {
            let start = self.trace_cursor.max(self.obs.now_hint());
            let dur = service.total().as_nanos();
            self.obs.span(
                Track::Disk,
                request.kind.name(),
                start,
                dur,
                &[
                    ("consumer", self.obs_consumer.into()),
                    ("bytes", request.total_bytes().into()),
                    ("segments", segments.into()),
                    ("seek_ms", service.seek.as_millis_f64().into()),
                    ("rotation_ms", service.rotation.as_millis_f64().into()),
                    ("transfer_ms", service.transfer.as_millis_f64().into()),
                    ("overhead_ms", service.overhead.as_millis_f64().into()),
                ],
            );
            self.trace_cursor = start + dur;
        }
        service
    }

    /// Core cost computation shared by [`Disk::estimate`] and
    /// [`Disk::service`].
    ///
    /// Returns `(service, new_head_position, sequential_hit, segment_count)`.
    /// The segments charged are the request's *merged* ones
    /// ([`IoRequest::merged_segments`]), so costing a request copies nothing.
    fn compute(&self, request: &IoRequest) -> (ServiceTime, Option<u64>, bool, u64) {
        let mut service = ServiceTime {
            overhead: self.config.overhead.per_request,
            ..ServiceTime::default()
        };
        let mut head = self.head;
        let mut sequential_hit = false;
        let mut segments = 0u64;
        for segment in request.merged_segments() {
            let continues_stream = segments == 0
                && self.config.sequential_detection
                && matches!(self.last_transfer, Some((end, kind)) if end == segment.offset && kind == request.kind);
            if continues_stream {
                // The head is already positioned at the start of this run and
                // the platter is rotating underneath it: pure media transfer.
                sequential_hit = true;
            } else if head != segment.offset {
                service.seek += self.seek_between(head, segment.offset);
                service.rotation += self.config.average_rotational_latency();
            } else {
                // Same byte offset but not a detected continuation (e.g. a
                // re-read of the block just written): the platter has rotated
                // away, so charge a full revolution to come back around.
                service.rotation += self.config.rotation_time();
            }
            service.transfer += self.transfer_time(&segment);
            head = segment.end();
            segments += 1;
        }
        if segments == 0 {
            // A zero-byte request still costs the command overhead; this
            // models metadata-only operations issued through the same path.
            return (service, None, false, 0);
        }
        service.overhead += self.config.overhead.per_extra_segment * (segments - 1);
        (service, Some(head), sequential_hit, segments)
    }

    /// Seek time between two byte offsets.
    fn seek_between(&self, from: u64, to: u64) -> SimDuration {
        let from_cyl = self.config.cylinder_of(from);
        let to_cyl = self.config.cylinder_of(to);
        let distance = from_cyl.abs_diff(to_cyl);
        self.config.seek.seek_time(distance)
    }

    /// Media transfer time for one contiguous run, integrating across zone
    /// boundaries the run may straddle.
    fn transfer_time(&self, run: &ByteRun) -> SimDuration {
        if run.is_empty() {
            return SimDuration::ZERO;
        }
        let mut remaining = run.len;
        let mut offset = run.offset;
        let mut total = SimDuration::ZERO;
        while remaining > 0 {
            let zone_index = self.config.zone_index_at(offset);
            let rate = self.config.zones[zone_index].transfer_rate;
            // Bytes until the next zone boundary (or the end of the disk).
            let zone_end = self
                .config
                .zones
                .get(zone_index + 1)
                .map(|z| (z.start_fraction * self.config.capacity_bytes as f64) as u64)
                .unwrap_or(u64::MAX);
            let available = zone_end.saturating_sub(offset).max(1);
            let chunk = remaining.min(available);
            total += SimDuration::from_secs_f64(chunk as f64 / rate);
            remaining -= chunk;
            offset += chunk;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskConfig;

    fn small_disk() -> Disk {
        Disk::new(DiskConfig::seagate_400gb_2005().scaled(4 * 1000 * 1000 * 1000))
    }

    #[test]
    fn sequential_stream_is_cheaper_than_scattered() {
        let mut disk = small_disk();
        let chunk = 64 * 1024u64;
        // Sequential: 64 chunks back to back.
        let sequential: SimDuration = (0..64)
            .map(|i| disk.service(&IoRequest::read(i * chunk, chunk)).total())
            .sum();
        // Scattered: same chunks, spread across a fresh disk.
        let mut disk = small_disk();
        let span = disk.config().capacity_bytes / 64;
        let scattered: SimDuration = (0..64)
            .map(|i| disk.service(&IoRequest::read(i * span, chunk)).total())
            .sum();
        assert!(
            scattered > sequential * 4,
            "scattered {scattered} should be far slower than sequential {sequential}"
        );
    }

    #[test]
    fn fragmented_request_costs_more_than_contiguous() {
        let disk = small_disk();
        let contiguous = disk.estimate(&IoRequest::read(0, 1024 * 1024));
        let capacity = disk.config().capacity_bytes;
        let fragmented = disk.estimate(&IoRequest::read_runs([
            ByteRun::new(0, 256 * 1024),
            ByteRun::new(capacity / 2, 256 * 1024),
            ByteRun::new(capacity / 4, 256 * 1024),
            ByteRun::new(3 * capacity / 4, 256 * 1024),
        ]));
        assert!(fragmented.total() > contiguous.total());
        assert!(fragmented.seek > contiguous.seek);
    }

    #[test]
    fn adjacent_segments_coalesce_into_one_transfer() {
        let mut disk = small_disk();
        let split = disk.estimate(&IoRequest::read_runs([
            ByteRun::new(0, 512 * 1024),
            ByteRun::new(512 * 1024, 512 * 1024),
        ]));
        let whole = disk.estimate(&IoRequest::read(0, 1024 * 1024));
        assert_eq!(split.total(), whole.total());
        // And servicing it counts a single segment.
        disk.service(&IoRequest::read_runs([
            ByteRun::new(0, 512 * 1024),
            ByteRun::new(512 * 1024, 512 * 1024),
        ]));
        assert_eq!(disk.stats().reads.segments, 1);
    }

    #[test]
    fn sequential_detection_skips_positioning() {
        let mut disk = small_disk();
        disk.service(&IoRequest::read(0, 64 * 1024));
        let second = disk.service(&IoRequest::read(64 * 1024, 64 * 1024));
        assert_eq!(second.seek, SimDuration::ZERO);
        assert_eq!(second.rotation, SimDuration::ZERO);
        assert_eq!(disk.stats().sequential_hits, 1);

        // Switching direction at the same offset is not sequential.
        let write_after_read = disk.service(&IoRequest::write(128 * 1024, 64 * 1024));
        assert!(write_after_read.rotation > SimDuration::ZERO);
    }

    #[test]
    fn outer_zone_transfers_faster_than_inner_zone() {
        let disk = small_disk();
        let len = 8 * 1024 * 1024u64;
        let capacity = disk.config().capacity_bytes;
        let outer = disk.estimate(&IoRequest::read(0, len));
        let inner = disk.estimate(&IoRequest::read(capacity - len, len));
        assert!(inner.transfer > outer.transfer);
    }

    #[test]
    fn clock_and_stats_accumulate() {
        let mut disk = small_disk();
        let a = disk.service(&IoRequest::write(0, 1024 * 1024));
        let b = disk.service(&IoRequest::read(
            disk.config().capacity_bytes / 2,
            1024 * 1024,
        ));
        assert_eq!(disk.elapsed(), a.total() + b.total());
        assert_eq!(disk.stats().writes.requests, 1);
        assert_eq!(disk.stats().reads.requests, 1);
        assert_eq!(disk.stats().total_bytes(), 2 * 1024 * 1024);
        disk.reset_measurements();
        assert_eq!(disk.elapsed(), SimDuration::ZERO);
        assert_eq!(disk.stats().total_requests(), 0);
    }

    #[test]
    fn empty_request_costs_only_overhead() {
        let mut disk = small_disk();
        let service = disk.service(&IoRequest::read_runs([]));
        assert_eq!(service.seek, SimDuration::ZERO);
        assert_eq!(service.transfer, SimDuration::ZERO);
        assert_eq!(service.overhead, disk.config().overhead.per_request);
        // The head must not move.
        assert_eq!(disk.head_position(), 0);
    }

    #[test]
    fn estimate_does_not_mutate() {
        let disk = small_disk();
        let before_head = disk.head_position();
        let before_elapsed = disk.elapsed();
        let _ = disk.estimate(&IoRequest::read(1024 * 1024, 1024));
        assert_eq!(disk.head_position(), before_head);
        assert_eq!(disk.elapsed(), before_elapsed);
        assert_eq!(disk.stats().total_requests(), 0);
    }
}
