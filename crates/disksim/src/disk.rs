//! The disk service-time model itself.
//!
//! [`Disk`] deterministically converts [`IoRequest`]s into a
//! [`ServiceTime`] breakdown (seek + rotation + transfer + overhead),
//! tracking head position between requests so that sequential streams are
//! rewarded and scattered layouts pay one mechanical positioning delay per
//! fragment — exactly the cost structure that makes fragmentation matter in
//! the paper.

use lor_obs::{Obs, Track};

use crate::config::DiskConfig;
use crate::memo::{cached_seek_time, cached_transfer_time, Zones};
use crate::request::{merged, AccessKind, ByteRun, IoRequest};
use crate::stats::DiskStats;
use crate::time::{SimClock, SimDuration};

/// Breakdown of the time needed to service one request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
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

/// What one request cost and what it moved: [`Disk::serve`]'s answer,
/// from its one walk over the runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// The service time breakdown.
    pub time: ServiceTime,
    /// Bytes transferred ([`IoRequest::total_bytes`]).
    pub bytes: u64,
    /// Segments the disk saw: the merged ones ([`crate::merged`]).
    pub segments: u64,
}

/// Deterministic single-spindle disk model.
///
/// The disk keeps its head position and an internal clock.  Every call to
/// [`Disk::serve`] (or [`Disk::service`]) advances the clock by the
/// computed service time, charges the statistics counters, and leaves the
/// head at the end of the last segment transferred.
#[derive(Debug, Clone)]
pub struct Disk {
    config: DiskConfig,
    /// The capacity's zone boundaries, for costing a transfer without a
    /// division (`None` past the capacities `memo.rs` interns).  A
    /// reference to static storage, so a disk is no larger for it.
    zones: Option<&'static Zones>,
    /// Current head position as a byte offset.
    head: u64,
    /// Kind of the most recent transfer, which ended at `head`; used for
    /// sequential detection.
    last_kind: Option<AccessKind>,
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
    /// Creates a disk, head at offset 0.
    pub fn new(config: DiskConfig) -> Self {
        Disk {
            config,
            zones: Zones::interned(&config),
            head: 0,
            last_kind: None,
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
        self.compute(request.kind, &request.segments).0.time
    }

    /// Services `request`: computes its cost, advances the clock, updates the
    /// statistics and the head position, and returns the cost breakdown.
    pub fn service(&mut self, request: &IoRequest) -> ServiceTime {
        self.serve(request.kind, &request.segments).time
    }

    /// Services a request of `kind` over `runs` (what [`Disk::service`]
    /// does for an [`IoRequest`] of them) and returns its cost with the
    /// bytes and merged segments it moved, all from one walk of the runs.
    pub fn serve(&mut self, kind: AccessKind, runs: &[ByteRun]) -> Served {
        let (served, new_head, sequential_hit) = self.compute(kind, runs);
        let service = served.time;
        if let Some(end) = new_head {
            self.head = end;
            self.last_kind = Some(kind);
        }
        self.clock.advance(service.total());
        let direction = self.stats.direction_mut(kind);
        direction.requests += 1;
        direction.segments += served.segments;
        direction.bytes += served.bytes;
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
                kind.name(),
                start,
                dur,
                &[
                    ("consumer", self.obs_consumer.into()),
                    ("bytes", served.bytes.into()),
                    ("segments", served.segments.into()),
                    ("seek_ms", service.seek.as_millis_f64().into()),
                    ("rotation_ms", service.rotation.as_millis_f64().into()),
                    ("transfer_ms", service.transfer.as_millis_f64().into()),
                    ("overhead_ms", service.overhead.as_millis_f64().into()),
                ],
            );
            self.trace_cursor = start + dur;
        }
        served
    }

    /// Core cost computation shared by [`Disk::estimate`] and
    /// [`Disk::serve`]: one walk over the runs.
    ///
    /// Returns `(served, new_head_position, sequential_hit)`.  The segments
    /// charged are the *merged* ones ([`crate::merged`]), so
    /// costing a request copies nothing.  Each is costed with the
    /// [`DiskConfig`] formulas, through their caches (`memo.rs`).
    fn compute(&self, kind: AccessKind, runs: &[ByteRun]) -> (Served, Option<u64>, bool) {
        let mut service = ServiceTime::default();
        let mut head = self.head;
        let mut sequential_hit = false;
        let mut segments = 0u64;
        let mut bytes = 0u64;
        for segment in merged(runs) {
            let continues_stream =
                segments == 0 && self.last_kind == Some(kind) && self.head == segment.offset;
            if continues_stream {
                // The head is already positioned at the start of this run and
                // the platter is rotating underneath it: pure media transfer.
                sequential_hit = true;
            } else if head != segment.offset {
                service.seek += cached_seek_time(self.config.seek_distance(head, segment.offset));
                service.rotation += self.config.average_rotational_latency();
            } else {
                // Same byte offset but not a detected continuation (e.g. a
                // re-read of the block just written): the platter has rotated
                // away, so charge a full revolution to come back around.
                service.rotation += self.config.rotation_time();
            }
            service.transfer += self.transfer_time(segment);
            head = segment.end();
            segments += 1;
            bytes += segment.len;
        }
        // A zero-byte request still costs the command overhead; this models
        // metadata-only operations issued through the same path.
        service.overhead = self.config.request_overhead(segments);
        let new_head = (segments > 0).then_some(head);
        let served = Served {
            time: service,
            bytes,
            segments,
        };
        (served, new_head, sequential_hit)
    }

    /// [`DiskConfig::transfer_time`], step for step, with the zone and its
    /// end read off [`Zones`] and each chunk's time off the transfer table.
    fn transfer_time(&self, run: ByteRun) -> SimDuration {
        let Some(zones) = self.zones else {
            return self.config.transfer_time(&run);
        };
        let mut remaining = run.len;
        let mut offset = run.offset;
        let mut total = SimDuration::ZERO;
        while remaining > 0 {
            let zone = zones.index_at(offset);
            let chunk = remaining.min(zones.end(zone).saturating_sub(offset).max(1));
            total += cached_transfer_time(zone, chunk);
            remaining -= chunk;
            offset += chunk;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let span = disk.config().capacity_bytes() / 64;
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
        let capacity = disk.config().capacity_bytes();
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
        let capacity = disk.config().capacity_bytes();
        let outer = disk.estimate(&IoRequest::read(0, len));
        let inner = disk.estimate(&IoRequest::read(capacity - len, len));
        assert!(inner.transfer > outer.transfer);
    }

    #[test]
    fn clock_and_stats_accumulate() {
        let mut disk = small_disk();
        let a = disk.service(&IoRequest::write(0, 1024 * 1024));
        let b = disk.service(&IoRequest::read(
            disk.config().capacity_bytes() / 2,
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
        assert_eq!(service.overhead, disk.config().request_overhead(0));
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

    /// A disk is no larger than before it kept zone boundaries: the live
    /// heap of every store holds one.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_disk_stays_192_bytes() {
        assert_eq!(std::mem::size_of::<Disk>(), 192);
    }

    /// Once every interned slot holds another capacity, a disk costs its
    /// transfers with the formula itself, to the same nanosecond.
    #[test]
    fn a_disk_past_the_interned_capacities_costs_the_same() {
        let full = DiskConfig::seagate_400gb_2005();
        let capacities = (0..80u64).map(|i| 3_000_000_007 + i * 1_000_003);
        let disks: Vec<Disk> = capacities.map(|c| Disk::new(full.scaled(c))).collect();
        let last = disks.last().unwrap();
        assert!(last.zones.is_none(), "80 capacities fill the slots");
        for disk in [&disks[0], last] {
            let config = disk.config();
            let capacity = config.capacity_bytes();
            for offset in [
                0,
                capacity / 16 - 1,
                capacity / 2,
                capacity - 5,
                capacity + 5,
            ] {
                for len in [1, 4096, 65_536, 300_000, capacity / 8] {
                    let run = ByteRun::new(offset, len);
                    assert_eq!(disk.transfer_time(run), config.transfer_time(&run));
                }
            }
        }
    }

    /// Nothing validates a capacity any more: `scaled` clamps it to one byte,
    /// and a disk that small still serves requests, past its end included.
    #[test]
    fn a_disk_scaled_to_zero_bytes_still_serves_requests() {
        let mut disk = Disk::new(DiskConfig::seagate_400gb_2005().scaled(0));
        assert_eq!(disk.config().capacity_bytes(), 1);
        let read = disk.service(&IoRequest::read(0, 64 * 1024));
        let write = disk.service(&IoRequest::write(1 << 20, 64 * 1024));
        for service in [read, write] {
            assert!(service.transfer > SimDuration::ZERO);
            assert!(service.total() > SimDuration::ZERO);
        }
        assert_eq!(disk.stats().total_requests(), 2);
        assert_eq!(disk.elapsed(), read.total() + write.total());
    }
}
