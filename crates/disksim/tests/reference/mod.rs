//! Test-only reference model of the disk: the service-time computation as
//! it stood before `Disk::compute` merged adjacent runs inside its own loop
//! — the request's runs are first merged into a copy by the loop
//! `IoRequest::coalesced` ran before it collected [`lor_disksim::merged`]
//! ([`coalesce`], kept here so the reference merges on its own), then the
//! merged copy is costed segment by segment.  The per-segment mechanics
//! (seek curve, zone-integrated transfer, overheads) are the drive's own
//! [`DiskConfig`] methods, called here for every segment, where
//! `Disk` reads their values off caches built from them; what is modelled
//! here is the loop around them.
//!
//! `differential.rs` drives it in lock-step with the real
//! [`lor_disksim::Disk`] and demands the same [`ServiceTime`], head
//! position and statistics after every request, which is what "host-time
//! change only" means for the disk model.

use lor_disksim::{
    AccessKind, ByteRun, DiskConfig, DiskStats, IoRequest, ServiceTime, SimDuration,
};

/// `runs` with empty runs dropped and each run that begins where the one
/// before it ends folded into it, in order: a copy, merged one push at a
/// time.
pub fn coalesce(runs: &[ByteRun]) -> Vec<ByteRun> {
    let mut segments: Vec<ByteRun> = Vec::with_capacity(runs.len());
    for run in runs.iter().filter(|r| !r.is_empty()) {
        match segments.last_mut() {
            Some(last) if last.is_followed_by(run) => last.len += run.len,
            _ => segments.push(*run),
        }
    }
    segments
}

/// The disk, costing a coalesced copy of each request.
#[derive(Debug, Clone)]
pub struct RefDisk {
    config: DiskConfig,
    head: u64,
    last_transfer: Option<(u64, AccessKind)>,
    elapsed: SimDuration,
    stats: DiskStats,
}

impl RefDisk {
    pub fn new(config: DiskConfig) -> Self {
        RefDisk {
            config,
            head: 0,
            last_transfer: None,
            elapsed: SimDuration::ZERO,
            stats: DiskStats::default(),
        }
    }

    pub fn head_position(&self) -> u64 {
        self.head
    }

    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    pub fn estimate(&self, request: &IoRequest) -> ServiceTime {
        self.compute(request).0
    }

    pub fn service(&mut self, request: &IoRequest) -> ServiceTime {
        let (service, new_head, sequential_hit, segments) = self.compute(request);
        if let Some(end) = new_head {
            self.head = end;
            self.last_transfer = Some((end, request.kind));
        }
        self.elapsed += service.total();
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
        service
    }

    fn compute(&self, request: &IoRequest) -> (ServiceTime, Option<u64>, bool, u64) {
        let coalesced = coalesce(&request.segments);
        let segments = coalesced.len() as u64;
        let mut service = ServiceTime {
            overhead: self.config.request_overhead(segments),
            ..ServiceTime::default()
        };
        if segments == 0 {
            return (service, None, false, 0);
        }

        let mut head = self.head;
        let mut sequential_hit = false;
        for (index, segment) in coalesced.iter().enumerate() {
            let is_first = index == 0;
            let continues_stream = is_first
                && matches!(self.last_transfer, Some((end, kind)) if end == segment.offset && kind == request.kind);
            if continues_stream {
                sequential_hit = true;
            } else if head != segment.offset {
                service.seek += self.config.seek_between(head, segment.offset);
                service.rotation += self.config.average_rotational_latency();
            } else {
                service.rotation += self.config.rotation_time();
            }
            service.transfer += self.config.transfer_time(segment);
            head = segment.end();
        }
        (service, Some(head), sequential_hit, segments)
    }
}
