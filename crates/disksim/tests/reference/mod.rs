//! Test-only reference model of the disk: the service-time computation as
//! it stood before `Disk::compute` merged adjacent runs inside its own loop
//! — the request is first cloned through [`IoRequest::coalesced`], then the
//! merged copy is costed segment by segment.
//!
//! `differential.rs` drives it in lock-step with the real
//! [`lor_disksim::Disk`] and demands the same [`ServiceTime`], head
//! position and statistics after every request, which is what "host-time
//! change only" means for the disk model.

use lor_disksim::{
    AccessKind, ByteRun, DiskConfig, DiskStats, IoRequest, ServiceTime, SimDuration,
};

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
        config.validate().expect("disk configuration must be valid");
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
        let coalesced = request.coalesced();
        if coalesced.segments.is_empty() {
            let service = ServiceTime {
                overhead: self.config.overhead.per_request,
                ..ServiceTime::default()
            };
            return (service, None, false, 0);
        }

        let mut service = ServiceTime {
            overhead: self.config.overhead.per_request,
            ..Default::default()
        };
        let extra_segments = (coalesced.segments.len() as u64).saturating_sub(1);
        service.overhead += self.config.overhead.per_extra_segment * extra_segments;

        let mut head = self.head;
        let mut sequential_hit = false;
        for (index, segment) in coalesced.segments.iter().enumerate() {
            let is_first = index == 0;
            let continues_stream = is_first
                && self.config.sequential_detection
                && matches!(self.last_transfer, Some((end, kind)) if end == segment.offset && kind == request.kind);
            if continues_stream {
                sequential_hit = true;
            } else if head != segment.offset {
                service.seek += self.seek_between(head, segment.offset);
                service.rotation += self.config.average_rotational_latency();
            } else {
                service.rotation += self.config.rotation_time();
            }
            service.transfer += self.transfer_time(segment);
            head = segment.end();
        }

        let segments = coalesced.segments.len() as u64;
        (service, Some(head), sequential_hit, segments)
    }

    fn seek_between(&self, from: u64, to: u64) -> SimDuration {
        let from_cyl = self.config.cylinder_of(from);
        let to_cyl = self.config.cylinder_of(to);
        self.config.seek.seek_time(from_cyl.abs_diff(to_cyl))
    }

    fn transfer_time(&self, run: &ByteRun) -> SimDuration {
        let mut remaining = run.len;
        let mut offset = run.offset;
        let mut total = SimDuration::ZERO;
        while remaining > 0 {
            let zone_index = self.config.zone_index_at(offset);
            let rate = self.config.zones[zone_index].transfer_rate;
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
