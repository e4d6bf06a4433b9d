//! Running statistics collected by the disk model.

use crate::request::AccessKind;
use crate::time::SimDuration;

/// Counters for one access direction (reads or writes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DirectionStats {
    /// Number of requests serviced.
    pub requests: u64,
    /// Number of physically discontiguous segments serviced.
    pub segments: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Time spent seeking.
    pub seek_time: SimDuration,
    /// Time spent waiting for rotation.
    pub rotation_time: SimDuration,
    /// Time spent transferring data.
    pub transfer_time: SimDuration,
    /// Fixed command overheads.
    pub overhead_time: SimDuration,
}

impl DirectionStats {
    /// Total time attributed to this direction.
    pub fn total_time(&self) -> SimDuration {
        self.seek_time + self.rotation_time + self.transfer_time + self.overhead_time
    }

    /// Achieved throughput in bytes per second.
    pub fn throughput_bytes_per_sec(&self) -> f64 {
        crate::time::throughput_bytes_per_sec(self.bytes, self.total_time())
    }
}

/// Aggregate statistics for a [`crate::Disk`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    /// Statistics for read requests.
    pub reads: DirectionStats,
    /// Statistics for write requests.
    pub writes: DirectionStats,
    /// Number of requests recognised as fully sequential with their
    /// predecessor (no mechanical positioning charged for the first segment).
    pub sequential_hits: u64,
}

impl DiskStats {
    /// The per-direction counters for `kind`.
    pub fn direction(&self, kind: AccessKind) -> &DirectionStats {
        match kind {
            AccessKind::Read => &self.reads,
            AccessKind::Write => &self.writes,
        }
    }

    /// Mutable access to the per-direction counters for `kind`.
    pub fn direction_mut(&mut self, kind: AccessKind) -> &mut DirectionStats {
        match kind {
            AccessKind::Read => &mut self.reads,
            AccessKind::Write => &mut self.writes,
        }
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.reads.bytes + self.writes.bytes
    }

    /// Total busy time of the disk.
    pub fn total_time(&self) -> SimDuration {
        self.reads.total_time() + self.writes.total_time()
    }

    /// Total number of requests serviced.
    pub fn total_requests(&self) -> u64 {
        self.reads.requests + self.writes.requests
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = DiskStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_accessors_route_correctly() {
        let mut stats = DiskStats::default();
        stats.direction_mut(AccessKind::Read).requests = 3;
        stats.direction_mut(AccessKind::Write).requests = 5;
        assert_eq!(stats.direction(AccessKind::Read).requests, 3);
        assert_eq!(stats.direction(AccessKind::Write).requests, 5);
        assert_eq!(stats.total_requests(), 8);
    }

    #[test]
    fn totals_and_averages() {
        let mut stats = DiskStats::default();
        {
            let reads = stats.direction_mut(AccessKind::Read);
            reads.requests = 2;
            reads.segments = 6;
            reads.bytes = 2_000_000;
            reads.transfer_time = SimDuration::from_secs(1);
        }
        assert_eq!(stats.total_bytes(), 2_000_000);
        assert!((stats.reads.throughput_bytes_per_sec() - 2_000_000.0).abs() < 1e-6);
        stats.reset();
        assert_eq!(stats, DiskStats::default());
    }
}
