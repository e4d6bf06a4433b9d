//! Segment-log geometry and cleaner-selection configuration.

use lor_alloc::PlacementPolicy;

/// Default segment size: 4 MiB, a few dozen write requests — large enough
/// that appends stream, small enough that utilization varies per segment.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Smallest segment the constructor will shrink to for tiny test volumes.
pub const MIN_SEGMENT_BYTES: u64 = 64 * 1024;

/// How many segments [`LogConfig::new`] aims to fit on a volume at minimum
/// before it stops shrinking the segment size.
const MIN_SEGMENTS: u64 = 16;

/// How the cleaner picks its next victim segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CleanerSelector {
    /// Rosenblum-style cost-benefit: maximize `free · age / (1 + utilization)`.
    /// Age makes cold, moderately-dead segments eventually worth cleaning, so
    /// long-lived survivors get compacted instead of rotting in place.
    #[default]
    CostBenefit,
    /// Pick the lowest-utilization (most-dead) segment: the cheapest segment
    /// to free right now, blind to how long its survivors have been rotting.
    Greedy,
}

impl CleanerSelector {
    /// Both selectors, for sweeps and differential tests.
    pub const ALL: [CleanerSelector; 2] = [CleanerSelector::CostBenefit, CleanerSelector::Greedy];

    /// Short, stable name used in reports and figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            CleanerSelector::CostBenefit => "cost-benefit",
            CleanerSelector::Greedy => "greedy",
        }
    }
}

/// Geometry and policy of a [`crate::SegmentLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogConfig {
    /// Raw volume size in bytes.  A small slice (1/32, at least one segment)
    /// is reserved up front for the log's index and segment-usage table; the
    /// rest is data segments.
    pub capacity_bytes: u64,
    /// Fixed segment size in bytes.
    pub segment_bytes: u64,
    /// Where each consumer of free segments may draw from: the foreground
    /// head spills when its band is full, the cleaner's head refuses.
    pub placement: PlacementPolicy,
    /// Victim selection for both the background cleaner and the
    /// allocation-pressure emergency path.
    pub selector: CleanerSelector,
}

impl LogConfig {
    /// A log over `capacity_bytes` with the default segment size, shrunk in
    /// halves (down to [`MIN_SEGMENT_BYTES`]) until at least 16 segments fit,
    /// so small test volumes still exercise real segment turnover.
    pub fn new(capacity_bytes: u64) -> Self {
        let mut segment_bytes = DEFAULT_SEGMENT_BYTES;
        while segment_bytes > MIN_SEGMENT_BYTES && capacity_bytes / segment_bytes < MIN_SEGMENTS {
            segment_bytes /= 2;
        }
        LogConfig {
            capacity_bytes,
            segment_bytes,
            placement: PlacementPolicy::default(),
            selector: CleanerSelector::default(),
        }
    }

    /// Total segments the volume holds (metadata slice included).
    pub fn total_segments(&self) -> u64 {
        self.capacity_bytes / self.segment_bytes
    }

    /// Data segments: the total less the metadata slice (1/32 of the
    /// segments, at least one).
    pub fn data_segments(&self) -> u64 {
        let total = self.total_segments();
        total.saturating_sub((total / 32).max(1))
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.segment_bytes == 0 {
            return Err("segment size must be non-zero");
        }
        if self.total_segments() < 4 {
            return Err("volume must hold at least four segments");
        }
        self.placement.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_scales_down_for_small_volumes() {
        let paper = LogConfig::new(40 * 1024 * 1024 * 1024);
        assert_eq!(paper.segment_bytes, DEFAULT_SEGMENT_BYTES);
        assert!(paper.total_segments() > 10_000);

        let tiny = LogConfig::new(8 * 1024 * 1024);
        assert!(tiny.total_segments() >= MIN_SEGMENTS);
        assert!(tiny.segment_bytes >= MIN_SEGMENT_BYTES);
        assert!(tiny.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_geometry() {
        let mut config = LogConfig::new(64 * 1024 * 1024);
        config.segment_bytes = 0;
        assert!(config.validate().is_err());
        let mut config = LogConfig::new(64 * 1024 * 1024);
        config.segment_bytes = 32 * 1024 * 1024;
        assert!(config.validate().is_err());
    }

    #[test]
    fn selector_names_are_stable() {
        assert_eq!(CleanerSelector::CostBenefit.name(), "cost-benefit");
        assert_eq!(CleanerSelector::Greedy.name(), "greedy");
        assert_eq!(CleanerSelector::default(), CleanerSelector::CostBenefit);
    }
}
