//! The simulated drive: the paper's one testbed disk, as constants.
//!
//! The model is a single rotating disk with zoned bit recording (ZBR): the
//! outer zones hold more sectors per track and therefore transfer data faster
//! than the inner zones.  The paper's testbed (Table 1) used one Seagate
//! 400 GB 7200 rpm SATA drive (ST3400832AS); the constants below approximate
//! it, and every experiment runs on it.  A [`DiskConfig`] therefore carries
//! only a capacity: [`DiskConfig::seagate_400gb_2005`] is the whole drive and
//! [`DiskConfig::scaled`] a smaller one with identical relative behaviour, so
//! tests and CI-scale runs stay fast.  Changing any constant here moves every
//! recorded result.
//!
//! The formulas below are the one definition of the model.  [`crate::Disk`]
//! costs a segment from caches built from them: each zone's first offset
//! and end per capacity, and two process-wide tables (the seek curve's
//! square-root regime, and a zone's transfer time for every 4 KiB multiple
//! up to 256 KiB), each entry made by calling the formula it caches.

use crate::request::ByteRun;
use crate::time::{round_half_up, SimDuration};

/// The drive's name, as Table 1 prints it.
const MODEL: &str = "simulated Seagate ST3400832AS (400GB, 7200rpm SATA)";
/// Capacity of the whole drive in bytes.
const CAPACITY_BYTES: u64 = 400 * 1000 * 1000 * 1000;
/// Spindle speed in revolutions per minute.
const RPM: u32 = 7200;

/// Recording zones, each an equal share of the capacity, outermost first.
pub(crate) const ZONES: usize = 16;
/// Media transfer rate of the outermost zone, bytes per second; the rates
/// fall linearly from here to [`INNER_RATE`].
const OUTER_RATE: f64 = 65.0e6;
/// Media transfer rate of the innermost zone, bytes per second.
const INNER_RATE: f64 = 35.0e6;

// The seek curve, in the style of Ruemmler & Wilkes, over model cylinders:
// short seeks are dominated by head settling and grow with the square root
// of the distance, long seeks by the constant-velocity coast and grow
// linearly.  Tuned for ~0.8 ms track-to-track, ~8.5 ms average (one-third
// stroke) and ~18 ms full stroke, a 2005-era 7200 rpm drive.

/// Time for a minimal (single-cylinder) seek, seconds.
const TRACK_TO_TRACK: f64 = 0.0008;
/// Coefficient of the square-root term for short seeks, seconds per
/// sqrt(cylinder).
const SHORT_COEFFICIENT: f64 = 5.5e-5;
/// Distance (in cylinders) at which the curve turns linear.
pub(crate) const SHORT_CUTOFF_CYLINDERS: u64 = 12_000;
/// Constant offset of the linear regime, seconds.
const LONG_BASE: f64 = 0.0045;
/// Slope of the linear regime, seconds per cylinder.
const LONG_PER_CYLINDER: f64 = 1.35e-7;
/// Cylinders the model pretends the disk has; only the ratio of a seek
/// distance to this matters.
const CYLINDERS: u64 = 100_000;

/// Command processing and bus overhead per I/O request.
const PER_REQUEST: SimDuration = SimDuration::from_micros(200);
/// Scatter/gather bookkeeping for every discontiguous segment of a request
/// after the first.
const PER_EXTRA_SEGMENT: SimDuration = SimDuration::from_micros(50);

/// Seek time for a move of `distance` cylinders.
pub(crate) fn seek_time(distance: u64) -> SimDuration {
    if distance == 0 {
        return SimDuration::ZERO;
    }
    let secs = if distance <= SHORT_CUTOFF_CYLINDERS {
        TRACK_TO_TRACK + SHORT_COEFFICIENT * (distance as f64).sqrt()
    } else {
        LONG_BASE + LONG_PER_CYLINDER * distance as f64
    };
    SimDuration::from_secs_f64(secs)
}

/// Start of zone `index` as a fraction of the capacity.
fn zone_start(index: usize) -> f64 {
    index as f64 / ZONES as f64
}

/// Media transfer rate of zone `index`, bytes per second.
fn zone_rate(index: usize) -> f64 {
    let t = index as f64 / (ZONES - 1) as f64;
    OUTER_RATE + (INNER_RATE - OUTER_RATE) * t
}

/// Media transfer time of `bytes` inside zone `index`.
pub(crate) fn zone_transfer_time(index: usize, bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / zone_rate(index))
}

/// The simulated disk: the testbed drive, or a slice of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Usable capacity in bytes, at least one.
    capacity_bytes: u64,
}

impl DiskConfig {
    /// Approximation of the paper's Seagate ST3400832AS: 400 GB, 7200 rpm,
    /// media rate falling from 65 MB/s on the outer zones to 35 MB/s on the
    /// inner zones.
    pub fn seagate_400gb_2005() -> Self {
        DiskConfig {
            capacity_bytes: CAPACITY_BYTES,
        }
    }

    /// Derives a disk with the same timing behaviour but a different
    /// capacity (at least one byte).
    ///
    /// Zone boundaries and the seek curve are expressed fractionally, so a
    /// scaled disk behaves like a short-stroked version of the original: a
    /// given *fraction* of the capacity costs the same to cross.  This keeps
    /// scaled-down experiments comparable to full-size ones.
    pub fn scaled(&self, capacity_bytes: u64) -> Self {
        DiskConfig {
            capacity_bytes: capacity_bytes.max(1),
        }
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// The drive's name, for reports.
    pub fn model(&self) -> &'static str {
        MODEL
    }

    /// Spindle speed in revolutions per minute.
    pub fn rpm(&self) -> u32 {
        RPM
    }

    /// Time for one full platter revolution.
    pub fn rotation_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / RPM as f64)
    }

    /// Expected rotational latency for a random access (half a revolution).
    pub fn average_rotational_latency(&self) -> SimDuration {
        SimDuration::from_secs_f64(30.0 / RPM as f64)
    }

    /// Controller overhead of one request of `segments` discontiguous
    /// segments (a request of none still pays the command).
    pub fn request_overhead(&self, segments: u64) -> SimDuration {
        PER_REQUEST + PER_EXTRA_SEGMENT * segments.saturating_sub(1)
    }

    /// The media transfer rate (bytes/second) at a byte offset.
    pub fn transfer_rate_at(&self, offset: u64) -> f64 {
        zone_rate(self.zone_index_at(offset))
    }

    /// Index of the zone containing a byte offset.  Monotone in `offset`:
    /// every step (clamp, division by the capacity, scaling, truncation,
    /// `min`) is.
    pub(crate) fn zone_index_at(&self, offset: u64) -> usize {
        let fraction = offset.min(self.capacity_bytes) as f64 / self.capacity_bytes as f64;
        // Scaling by the power-of-two zone count is exact, so this is the
        // last zone whose start fraction is at most `fraction`.
        ((fraction * ZONES as f64) as usize).min(ZONES - 1)
    }

    /// Where [`DiskConfig::transfer_time`] ends a chunk in zone `zone`: the
    /// next zone's start fraction of the capacity, truncated, or the end of
    /// the address space for the last zone.  It need not be the first
    /// offset [`DiskConfig::zone_index_at`] puts in the next zone: rounding
    /// can put that a byte to either side (further on a disk too large for
    /// an `f64` to hold every offset), and the transfer loop then moves a
    /// one-byte chunk, or costs a byte of the next zone at this one's rate.
    pub(crate) fn zone_end(&self, zone: usize) -> u64 {
        if zone + 1 < ZONES {
            (zone_start(zone + 1) * self.capacity_bytes as f64) as u64
        } else {
            u64::MAX
        }
    }

    /// Media transfer time for one contiguous run, integrating across the
    /// zone boundaries it may straddle.
    pub fn transfer_time(&self, run: &ByteRun) -> SimDuration {
        let mut remaining = run.len;
        let mut offset = run.offset;
        let mut total = SimDuration::ZERO;
        while remaining > 0 {
            let zone = self.zone_index_at(offset);
            // Bytes until the next zone boundary (or the end of the disk).
            let chunk = remaining.min(self.zone_end(zone).saturating_sub(offset).max(1));
            total += zone_transfer_time(zone, chunk);
            remaining -= chunk;
            offset += chunk;
        }
        total
    }

    /// Seek time between two byte offsets.
    pub fn seek_between(&self, from: u64, to: u64) -> SimDuration {
        seek_time(self.seek_distance(from, to))
    }

    /// Model cylinders between two byte offsets.
    pub(crate) fn seek_distance(&self, from: u64, to: u64) -> u64 {
        self.cylinder_of(from).abs_diff(self.cylinder_of(to))
    }

    /// Estimated time for a background copy of `bytes` that repositions the
    /// head `repositions` times (e.g. once to read a fragment's source and
    /// once to write its destination).
    ///
    /// Background maintenance (defragmentation moves, table rebuilds, ghost
    /// cleanup sweeps) streams data at the mid-platter transfer rate and pays
    /// an average positioning delay — a one-third-stroke seek plus half a
    /// rotation — per reposition.  Both object stores and the `lor-maint`
    /// scheduler cost their background I/O with this one helper so foreground
    /// and background work share a single mechanical model.
    pub fn background_copy_time(&self, bytes: u64, repositions: u64) -> SimDuration {
        let rate = self.transfer_rate_at(self.capacity_bytes / 2);
        let streaming = SimDuration::from_secs_f64(bytes as f64 / rate);
        let positioning =
            (seek_time(CYLINDERS / 3) + self.average_rotational_latency()) * repositions;
        streaming + positioning
    }

    /// Converts a byte offset into a model cylinder number for the seek curve.
    fn cylinder_of(&self, offset: u64) -> u64 {
        let fraction = offset.min(self.capacity_bytes) as f64 / self.capacity_bytes as f64;
        round_half_up(fraction * (CYLINDERS - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_valid() {
        let config = DiskConfig::seagate_400gb_2005();
        assert_eq!(config.capacity_bytes(), 400 * 1000 * 1000 * 1000);
        assert_eq!(config.rpm(), 7200);
        assert_eq!(config.zone_index_at(config.capacity_bytes()), 15);
    }

    #[test]
    fn rotation_times_match_7200rpm() {
        let config = DiskConfig::seagate_400gb_2005();
        assert!((config.rotation_time().as_millis_f64() - 8.333).abs() < 0.01);
        assert!((config.average_rotational_latency().as_millis_f64() - 4.167).abs() < 0.01);
    }

    #[test]
    fn transfer_rate_decreases_toward_inner_zones() {
        let config = DiskConfig::seagate_400gb_2005();
        let outer = config.transfer_rate_at(0);
        let middle = config.transfer_rate_at(config.capacity_bytes / 2);
        let inner = config.transfer_rate_at(config.capacity_bytes - 1);
        assert!(outer > middle);
        assert!(middle > inner);
        assert!((outer - 65.0e6).abs() < 1e-3);
        assert!((config.transfer_rate_at(config.capacity_bytes) - 35.0e6).abs() < 1e-3);
    }

    #[test]
    fn background_copy_time_scales_with_bytes_and_repositions() {
        let config = DiskConfig::seagate_400gb_2005();
        let small = config.background_copy_time(1 << 20, 2);
        let more_bytes = config.background_copy_time(16 << 20, 2);
        let more_seeks = config.background_copy_time(1 << 20, 8);
        assert!(more_bytes > small);
        assert!(more_seeks > small);
        // Positioning alone: at least one reposition's worth of latency.
        assert!(config.background_copy_time(0, 1) >= config.average_rotational_latency());
        assert_eq!(config.background_copy_time(0, 0), SimDuration::ZERO);
    }

    #[test]
    fn zone_index_is_monotonic() {
        let config = DiskConfig::seagate_400gb_2005();
        let mut last = 0;
        for i in 0..=100 {
            let offset = config.capacity_bytes / 100 * i;
            let zone = config.zone_index_at(offset);
            assert!(zone >= last);
            last = zone;
        }
        assert_eq!(config.zone_index_at(0), 0);
        assert_eq!(config.zone_index_at(config.capacity_bytes), ZONES - 1);
    }

    #[test]
    fn seek_profile_has_expected_shape() {
        assert_eq!(seek_time(0), SimDuration::ZERO);
        let single = seek_time(1).as_millis_f64();
        assert!(single > 0.5 && single < 1.5, "track-to-track {single} ms");
        let average = seek_time(CYLINDERS / 3).as_millis_f64();
        assert!(average > 6.0 && average < 11.0, "average seek {average} ms");
        let full = seek_time(CYLINDERS - 1).as_millis_f64();
        assert!(full > 15.0 && full < 22.0, "full stroke {full} ms");
        // Monotonic in distance.
        let mut prev = SimDuration::ZERO;
        for d in (0..CYLINDERS).step_by(5_000) {
            let t = seek_time(d);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn scaled_disk_keeps_relative_behaviour() {
        let full = DiskConfig::seagate_400gb_2005();
        let small = full.scaled(40 * 1000 * 1000 * 1000);
        // Same relative position -> same zone/transfer rate.
        assert_eq!(
            small.transfer_rate_at(small.capacity_bytes / 4),
            full.transfer_rate_at(full.capacity_bytes / 4)
        );
        // Same relative distance -> same cylinder count -> same seek time.
        assert_eq!(
            small.cylinder_of(small.capacity_bytes / 2),
            full.cylinder_of(full.capacity_bytes / 2)
        );
    }
}
