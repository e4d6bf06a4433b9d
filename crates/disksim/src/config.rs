//! Disk configuration: geometry, zone table and seek profile.
//!
//! The model is a single rotating disk with zoned bit recording (ZBR): the
//! outer zones hold more sectors per track and therefore transfer data faster
//! than the inner zones.  The paper's testbed (Table 1) used Seagate 400 GB
//! 7200 rpm SATA drives (ST3400832AS); [`DiskConfig::seagate_400gb_2005`]
//! approximates that drive, and [`DiskConfig::scaled`] derives smaller disks
//! with identical relative behaviour so tests and CI-scale benches run fast.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Transfer-rate description of one recording zone.
///
/// A zone covers a contiguous range of the logical byte space.  Ranges are
/// expressed as fractions of the total capacity so the same zone table can be
/// reused for scaled-down disks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneSpec {
    /// Start of the zone as a fraction of total capacity (`0.0 ..= 1.0`).
    pub start_fraction: f64,
    /// Media transfer rate within the zone, in bytes per second.
    pub transfer_rate: f64,
}

/// Piecewise seek-time curve in the style of Ruemmler & Wilkes.
///
/// Seek time is modelled as a function of seek distance expressed in
/// cylinders.  Short seeks are dominated by head settling and grow with the
/// square root of the distance; long seeks are dominated by the constant-
/// velocity coast and grow linearly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeekProfile {
    /// Time for a minimal (single-cylinder) seek, seconds.
    pub track_to_track: f64,
    /// Coefficient of the square-root term for short seeks, seconds per
    /// sqrt(cylinder).
    pub short_coefficient: f64,
    /// Distance (in cylinders) at which the model switches from the
    /// square-root regime to the linear regime.
    pub short_cutoff_cylinders: u64,
    /// Constant offset of the linear regime, seconds.
    pub long_base: f64,
    /// Slope of the linear regime, seconds per cylinder.
    pub long_per_cylinder: f64,
    /// Number of cylinders the model pretends the disk has.  Only the ratio
    /// of the seek distance to this value matters for upper layers.
    pub cylinders: u64,
}

impl SeekProfile {
    /// Seek time for a move of `distance` cylinders.
    pub fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let secs = if distance <= self.short_cutoff_cylinders {
            self.track_to_track + self.short_coefficient * (distance as f64).sqrt()
        } else {
            self.long_base + self.long_per_cylinder * distance as f64
        };
        SimDuration::from_secs_f64(secs)
    }

    /// A profile approximating a 2005-era 7200 rpm desktop/nearline drive:
    /// ~0.8 ms track-to-track, ~8.5 ms average seek, ~18 ms full stroke.
    pub fn desktop_7200rpm_2005() -> Self {
        // With 100_000 model cylinders:
        //   short regime (d <= 12_000): 0.0008 + 6.0e-5 * sqrt(d)
        //     d = 12_000  -> 0.0008 + 6.0e-5*109.5 ≈ 7.4 ms
        //   long regime: 0.0068 + 1.12e-7 * d
        //     d = 12_000  -> 8.1 ms (continuous-ish at the cutoff)
        //     d = 33_000 (avg random seek ≈ 1/3 stroke) -> 10.5 ms... too high.
        // Tuned instead for avg(1/3 stroke) ≈ 8.5ms and full ≈ 18ms:
        SeekProfile {
            track_to_track: 0.0008,
            short_coefficient: 5.5e-5,
            short_cutoff_cylinders: 12_000,
            long_base: 0.0045,
            long_per_cylinder: 1.35e-7,
            cylinders: 100_000,
        }
    }
}

/// Host/controller fixed overheads charged per request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadProfile {
    /// Command processing and bus overhead per I/O request.
    pub per_request: SimDuration,
    /// Additional cost charged for every discontiguous segment after the
    /// first within one request (scatter/gather bookkeeping).
    pub per_extra_segment: SimDuration,
}

impl Default for OverheadProfile {
    fn default() -> Self {
        OverheadProfile {
            per_request: SimDuration::from_micros(200),
            per_extra_segment: SimDuration::from_micros(50),
        }
    }
}

/// Complete description of the simulated disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskConfig {
    /// Human-readable model name, used in reports.
    pub model: String,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Recording zones ordered by increasing `start_fraction`.  The first
    /// entry must start at `0.0`.
    pub zones: Vec<ZoneSpec>,
    /// Seek-time curve.
    pub seek: SeekProfile,
    /// Fixed per-request overheads.
    pub overhead: OverheadProfile,
    /// Whether an access that starts exactly where the previous one ended is
    /// treated as sequential (no seek, no rotational delay).
    pub sequential_detection: bool,
}

impl DiskConfig {
    /// Approximation of the paper's Seagate ST3400832AS: 400 GB, 7200 rpm,
    /// media rate falling from ≈ 65 MB/s on the outer zones to ≈ 35 MB/s on
    /// the inner zones.
    pub fn seagate_400gb_2005() -> Self {
        DiskConfig {
            model: "simulated Seagate ST3400832AS (400GB, 7200rpm SATA)".to_string(),
            capacity_bytes: 400 * 1000 * 1000 * 1000,
            rpm: 7200,
            zones: Self::linear_zone_table(16, 65.0e6, 35.0e6),
            seek: SeekProfile::desktop_7200rpm_2005(),
            overhead: OverheadProfile::default(),
            sequential_detection: true,
        }
    }

    /// Derives a disk with the same timing behaviour but a different capacity.
    ///
    /// Zone boundaries and the seek curve are expressed fractionally, so a
    /// scaled disk behaves like a short-stroked version of the original: a
    /// given *fraction* of the capacity costs the same to cross.  This keeps
    /// scaled-down experiments comparable to full-size ones.
    pub fn scaled(&self, capacity_bytes: u64) -> Self {
        let mut config = self.clone();
        config.capacity_bytes = capacity_bytes.max(1);
        config.model = format!("{} (scaled to {} bytes)", self.model, config.capacity_bytes);
        config
    }

    /// Builds a zone table of `count` zones whose transfer rates fall
    /// linearly from `outer_rate` to `inner_rate` (bytes/second).
    pub fn linear_zone_table(count: usize, outer_rate: f64, inner_rate: f64) -> Vec<ZoneSpec> {
        let count = count.max(1);
        (0..count)
            .map(|i| {
                let t = if count == 1 {
                    0.0
                } else {
                    i as f64 / (count - 1) as f64
                };
                ZoneSpec {
                    start_fraction: i as f64 / count as f64,
                    transfer_rate: outer_rate + (inner_rate - outer_rate) * t,
                }
            })
            .collect()
    }

    /// Time for one full platter revolution.
    pub fn rotation_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.rpm as f64)
    }

    /// Expected rotational latency for a random access (half a revolution).
    pub fn average_rotational_latency(&self) -> SimDuration {
        SimDuration::from_secs_f64(30.0 / self.rpm as f64)
    }

    /// The transfer rate (bytes/second) at a given byte offset: the rate of
    /// [`DiskConfig::zone_index_at`]'s zone, or 50 MB/s with no zone table.
    pub fn transfer_rate_at(&self, offset: u64) -> f64 {
        self.zones
            .get(self.zone_index_at(offset))
            .map_or(50.0e6, |zone| zone.transfer_rate)
    }

    /// Index of the zone containing a byte offset.
    pub fn zone_index_at(&self, offset: u64) -> usize {
        let fraction = if self.capacity_bytes == 0 {
            0.0
        } else {
            (offset.min(self.capacity_bytes) as f64) / self.capacity_bytes as f64
        };
        let mut index = 0;
        for (i, zone) in self.zones.iter().enumerate() {
            if fraction >= zone.start_fraction {
                index = i;
            } else {
                break;
            }
        }
        index
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
        let positioning = (self.seek.seek_time(self.seek.cylinders / 3)
            + self.average_rotational_latency())
            * repositions;
        streaming + positioning
    }

    /// Converts a byte offset into a model cylinder number for the seek curve.
    pub fn cylinder_of(&self, offset: u64) -> u64 {
        if self.capacity_bytes == 0 {
            return 0;
        }
        let fraction = offset.min(self.capacity_bytes) as f64 / self.capacity_bytes as f64;
        let cyl = fraction * (self.seek.cylinders.saturating_sub(1)) as f64;
        cyl.round() as u64
    }

    /// Validates internal consistency (zone ordering, capacity, rpm).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity_bytes == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if self.rpm == 0 {
            return Err(ConfigError::ZeroRpm);
        }
        if self.zones.is_empty() {
            return Err(ConfigError::NoZones);
        }
        if self.zones[0].start_fraction != 0.0 {
            return Err(ConfigError::FirstZoneNotAtStart);
        }
        let mut prev = -1.0;
        for zone in &self.zones {
            if !(0.0..=1.0).contains(&zone.start_fraction) || zone.start_fraction <= prev {
                return Err(ConfigError::ZoneOrder);
            }
            if zone.transfer_rate <= 0.0 || !zone.transfer_rate.is_finite() {
                return Err(ConfigError::BadTransferRate);
            }
            prev = zone.start_fraction;
        }
        Ok(())
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::seagate_400gb_2005()
    }
}

/// Errors produced by [`DiskConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Capacity must be non-zero.
    ZeroCapacity,
    /// Spindle speed must be non-zero.
    ZeroRpm,
    /// At least one recording zone is required.
    NoZones,
    /// The first zone must start at fraction 0.0.
    FirstZoneNotAtStart,
    /// Zones must be sorted by strictly increasing start fraction in `[0, 1]`.
    ZoneOrder,
    /// Transfer rates must be positive and finite.
    BadTransferRate,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::ZeroCapacity => "disk capacity must be non-zero",
            ConfigError::ZeroRpm => "disk rpm must be non-zero",
            ConfigError::NoZones => "disk must define at least one zone",
            ConfigError::FirstZoneNotAtStart => "first zone must start at fraction 0.0",
            ConfigError::ZoneOrder => {
                "zones must be sorted by increasing start fraction within [0, 1]"
            }
            ConfigError::BadTransferRate => "zone transfer rates must be positive and finite",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_valid() {
        let config = DiskConfig::seagate_400gb_2005();
        assert!(config.validate().is_ok());
        assert_eq!(config.rpm, 7200);
        assert_eq!(config.zones.len(), 16);
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
        assert_eq!(
            config.zone_index_at(config.capacity_bytes),
            config.zones.len() - 1
        );
    }

    #[test]
    fn seek_profile_has_expected_shape() {
        let seek = SeekProfile::desktop_7200rpm_2005();
        assert_eq!(seek.seek_time(0), SimDuration::ZERO);
        let single = seek.seek_time(1).as_millis_f64();
        assert!(single > 0.5 && single < 1.5, "track-to-track {single} ms");
        let average = seek.seek_time(seek.cylinders / 3).as_millis_f64();
        assert!(average > 6.0 && average < 11.0, "average seek {average} ms");
        let full = seek.seek_time(seek.cylinders - 1).as_millis_f64();
        assert!(full > 15.0 && full < 22.0, "full stroke {full} ms");
        // Monotonic in distance.
        let mut prev = SimDuration::ZERO;
        for d in (0..seek.cylinders).step_by(5_000) {
            let t = seek.seek_time(d);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn scaled_disk_keeps_relative_behaviour() {
        let full = DiskConfig::seagate_400gb_2005();
        let small = full.scaled(40 * 1000 * 1000 * 1000);
        assert!(small.validate().is_ok());
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

    #[test]
    fn validation_catches_bad_configs() {
        let mut config = DiskConfig::seagate_400gb_2005();
        config.capacity_bytes = 0;
        assert_eq!(config.validate(), Err(ConfigError::ZeroCapacity));

        let mut config = DiskConfig::seagate_400gb_2005();
        config.zones.clear();
        assert_eq!(config.validate(), Err(ConfigError::NoZones));

        let mut config = DiskConfig::seagate_400gb_2005();
        config.zones[0].start_fraction = 0.1;
        assert_eq!(config.validate(), Err(ConfigError::FirstZoneNotAtStart));

        let mut config = DiskConfig::seagate_400gb_2005();
        config.zones[3].transfer_rate = -5.0;
        assert_eq!(config.validate(), Err(ConfigError::BadTransferRate));

        let mut config = DiskConfig::seagate_400gb_2005();
        config.zones[2].start_fraction = config.zones[1].start_fraction;
        assert_eq!(config.validate(), Err(ConfigError::ZoneOrder));
    }

    #[test]
    fn linear_zone_table_single_zone() {
        let zones = DiskConfig::linear_zone_table(1, 60.0e6, 30.0e6);
        assert_eq!(zones.len(), 1);
        assert_eq!(zones[0].start_fraction, 0.0);
        assert_eq!(zones[0].transfer_rate, 60.0e6);
    }
}
