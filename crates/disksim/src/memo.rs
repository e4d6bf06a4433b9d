//! Caches of the drive's formulas, so that [`crate::Disk`] costs a segment
//! without a zone division, a page-transfer division or a square root.
//!
//! Each cache is built by calling the formula it stands for
//! ([`DiskConfig::zone_index_at`], [`DiskConfig::zone_end`],
//! [`zone_transfer_time`], [`seek_time`]), so a cached value is the
//! formula's value bit for bit; `tests/differential.rs` costs every request
//! both ways.  Everything lives in `static` storage, built once per process
//! on first use: the two tables (≈ 0.1 MB), and the zone boundaries of up
//! to [`INTERNED`] capacities, which a disk refers to (≈ 17 KB).  Nothing
//! is on the heap, and a disk is no larger than before.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Once, OnceLock};

use crate::config::{seek_time, zone_transfer_time, DiskConfig, SHORT_CUTOFF_CYLINDERS, ZONES};
use crate::time::SimDuration;

/// Seek distances the seek table covers: the square-root regime, 0 to
/// [`SHORT_CUTOFF_CYLINDERS`] cylinders.
const SEEKS: usize = SHORT_CUTOFF_CYLINDERS as usize + 1;

/// The transfer table's step: a page and a cluster are 4 KiB, and every
/// substrate moves whole ones.
const TRANSFER_STEP: u64 = 4096;

/// Transfer lengths the table covers per zone: 4 KiB to 256 KiB.
const TRANSFER_STEPS: usize = 64;

/// `seek_time(d)` at index `d`.
static SEEK_TABLE: Table<SEEKS> = Table::new();

/// `zone_transfer_time(zone, (i + 1) · 4 KiB)` at `zone · 64 + i`.
static TRANSFER_TABLE: Table<{ ZONES * TRANSFER_STEPS }> = Table::new();

/// Capacities whose zone boundaries are interned.  A run of the benchmark
/// or a figure uses a handful; a disk of any further capacity costs its
/// transfers with [`DiskConfig::transfer_time`] itself.
const INTERNED: usize = 64;

/// The interned zone boundaries, each slot filled once, first come.
static ZONE_TABLES: [OnceLock<Zones>; INTERNED] = [const { OnceLock::new() }; INTERNED];

/// A table of durations in `static` storage, filled in place by its first
/// reader: unlike a table built by value and moved into a `OnceLock`, it
/// never passes through the stack, whose pages would stay resident.
struct Table<const N: usize> {
    filled: Once,
    nanos: [AtomicU64; N],
}

impl<const N: usize> Table<N> {
    const fn new() -> Self {
        Table {
            filled: Once::new(),
            nanos: [const { AtomicU64::new(0) }; N],
        }
    }

    /// Entry `index`, once every entry `i` holds `entry(i)`.  The entries
    /// are stored inside `call_once`, which every reader passes first, so
    /// a relaxed load sees them.
    #[inline]
    fn get(&self, index: usize, entry: fn(usize) -> SimDuration) -> SimDuration {
        self.filled.call_once(|| {
            for (i, slot) in self.nanos.iter().enumerate() {
                slot.store(entry(i).as_nanos(), Relaxed);
            }
        });
        SimDuration::from_nanos(self.nanos[index].load(Relaxed))
    }
}

/// [`seek_time`], from the table in its square-root regime.
#[inline]
pub(crate) fn cached_seek_time(distance: u64) -> SimDuration {
    if distance > SHORT_CUTOFF_CYLINDERS {
        return seek_time(distance);
    }
    SEEK_TABLE.get(distance as usize, |d| seek_time(d as u64))
}

/// [`zone_transfer_time`], from the table for a whole number of 4 KiB
/// steps up to 256 KiB.
#[inline]
pub(crate) fn cached_transfer_time(zone: usize, bytes: u64) -> SimDuration {
    let steps = bytes / TRANSFER_STEP;
    if !bytes.is_multiple_of(TRANSFER_STEP) || steps == 0 || steps > TRANSFER_STEPS as u64 {
        return zone_transfer_time(zone, bytes);
    }
    TRANSFER_TABLE.get(zone * TRANSFER_STEPS + steps as usize - 1, |i| {
        let steps = (i % TRANSFER_STEPS) as u64 + 1;
        zone_transfer_time(i / TRANSFER_STEPS, steps * TRANSFER_STEP)
    })
}

/// One capacity's zone boundaries: where [`DiskConfig::zone_index_at`]
/// starts each zone, and where [`DiskConfig::zone_end`] ends its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Zones {
    /// The capacity they are the boundaries of.
    capacity: u64,
    /// `starts[z]`: the first offset whose zone index is at least `z`.  A
    /// zone no offset falls in starts where the next one does.
    starts: [u64; ZONES],
    /// `ends[z]`: `DiskConfig::zone_end(z)`.
    ends: [u64; ZONES],
}

impl Zones {
    /// The zone boundaries of `config`'s capacity, from the first slot that
    /// holds them or, failing that, the first empty one; `None` when every
    /// slot holds another capacity.
    pub(crate) fn interned(config: &DiskConfig) -> Option<&'static Zones> {
        ZONE_TABLES
            .iter()
            .map(|slot| slot.get_or_init(|| Zones::of(config)))
            .find(|zones| zones.capacity == config.capacity_bytes())
    }

    /// The zone boundaries of `config`'s capacity.  Each start is found by
    /// binary search over `zone_index_at` itself, which is monotone in the
    /// offset, so `zone_index_at(o) ≥ z ⇔ o ≥ starts[z]`, exactly.
    pub(crate) fn of(config: &DiskConfig) -> Self {
        let starts = std::array::from_fn(|zone| {
            // `zone_index_at` clamps to the capacity, where it is the last
            // zone, so the first offset reaching `zone` is at most that.
            let (mut lo, mut hi) = (0, config.capacity_bytes());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if config.zone_index_at(mid) >= zone {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        });
        Zones {
            capacity: config.capacity_bytes(),
            starts,
            ends: std::array::from_fn(|zone| config.zone_end(zone)),
        }
    }

    /// `DiskConfig::zone_index_at(offset)`: the last zone starting at or
    /// before `offset`, by four halvings of the 16 starts.
    #[inline]
    pub(crate) fn index_at(&self, offset: u64) -> usize {
        const _: () = assert!(ZONES == 16, "the search halves 16 starts");
        let mut zone = 0;
        for step in [8, 4, 2, 1] {
            if self.starts[zone + step] <= offset {
                zone += step;
            }
        }
        zone
    }

    /// `DiskConfig::zone_end(zone)`.
    #[inline]
    pub(crate) fn end(&self, zone: usize) -> u64 {
        self.ends[zone]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every table entry is its formula's value, and every length or
    /// distance past a table falls through to the formula.
    #[test]
    fn tables_hold_the_formulas_values() {
        for distance in (0..SEEKS as u64 + 100).chain([99_999, u64::MAX]) {
            assert_eq!(cached_seek_time(distance), seek_time(distance));
        }
        for zone in 0..ZONES {
            for bytes in (0..=(TRANSFER_STEPS as u64 + 2) * TRANSFER_STEP).step_by(512) {
                assert_eq!(
                    cached_transfer_time(zone, bytes),
                    zone_transfer_time(zone, bytes)
                );
            }
        }
    }

    /// The starts reproduce `zone_index_at` on both sides of every start,
    /// also where zones are empty (a one-byte disk has two offsets: zone 0
    /// and, clamped, zone 15).
    #[test]
    fn zone_starts_reproduce_the_index() {
        let full = DiskConfig::seagate_400gb_2005();
        for capacity in [
            1,
            2,
            15,
            16,
            17,
            1 << 20,
            2_500_000_000,
            400_000_000_000,
            1 << 63,
        ] {
            let config = full.scaled(capacity);
            let zones = Zones::of(&config);
            for &start in &zones.starts {
                for offset in start.saturating_sub(2)..=start.saturating_add(2) {
                    assert_eq!(
                        zones.index_at(offset),
                        config.zone_index_at(offset),
                        "capacity {capacity}, offset {offset}"
                    );
                }
            }
            assert_eq!(zones.index_at(u64::MAX), ZONES - 1);
        }
    }
}
