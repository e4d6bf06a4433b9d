//! Placement policies: *where* in the address space each consumer of free
//! space may draw from.
//!
//! The fit policies ([`crate::FitPolicy`]) decide *which* free run satisfies a
//! request; this module decides which *region* of the address space a request
//! may be satisfied from, depending on who is asking.  The distinction is the
//! paper's reuse-policy framing made explicit: eager reuse of low-offset holes
//! is what makes the database substrate fragment under churn, and a
//! maintenance pass that consumes the same large contiguous runs the
//! foreground allocator needs makes things *worse*, not better — the two
//! consumers must be told apart.
//!
//! Two consumers exist ([`PlacementConsumer`]): the **foreground** write path
//! (inserts, safe writes, appends) and **maintenance** relocation (the
//! incremental defragmenter / compactor copying existing data into a better
//! layout).  A [`PlacementPolicy`] constrains each of them:
//!
//! * [`PlacementPolicy::Unrestricted`] — no constraint; both consumers see
//!   the whole space.  This reproduces the pre-placement behaviour
//!   bit-identically and is the default.
//! * [`PlacementPolicy::Banded`] — the space is split at a tunable fractional
//!   boundary into a low-offset **foreground band** and a high-offset
//!   **maintenance band**.  The foreground draws from its band first and
//!   spills over gracefully when the band cannot satisfy a request (running
//!   out of space because a band is full would be absurd); maintenance is
//!   confined to its band and **refuses** rather than spill — background
//!   relocation must never consume the contiguous space it exists to grow.
//! * [`PlacementPolicy::Reserve`] — no spatial bands; instead maintenance may
//!   only consume free runs **no longer than the foreground watermark** (the
//!   largest contiguous run a single foreground allocation could still need,
//!   reported per request by the substrate).  The big runs stay reserved for
//!   the allocator; maintenance makes do with the mid-sized ones.

use crate::extent::Extent;
use crate::freespace::{FreeSpace, RunIndexMap};

/// Who is asking for free space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementConsumer {
    /// The foreground write path: inserts, appends, safe writes.
    Foreground,
    /// A maintenance relocation (defragmentation / compaction).
    Maintenance {
        /// The largest contiguous run (in the map's cluster units) a single
        /// foreground allocation could still need — for the object stores,
        /// the largest live object's allocation.  Only the
        /// [`PlacementPolicy::Reserve`] variant consults it: maintenance may
        /// not consume any free run longer than this watermark.
        foreground_watermark: u64,
    },
}

impl PlacementConsumer {
    /// `true` for the maintenance consumer.
    pub fn is_maintenance(&self) -> bool {
        matches!(self, PlacementConsumer::Maintenance { .. })
    }
}

/// Which region of free space each consumer may draw from (see module docs).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum PlacementPolicy {
    /// No constraint: both consumers see the whole space (the
    /// pre-placement behaviour, bit-identical).
    #[default]
    Unrestricted,
    /// Split the space at `boundary` (a fraction of the total clusters):
    /// the foreground owns `[0, boundary × total)` and spills over when its
    /// band cannot satisfy a request; maintenance owns
    /// `[boundary × total, total)` and refuses rather than spill.
    Banded {
        /// Fractional position of the band boundary, strictly inside (0, 1).
        boundary: f64,
    },
    /// No spatial bands: maintenance may only consume free runs no longer
    /// than the per-request foreground watermark
    /// ([`PlacementConsumer::Maintenance::foreground_watermark`]); the
    /// foreground is unrestricted.
    Reserve,
}

impl PlacementPolicy {
    /// A banded policy with the given fractional boundary.
    pub fn banded(boundary: f64) -> Self {
        PlacementPolicy::Banded { boundary }
    }

    /// Short, stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::Unrestricted => "unrestricted",
            PlacementPolicy::Banded { .. } => "banded",
            PlacementPolicy::Reserve => "reserve",
        }
    }

    /// A descriptive label including the band boundary, for legends that
    /// sweep several placements.
    pub fn label(&self) -> String {
        match self {
            PlacementPolicy::Unrestricted => "unrestricted".to_string(),
            PlacementPolicy::Banded { boundary } => format!("banded({boundary:.2})"),
            PlacementPolicy::Reserve => "reserve".to_string(),
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let PlacementPolicy::Banded { boundary } = self {
            if !boundary.is_finite() || *boundary <= 0.0 || *boundary >= 1.0 {
                return Err("placement band boundary must lie strictly inside (0, 1)");
            }
        }
        Ok(())
    }

    /// `true` when both consumers see the whole space.
    pub fn is_unrestricted(&self) -> bool {
        matches!(self, PlacementPolicy::Unrestricted)
    }

    /// The first cluster of the maintenance band over a space of `total`
    /// clusters (`total` itself when the policy has no bands, so the
    /// maintenance band is empty and the foreground band is everything).
    ///
    /// For [`PlacementPolicy::Banded`] the boundary is clamped so both bands
    /// hold at least one cluster whenever `total >= 2`.
    pub fn boundary_cluster(&self, total: u64) -> u64 {
        match self {
            PlacementPolicy::Banded { boundary } if total >= 2 => {
                let raw = (total as f64 * boundary.clamp(0.0, 1.0)).round() as u64;
                raw.clamp(1, total - 1)
            }
            _ => total,
        }
    }

    /// The band `[lo, hi)` the consumer must draw from first, or `None` when
    /// the consumer is unconstrained in *position* (it may still be
    /// constrained in run length — see [`PlacementPolicy::run_cap`]).
    pub fn primary_band(&self, total: u64, consumer: PlacementConsumer) -> Option<(u64, u64)> {
        self.primary_band_aligned(total, 1, consumer)
    }

    /// [`PlacementPolicy::primary_band`] with the boundary aligned to
    /// `granule`-cluster units: the boundary is computed in granules and
    /// scaled back up, so two address spaces describing the same storage at
    /// different granularities (`lor-blobkit`'s page-level allocation units
    /// over its extent-level GAM, with `granule` = pages per extent) agree
    /// exactly on where the maintenance band starts.  Rounding the fraction
    /// independently per granularity can disagree by up to `granule - 1`
    /// clusters, which would let the two consumers' bands overlap.
    pub fn primary_band_aligned(
        &self,
        total: u64,
        granule: u64,
        consumer: PlacementConsumer,
    ) -> Option<(u64, u64)> {
        match self {
            PlacementPolicy::Banded { .. } => {
                let granule = granule.max(1);
                let boundary = self.boundary_cluster(total / granule) * granule;
                Some(match consumer {
                    PlacementConsumer::Foreground => (0, boundary),
                    PlacementConsumer::Maintenance { .. } => (boundary, total),
                })
            }
            _ => None,
        }
    }

    /// The largest free run in `map` that `consumer` is eligible to draw
    /// from under this policy — the one shared eligibility decision behind
    /// every maintenance allocation (the fit allocators' fragmentation
    /// fallback, the run cache's maintenance carve, and the engine's
    /// compactor all use it).  `granule` aligns the band boundary (see
    /// [`PlacementPolicy::primary_band_aligned`]).  Spill-over is the
    /// *caller's* decision — this returns only what the placement itself
    /// permits, `None` when nothing is eligible.
    pub fn largest_eligible(
        &self,
        map: &RunIndexMap,
        consumer: PlacementConsumer,
        granule: u64,
    ) -> Option<Extent> {
        if let Some(cap) = self.run_cap(consumer) {
            return map.largest_run_at_most(cap);
        }
        match self.primary_band_aligned(map.total_clusters(), granule, consumer) {
            None => map.largest(),
            Some((lo, hi)) => map.largest_run_in(lo, hi),
        }
    }

    /// Whether the consumer may fall back outside its primary band when no
    /// run in it satisfies a request.  The foreground always may (a full
    /// band must degrade placement, never availability); maintenance never
    /// may — relocation falls back by *refusing*, so it cannot consume the
    /// space it is supposed to grow.
    pub fn spills(&self, consumer: PlacementConsumer) -> bool {
        !consumer.is_maintenance()
    }

    /// The longest free run (inclusive) the consumer may consume, or `None`
    /// when run length is unconstrained.  Only [`PlacementPolicy::Reserve`]
    /// caps maintenance at the foreground watermark (at least one cluster,
    /// so a degenerate watermark cannot make every run forbidden).
    pub fn run_cap(&self, consumer: PlacementConsumer) -> Option<u64> {
        match (self, consumer) {
            (
                PlacementPolicy::Reserve,
                PlacementConsumer::Maintenance {
                    foreground_watermark,
                },
            ) => Some(foreground_watermark.max(1)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_labels_are_stable() {
        assert_eq!(PlacementPolicy::Unrestricted.name(), "unrestricted");
        assert_eq!(PlacementPolicy::banded(0.75).name(), "banded");
        assert_eq!(PlacementPolicy::banded(0.75).label(), "banded(0.75)");
        assert_eq!(PlacementPolicy::Reserve.label(), "reserve");
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::Unrestricted);
        assert!(PlacementPolicy::Unrestricted.is_unrestricted());
        assert!(!PlacementPolicy::Reserve.is_unrestricted());
    }

    #[test]
    fn validation_rejects_degenerate_boundaries() {
        assert!(PlacementPolicy::banded(0.0).validate().is_err());
        assert!(PlacementPolicy::banded(1.0).validate().is_err());
        assert!(PlacementPolicy::banded(-0.5).validate().is_err());
        assert!(PlacementPolicy::banded(f64::NAN).validate().is_err());
        assert!(PlacementPolicy::banded(0.5).validate().is_ok());
        assert!(PlacementPolicy::Unrestricted.validate().is_ok());
        assert!(PlacementPolicy::Reserve.validate().is_ok());
    }

    #[test]
    fn banded_splits_the_space_per_consumer() {
        let policy = PlacementPolicy::banded(0.75);
        assert_eq!(policy.boundary_cluster(1000), 750);
        assert_eq!(
            policy.primary_band(1000, PlacementConsumer::Foreground),
            Some((0, 750))
        );
        assert_eq!(
            policy.primary_band(
                1000,
                PlacementConsumer::Maintenance {
                    foreground_watermark: 0
                }
            ),
            Some((750, 1000))
        );
        // Both bands keep at least one cluster even at extreme boundaries.
        assert_eq!(PlacementPolicy::banded(0.999).boundary_cluster(10), 9);
        assert_eq!(PlacementPolicy::banded(0.001).boundary_cluster(10), 1);
        // A one-cluster space cannot be split.
        assert_eq!(policy.boundary_cluster(1), 1);
    }

    #[test]
    fn aligned_bands_agree_across_granularities() {
        // 0.603 of 800 pages rounds to 482, but 0.603 of 100 extents rounds
        // to 60 — i.e. page 480.  The aligned band must use the coarse
        // granularity's boundary so a page space overlaying an extent space
        // cannot end up with overlapping foreground and maintenance bands.
        let policy = PlacementPolicy::banded(0.603);
        assert_eq!(policy.boundary_cluster(800), 482);
        assert_eq!(
            policy.primary_band_aligned(800, 8, PlacementConsumer::Foreground),
            Some((0, 480))
        );
        assert_eq!(
            policy.primary_band_aligned(
                800,
                8,
                PlacementConsumer::Maintenance {
                    foreground_watermark: 0
                }
            ),
            Some((480, 800))
        );
        // Granule 1 is the plain band.
        assert_eq!(
            policy.primary_band_aligned(800, 1, PlacementConsumer::Foreground),
            policy.primary_band(800, PlacementConsumer::Foreground)
        );
    }

    #[test]
    fn largest_eligible_is_the_shared_maintenance_decision() {
        let maintenance = PlacementConsumer::Maintenance {
            foreground_watermark: 20,
        };
        let mut map = RunIndexMap::new_free(100);
        map.reserve(Extent::new(20, 10)).unwrap(); // free: [0..20), [30..100)
                                                   // Unrestricted: the global largest.
        assert_eq!(
            PlacementPolicy::Unrestricted.largest_eligible(&map, maintenance, 1),
            Some(Extent::new(30, 70))
        );
        // Banded: the largest clipped to the maintenance band.
        assert_eq!(
            PlacementPolicy::banded(0.5).largest_eligible(&map, maintenance, 1),
            Some(Extent::new(50, 50))
        );
        // Reserve: the largest run within the watermark — never clipped.
        assert_eq!(
            PlacementPolicy::Reserve.largest_eligible(&map, maintenance, 1),
            Some(Extent::new(0, 20))
        );
        // The foreground is position-unconstrained under Reserve.
        assert_eq!(
            PlacementPolicy::Reserve.largest_eligible(&map, PlacementConsumer::Foreground, 1),
            Some(Extent::new(30, 70))
        );
    }

    #[test]
    fn unrestricted_and_reserve_have_no_bands() {
        for policy in [PlacementPolicy::Unrestricted, PlacementPolicy::Reserve] {
            assert_eq!(policy.boundary_cluster(1000), 1000);
            assert_eq!(
                policy.primary_band(1000, PlacementConsumer::Foreground),
                None
            );
            assert_eq!(
                policy.primary_band(
                    1000,
                    PlacementConsumer::Maintenance {
                        foreground_watermark: 32
                    }
                ),
                None
            );
        }
    }

    #[test]
    fn only_reserve_caps_maintenance_run_length() {
        let maintenance = PlacementConsumer::Maintenance {
            foreground_watermark: 64,
        };
        assert_eq!(PlacementPolicy::Reserve.run_cap(maintenance), Some(64));
        assert_eq!(
            PlacementPolicy::Reserve.run_cap(PlacementConsumer::Foreground),
            None
        );
        assert_eq!(PlacementPolicy::Unrestricted.run_cap(maintenance), None);
        assert_eq!(PlacementPolicy::banded(0.5).run_cap(maintenance), None);
        // A zero watermark still admits single-cluster runs.
        assert_eq!(
            PlacementPolicy::Reserve.run_cap(PlacementConsumer::Maintenance {
                foreground_watermark: 0
            }),
            Some(1)
        );
    }

    #[test]
    fn foreground_spills_and_maintenance_refuses() {
        let maintenance = PlacementConsumer::Maintenance {
            foreground_watermark: 8,
        };
        for policy in [
            PlacementPolicy::Unrestricted,
            PlacementPolicy::banded(0.5),
            PlacementPolicy::Reserve,
        ] {
            assert!(policy.spills(PlacementConsumer::Foreground));
            assert!(!policy.spills(maintenance));
        }
        assert!(maintenance.is_maintenance());
        assert!(!PlacementConsumer::Foreground.is_maintenance());
    }
}
