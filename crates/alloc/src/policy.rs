//! Allocation policies.
//!
//! Following the malloc-literature distinction the paper borrows (Wilson et
//! al.), this module separates the *mechanism* (the [`RunIndexMap`] free-space
//! structure) from the *policy* (which free run a request is carved from).
//! The classic policies — first fit, best fit, worst fit, next fit — are
//! provided here; the NTFS-style run cache lives in its own module
//! ([`crate::runcache`]).  Both are pick strategies of the one cluster
//! allocator, [`crate::SelectableAllocator`], which owns the carve loop.

use serde::{Deserialize, Serialize};

use crate::extent::Extent;
use crate::freespace::{FreeSpace, RunIndexMap};
use crate::placement::{PlacementConsumer, PlacementPolicy};

/// How hard an allocation must try to be contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Contiguity {
    /// The allocation must be one extent; fail otherwise.
    Required,
    /// Prefer one extent but split the allocation across several free runs if
    /// no single run is large enough ("the file is fragmented").
    BestEffort,
}

/// A request for space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocRequest {
    /// Number of clusters needed.
    pub clusters: u64,
    /// Preferred start cluster.  Policies that honour hints (all of them, for
    /// the extension case) will try to place the allocation exactly at the
    /// hint so that it physically continues a previous allocation.
    pub hint: Option<u64>,
    /// Contiguity requirement.
    pub contiguity: Contiguity,
}

impl AllocRequest {
    /// A best-effort request with no placement hint.
    pub fn best_effort(clusters: u64) -> Self {
        AllocRequest {
            clusters,
            hint: None,
            contiguity: Contiguity::BestEffort,
        }
    }

    /// A request that must be satisfied with a single extent.
    pub fn contiguous(clusters: u64) -> Self {
        AllocRequest {
            clusters,
            hint: None,
            contiguity: Contiguity::Required,
        }
    }

    /// Adds a placement hint (typically the end of the previous extent of the
    /// same file, to model sequential-append extension).
    pub fn with_hint(mut self, hint: u64) -> Self {
        self.hint = Some(hint);
        self
    }
}

/// The classic fit policies over a free-run index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FitPolicy {
    /// Lowest-offset run that fits.
    FirstFit,
    /// Smallest run that fits.
    BestFit,
    /// Largest run, regardless of fit.
    WorstFit,
    /// First fit starting from a roving cursor that advances past each
    /// allocation.
    NextFit,
}

impl FitPolicy {
    /// All classic policies, for sweeps and ablation benches.
    pub const ALL: [FitPolicy; 4] = [
        FitPolicy::FirstFit,
        FitPolicy::BestFit,
        FitPolicy::WorstFit,
        FitPolicy::NextFit,
    ];

    /// Short, stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FitPolicy::FirstFit => "first-fit",
            FitPolicy::BestFit => "best-fit",
            FitPolicy::WorstFit => "worst-fit",
            FitPolicy::NextFit => "next-fit",
        }
    }

    /// Picks the free run this policy wants for a request of `len` clusters
    /// on behalf of `consumer`, under `placement`.
    ///
    /// This is the single shared policy implementation both substrates draw
    /// from: [`crate::SelectableAllocator`] applies it at cluster granularity
    /// for the filesystem, and `lor-blobkit`'s GAM/allocation-unit layer
    /// applies it at extent and page granularity.  `cursor` is the roving
    /// pointer consulted (and only meaningful) for [`FitPolicy::NextFit`];
    /// pass `0` otherwise.
    ///
    /// Placement semantics (see [`PlacementPolicy`]):
    ///
    /// * unconstrained consumers get the raw fit pick — bit-identical to the
    ///   pre-placement behaviour;
    /// * a banded consumer picks inside its band first (runs clipped to the
    ///   band); the foreground spills to the raw pick when its band has no
    ///   fitting run, maintenance refuses instead;
    /// * under [`PlacementPolicy::Reserve`] a maintenance pick takes the
    ///   largest free run within the foreground watermark, whatever the fit
    ///   flavour — a relocation wants the fewest fragments it is allowed to
    ///   have, not a snug or low hole.
    ///
    /// `band_granule` aligns the band boundary (see
    /// [`PlacementPolicy::primary_band_aligned`]); pass `1` unless the map
    /// overlays a coarser-granularity space that must agree on the boundary.
    pub fn pick_placed(
        &self,
        map: &RunIndexMap,
        len: u64,
        cursor: u64,
        placement: PlacementPolicy,
        consumer: PlacementConsumer,
        band_granule: u64,
    ) -> Option<Extent> {
        if placement.run_cap(consumer).is_some() {
            return placement
                .largest_eligible(map, consumer, band_granule)
                .filter(|run| run.len >= len);
        }
        match placement.primary_band_aligned(map.total_clusters(), band_granule, consumer) {
            None => self.pick_raw(map, len, cursor),
            Some((lo, hi)) => {
                let banded = self.pick_in(map, len, cursor, lo, hi);
                if banded.is_none() && placement.spills(consumer) {
                    self.pick_raw(map, len, cursor)
                } else {
                    banded
                }
            }
        }
    }

    /// The unconstrained fit pick (the whole address space).
    fn pick_raw(&self, map: &RunIndexMap, len: u64, cursor: u64) -> Option<Extent> {
        match self {
            FitPolicy::FirstFit => map.first_fit(len, 0),
            FitPolicy::BestFit => map.best_fit(len),
            FitPolicy::WorstFit => map.largest().filter(|run| run.len >= len),
            FitPolicy::NextFit => map.first_fit(len, cursor).or_else(|| map.first_fit(len, 0)),
        }
    }

    /// The fit pick restricted to the band `[lo, hi)` (runs clipped).
    fn pick_in(
        &self,
        map: &RunIndexMap,
        len: u64,
        cursor: u64,
        lo: u64,
        hi: u64,
    ) -> Option<Extent> {
        match self {
            FitPolicy::FirstFit => map.first_fit_in(len, lo, hi),
            FitPolicy::BestFit => map.best_fit_in(len, lo, hi),
            FitPolicy::WorstFit => map.largest_run_in(lo, hi).filter(|run| run.len >= len),
            FitPolicy::NextFit => map
                .first_fit_in(len, cursor.clamp(lo, hi), hi)
                .or_else(|| map.first_fit_in(len, lo, hi)),
        }
    }
}

/// Substrate-independent selector for how a store places new allocations.
///
/// Threaded from `lor-core`'s experiment configuration down into both storage
/// substrates so the ablation benches can sweep one knob across the two
/// systems.  `Native` selects whatever the substrate being configured models
/// from the paper: the NTFS-style run cache for the filesystem volume, and
/// SQL Server's lowest-first page reuse (first fit over the page space) for
/// the database engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// The substrate's paper-faithful native policy.
    #[default]
    Native,
    /// Override the native choice with one of the classic fit policies.
    Fit(FitPolicy),
}

impl AllocationPolicy {
    /// Every selectable policy, for sweeps and ablation benches.
    pub const ALL: [AllocationPolicy; 5] = [
        AllocationPolicy::Native,
        AllocationPolicy::Fit(FitPolicy::FirstFit),
        AllocationPolicy::Fit(FitPolicy::BestFit),
        AllocationPolicy::Fit(FitPolicy::WorstFit),
        AllocationPolicy::Fit(FitPolicy::NextFit),
    ];

    /// Short, stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            AllocationPolicy::Native => "native",
            AllocationPolicy::Fit(fit) => fit.name(),
        }
    }

    /// The fit policy to apply when the substrate's native mechanism is
    /// fit-shaped, with `native` naming the substrate's own default.
    pub fn fit_or(&self, native: FitPolicy) -> FitPolicy {
        match self {
            AllocationPolicy::Native => native,
            AllocationPolicy::Fit(fit) => *fit,
        }
    }
}

/// A resolved policy choice plus the roving cursor [`FitPolicy::NextFit`]
/// needs, bundled so every consumer of [`FitPolicy::pick_placed`] shares one
/// picking-and-advancing implementation.
///
/// [`crate::SelectableAllocator`] uses it at cluster granularity;
/// `lor-blobkit`'s GAM and allocation units use it at extent and page
/// granularity.  Keeping the cursor rule (advance to the end of the taken
/// run) in one place means a future policy only has to be wired into
/// [`FitPolicy::pick_placed`] once.
/// The picker also carries the substrate's [`PlacementPolicy`], so every
/// pick states *who* it is for and the placement constraint cannot be
/// forgotten at a call site.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FitPicker {
    policy: AllocationPolicy,
    fit: FitPolicy,
    placement: PlacementPolicy,
    /// Band-boundary alignment in clusters (see
    /// [`PlacementPolicy::primary_band_aligned`]); `1` for spaces that stand
    /// alone.
    band_granule: u64,
    cursor: u64,
}

impl FitPicker {
    /// Creates an unrestricted-placement picker for `policy`, with `native`
    /// naming the fit the substrate's native mechanism corresponds to.
    pub fn new(policy: AllocationPolicy, native: FitPolicy) -> Self {
        Self::with_placement(policy, native, PlacementPolicy::Unrestricted)
    }

    /// Creates a picker with an explicit placement policy.
    pub fn with_placement(
        policy: AllocationPolicy,
        native: FitPolicy,
        placement: PlacementPolicy,
    ) -> Self {
        FitPicker {
            policy,
            fit: policy.fit_or(native),
            placement,
            band_granule: 1,
            cursor: 0,
        }
    }

    /// Aligns the picker's band boundary to `granule`-cluster units
    /// (`lor-blobkit`'s page-level units pass their extent size so the page
    /// and extent spaces agree exactly on where the maintenance band
    /// starts).
    pub fn with_band_granule(mut self, granule: u64) -> Self {
        self.band_granule = granule.max(1);
        self
    }

    /// The selection this picker was built from.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// The resolved fit policy in effect.
    pub fn fit(&self) -> FitPolicy {
        self.fit
    }

    /// The placement policy in effect.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Picks the run the policy wants for a foreground request of `len`
    /// clusters.
    pub fn pick(&self, map: &RunIndexMap, len: u64) -> Option<Extent> {
        self.pick_as(map, len, PlacementConsumer::Foreground)
    }

    /// Picks the run the policy wants for a request of `len` clusters on
    /// behalf of `consumer`, under the picker's placement policy.
    pub fn pick_as(
        &self,
        map: &RunIndexMap,
        len: u64,
        consumer: PlacementConsumer,
    ) -> Option<Extent> {
        self.fit.pick_placed(
            map,
            len,
            self.cursor,
            self.placement,
            consumer,
            self.band_granule,
        )
    }

    /// Records that `taken` was just reserved, advancing the next-fit cursor
    /// past it (a no-op for every other policy).
    pub fn advance(&mut self, taken: Extent) {
        if self.fit == FitPolicy::NextFit {
            self.cursor = taken.end();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The fit policies as strategies of the one allocator.

    use super::*;
    use crate::error::AllocError;
    use crate::extent::ExtentListExt;
    use crate::placement::PlacementConsumer::Foreground;
    use crate::select::SelectableAllocator;

    fn fit(policy: FitPolicy, total_clusters: u64) -> SelectableAllocator {
        SelectableAllocator::new(AllocationPolicy::Fit(policy), total_clusters)
    }

    fn checkerboard(allocator: &mut SelectableAllocator) -> Vec<Vec<Extent>> {
        // Allocate 10 x 10-cluster objects, then free every other one to
        // produce a checkerboard of 10-cluster holes.
        let objects: Vec<Vec<Extent>> = (0..10)
            .map(|_| {
                allocator
                    .allocate_as(&AllocRequest::best_effort(10), Foreground)
                    .unwrap()
            })
            .collect();
        for object in objects.iter().step_by(2) {
            allocator.free(object).unwrap();
        }
        objects
    }

    #[test]
    fn zero_cluster_requests_are_rejected() {
        let mut allocator = fit(FitPolicy::FirstFit, 100);
        assert_eq!(
            allocator.allocate_as(&AllocRequest::best_effort(0), Foreground),
            Err(AllocError::EmptyRequest)
        );
    }

    #[test]
    fn allocation_reduces_free_space_and_free_restores_it() {
        for policy in FitPolicy::ALL {
            let mut allocator = fit(policy, 1000);
            let extents = allocator
                .allocate_as(&AllocRequest::best_effort(123), Foreground)
                .unwrap();
            assert_eq!(extents.total_clusters(), 123);
            assert_eq!(
                allocator.free_space().free_clusters(),
                877,
                "{}",
                policy.name()
            );
            allocator.free(&extents).unwrap();
            assert_eq!(allocator.free_space().free_clusters(), 1000);
            assert_eq!(
                allocator.free_space().free_runs(),
                vec![Extent::new(0, 1000)]
            );
        }
    }

    #[test]
    fn first_fit_fills_the_first_hole() {
        let mut allocator = fit(FitPolicy::FirstFit, 100);
        checkerboard(&mut allocator);
        let extents = allocator
            .allocate_as(&AllocRequest::best_effort(4), Foreground)
            .unwrap();
        assert_eq!(extents[0].start, 0);
    }

    #[test]
    fn best_fit_prefers_the_snuggest_hole() {
        let mut allocator = fit(FitPolicy::BestFit, 100);
        // Holes of 10 (at 0) after a checkerboard, but first make a 4-cluster
        // hole somewhere specific: allocate everything, then free [50, 54) and
        // [0, 10).
        let all = allocator
            .allocate_as(&AllocRequest::best_effort(100), Foreground)
            .unwrap();
        assert_eq!(all, vec![Extent::new(0, 100)]);
        allocator.free(&[Extent::new(0, 10)]).unwrap();
        allocator.free(&[Extent::new(50, 4)]).unwrap();
        let extents = allocator
            .allocate_as(&AllocRequest::best_effort(4), Foreground)
            .unwrap();
        assert_eq!(extents, vec![Extent::new(50, 4)]);
    }

    #[test]
    fn worst_fit_takes_the_largest_hole() {
        let mut allocator = fit(FitPolicy::WorstFit, 100);
        let all = allocator
            .allocate_as(&AllocRequest::best_effort(100), Foreground)
            .unwrap();
        allocator.free(&[Extent::new(0, 10)]).unwrap();
        allocator.free(&[Extent::new(40, 30)]).unwrap();
        let _ = all;
        let extents = allocator
            .allocate_as(&AllocRequest::best_effort(5), Foreground)
            .unwrap();
        assert_eq!(extents, vec![Extent::new(40, 5)]);
    }

    #[test]
    fn next_fit_advances_a_cursor() {
        let mut allocator = fit(FitPolicy::NextFit, 100);
        let a = allocator
            .allocate_as(&AllocRequest::best_effort(10), Foreground)
            .unwrap();
        let b = allocator
            .allocate_as(&AllocRequest::best_effort(10), Foreground)
            .unwrap();
        assert_eq!(a, vec![Extent::new(0, 10)]);
        assert_eq!(b, vec![Extent::new(10, 10)]);
        // Free the first hole; next-fit should keep moving forward rather than
        // reusing it immediately.
        allocator.free(&a).unwrap();
        let c = allocator
            .allocate_as(&AllocRequest::best_effort(10), Foreground)
            .unwrap();
        assert_eq!(c, vec![Extent::new(20, 10)]);
        // ...but wraps around once the tail is exhausted.
        let _d = allocator
            .allocate_as(&AllocRequest::best_effort(70), Foreground)
            .unwrap();
        let e = allocator
            .allocate_as(&AllocRequest::best_effort(10), Foreground)
            .unwrap();
        assert_eq!(e, vec![Extent::new(0, 10)]);
    }

    #[test]
    fn best_effort_requests_fragment_when_no_run_fits() {
        let mut allocator = fit(FitPolicy::FirstFit, 100);
        checkerboard(&mut allocator);
        // 5 holes of 10 clusters each; ask for 25 clusters.
        let extents = allocator
            .allocate_as(&AllocRequest::best_effort(25), Foreground)
            .unwrap();
        assert_eq!(extents.total_clusters(), 25);
        assert_eq!(extents.fragment_count(), 3);
        assert!(extents.is_disjoint());
    }

    #[test]
    fn contiguous_requests_fail_rather_than_fragment() {
        let mut allocator = fit(FitPolicy::BestFit, 100);
        checkerboard(&mut allocator);
        let err = allocator
            .allocate_as(&AllocRequest::contiguous(25), Foreground)
            .unwrap_err();
        assert_eq!(
            err,
            AllocError::NoContiguousRun {
                requested: 25,
                largest_run: 10
            }
        );
        // Free space is untouched by the failed attempt.
        assert_eq!(allocator.free_space().free_clusters(), 50);
    }

    #[test]
    fn out_of_space_reports_availability() {
        let mut allocator = fit(FitPolicy::FirstFit, 50);
        allocator
            .allocate_as(&AllocRequest::best_effort(40), Foreground)
            .unwrap();
        assert_eq!(
            allocator.allocate_as(&AllocRequest::best_effort(20), Foreground),
            Err(AllocError::OutOfSpace {
                requested: 20,
                available: 10
            })
        );
    }

    #[test]
    fn hints_extend_previous_allocations_when_possible() {
        for policy in FitPolicy::ALL {
            let mut allocator = fit(policy, 200);
            let first = allocator
                .allocate_as(&AllocRequest::best_effort(16), Foreground)
                .unwrap();
            let end = first.last().unwrap().end();
            let second = allocator
                .allocate_as(&AllocRequest::best_effort(16).with_hint(end), Foreground)
                .unwrap();
            assert_eq!(second[0].start, end, "{}", policy.name());
            // Together they form a single physical fragment.
            let combined: Vec<Extent> = first.iter().chain(second.iter()).copied().collect();
            assert_eq!(combined.fragment_count(), 1, "{}", policy.name());
        }
    }

    #[test]
    fn hint_is_ignored_when_the_location_is_taken() {
        let mut allocator = fit(FitPolicy::FirstFit, 200);
        let a = allocator
            .allocate_as(&AllocRequest::best_effort(16), Foreground)
            .unwrap();
        let _b = allocator
            .allocate_as(&AllocRequest::best_effort(16), Foreground)
            .unwrap();
        // The cluster right after `a` now belongs to `b`; a hinted request
        // falls back to the policy instead of failing.
        let c = allocator
            .allocate_as(
                &AllocRequest::best_effort(16).with_hint(a.last().unwrap().end()),
                Foreground,
            )
            .unwrap();
        assert_eq!(c.total_clusters(), 16);
        assert_ne!(c[0].start, a.last().unwrap().end());
    }

    #[test]
    fn double_free_is_rejected() {
        let mut allocator = fit(FitPolicy::FirstFit, 100);
        let extents = allocator
            .allocate_as(&AllocRequest::best_effort(10), Foreground)
            .unwrap();
        allocator.free(&extents).unwrap();
        assert!(allocator.free(&extents).is_err());
    }
}
