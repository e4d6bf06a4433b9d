//! Policy-selected allocator: one concrete type a substrate can embed while
//! letting experiments choose the allocation *and placement* policies at
//! configuration time.
//!
//! The filesystem volume historically hard-wired the NTFS-style
//! [`RunCacheAllocator`]; the [`AllocationPolicy`] knob threaded down from
//! `lor-core` needs the volume to be able to run any of the classic fit
//! policies instead, without turning the volume into a generic type or paying
//! for dynamic dispatch on the hot allocation path.  [`SelectableAllocator`]
//! is that closed sum: the run cache for [`AllocationPolicy::Native`], a
//! [`PolicyAllocator`] for [`AllocationPolicy::Fit`].
//!
//! Since the placement refactor the allocator also carries the substrate's
//! [`PlacementPolicy`] and exposes [`SelectableAllocator::allocate_as`]:
//! foreground requests flow through the selected policy as before, while
//! maintenance relocations are placed under the placement constraint — into
//! the maintenance band, or only into runs within the foreground watermark —
//! so background compaction stops consuming the contiguous space the
//! foreground allocator needs.  For the native run cache the maintenance path
//! carves placement-eligible runs directly off the shared free-space map
//! (largest allowed run first, the layout a relocation wants) and pins them
//! with the same reserve primitive the MFT zone uses, keeping the cache's
//! bookkeeping coherent without teaching NTFS's foreground pipeline about
//! bands it never had.

use serde::{Deserialize, Serialize};

use crate::error::AllocError;
use crate::extent::Extent;
use crate::freespace::{FreeSpace, RunIndexMap};
use crate::placement::{PlacementConsumer, PlacementPolicy};
use crate::policy::{AllocRequest, AllocationPolicy, Allocator, Contiguity, PolicyAllocator};
use crate::runcache::RunCacheAllocator;

/// The selected allocation mechanism.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum SelectedAllocator {
    /// The NTFS-style run cache ([`AllocationPolicy::Native`] for volumes).
    RunCache(RunCacheAllocator),
    /// One of the classic fit policies.
    Fit(PolicyAllocator),
}

/// An allocator whose allocation and placement policies are chosen at
/// construction time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectableAllocator {
    inner: SelectedAllocator,
    placement: PlacementPolicy,
}

impl SelectableAllocator {
    /// Creates an allocator over `total_clusters` fully free clusters with
    /// unrestricted placement.
    pub fn new(policy: AllocationPolicy, total_clusters: u64) -> Self {
        Self::with_placement(policy, total_clusters, PlacementPolicy::Unrestricted)
    }

    /// Creates an allocator with an explicit placement policy.
    pub fn with_placement(
        policy: AllocationPolicy,
        total_clusters: u64,
        placement: PlacementPolicy,
    ) -> Self {
        let inner =
            match policy {
                AllocationPolicy::Native => {
                    SelectedAllocator::RunCache(RunCacheAllocator::new(total_clusters))
                }
                AllocationPolicy::Fit(fit) => SelectedAllocator::Fit(
                    PolicyAllocator::with_placement(fit, total_clusters, placement),
                ),
            };
        SelectableAllocator { inner, placement }
    }

    /// The policy this allocator was built with.
    pub fn policy(&self) -> AllocationPolicy {
        match &self.inner {
            SelectedAllocator::RunCache(_) => AllocationPolicy::Native,
            SelectedAllocator::Fit(inner) => AllocationPolicy::Fit(inner.policy()),
        }
    }

    /// The placement policy this allocator was built with.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Marks a specific extent allocated, bypassing policy (metadata bands,
    /// pathological-fragmentation injection).
    pub fn reserve_exact(&mut self, extent: Extent) -> Result<(), AllocError> {
        match &mut self.inner {
            SelectedAllocator::RunCache(inner) => inner.reserve_exact(extent),
            SelectedAllocator::Fit(inner) => inner.reserve_exact(extent),
        }
    }

    /// Read-only access to the underlying free-space map.
    pub fn free_space(&self) -> &RunIndexMap {
        match &self.inner {
            SelectedAllocator::RunCache(inner) => inner.free_space(),
            SelectedAllocator::Fit(inner) => inner.free_space(),
        }
    }

    /// Allocates space for `request` on behalf of `consumer`, under the
    /// allocator's placement policy.
    ///
    /// Foreground requests are the ordinary [`Allocator::allocate`] path
    /// (under [`PlacementPolicy::Banded`] the fit policies prefer the
    /// foreground band and spill over when it is exhausted; the native run
    /// cache keeps its own NTFS banding).  Maintenance requests are confined
    /// by the placement policy and fail rather than violate it.
    pub fn allocate_as(
        &mut self,
        request: &AllocRequest,
        consumer: PlacementConsumer,
    ) -> Result<Vec<Extent>, AllocError> {
        match &mut self.inner {
            SelectedAllocator::Fit(inner) => inner.allocate_as(request, consumer),
            SelectedAllocator::RunCache(inner) => match consumer {
                // Unrestricted maintenance keeps the native pipeline, so the
                // default placement reproduces the pre-placement layouts
                // bit-identically (the oracle tests pin this).
                PlacementConsumer::Foreground => inner.allocate(request),
                PlacementConsumer::Maintenance { .. } if self.placement.is_unrestricted() => {
                    inner.allocate(request)
                }
                PlacementConsumer::Maintenance { .. } => {
                    Self::allocate_maintenance_runcache(inner, request, self.placement, consumer)
                }
            },
        }
    }

    /// Foreground allocation appended to `out` — what a substrate's append
    /// path calls once per write request with a buffer it reuses.  On
    /// failure the map and `out` (entries the caller pushed earlier
    /// included) are exactly as they were.
    pub fn allocate_into(
        &mut self,
        request: &AllocRequest,
        out: &mut Vec<Extent>,
    ) -> Result<(), AllocError> {
        match &mut self.inner {
            SelectedAllocator::RunCache(inner) => inner.allocate_into(request, out),
            SelectedAllocator::Fit(inner) => {
                out.extend(inner.allocate(request)?);
                Ok(())
            }
        }
    }

    /// Maintenance allocation for the native run cache: carve the allowed
    /// runs directly off the free-space map (largest first) and pin them
    /// with [`RunCacheAllocator::reserve_exact`], which keeps the cache
    /// coherent.  Refuses (no spill-over) when the placement-eligible runs
    /// cannot satisfy the request.
    fn allocate_maintenance_runcache(
        inner: &mut RunCacheAllocator,
        request: &AllocRequest,
        placement: PlacementPolicy,
        consumer: PlacementConsumer,
    ) -> Result<Vec<Extent>, AllocError> {
        if request.clusters == 0 {
            return Err(AllocError::EmptyRequest);
        }
        if request.clusters > inner.free_clusters() {
            return Err(AllocError::OutOfSpace {
                requested: request.clusters,
                available: inner.free_clusters(),
            });
        }
        if request.contiguity == Contiguity::Required {
            let candidate = placement.largest_eligible(inner.free_space(), consumer, 1);
            if candidate.is_none_or(|run| run.len < request.clusters) {
                return Err(AllocError::NoContiguousRun {
                    requested: request.clusters,
                    largest_run: inner.free_space().largest_free_run(),
                });
            }
        }

        let mut out: Vec<Extent> = Vec::new();
        let mut remaining = request.clusters;
        while remaining > 0 {
            let candidate = placement
                .largest_eligible(inner.free_space(), consumer, 1)
                .filter(|run| !run.is_empty());
            let Some(run) = candidate else {
                for extent in &out {
                    inner
                        .free(std::slice::from_ref(extent))
                        .expect("rollback of freshly reserved extent");
                }
                return Err(AllocError::OutOfSpace {
                    requested: request.clusters,
                    available: inner.free_clusters(),
                });
            };
            let take = Extent::new(run.start, run.len.min(remaining));
            inner.reserve_exact(take)?;
            remaining -= take.len;
            out.push(take);
        }
        Ok(out)
    }
}

impl Allocator for SelectableAllocator {
    fn allocate(&mut self, request: &AllocRequest) -> Result<Vec<Extent>, AllocError> {
        self.allocate_as(request, PlacementConsumer::Foreground)
    }

    fn free(&mut self, extents: &[Extent]) -> Result<(), AllocError> {
        match &mut self.inner {
            SelectedAllocator::RunCache(inner) => inner.free(extents),
            SelectedAllocator::Fit(inner) => inner.free(extents),
        }
    }

    fn total_clusters(&self) -> u64 {
        match &self.inner {
            SelectedAllocator::RunCache(inner) => inner.total_clusters(),
            SelectedAllocator::Fit(inner) => inner.total_clusters(),
        }
    }

    fn free_clusters(&self) -> u64 {
        match &self.inner {
            SelectedAllocator::RunCache(inner) => inner.free_clusters(),
            SelectedAllocator::Fit(inner) => inner.free_clusters(),
        }
    }

    fn free_runs(&self) -> Vec<Extent> {
        match &self.inner {
            SelectedAllocator::RunCache(inner) => inner.free_runs(),
            SelectedAllocator::Fit(inner) => inner.free_runs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FitPolicy;

    fn maintenance(watermark: u64) -> PlacementConsumer {
        PlacementConsumer::Maintenance {
            foreground_watermark: watermark,
        }
    }

    #[test]
    fn native_selects_the_run_cache() {
        let allocator = SelectableAllocator::new(AllocationPolicy::Native, 1000);
        assert_eq!(allocator.policy(), AllocationPolicy::Native);
        assert_eq!(allocator.placement(), PlacementPolicy::Unrestricted);
        assert!(matches!(allocator.inner, SelectedAllocator::RunCache(_)));
    }

    #[test]
    fn fit_selects_a_policy_allocator() {
        for fit in FitPolicy::ALL {
            let allocator = SelectableAllocator::new(AllocationPolicy::Fit(fit), 1000);
            assert_eq!(allocator.policy(), AllocationPolicy::Fit(fit));
        }
    }

    #[test]
    fn allocator_interface_is_forwarded() {
        for policy in AllocationPolicy::ALL {
            let mut allocator = SelectableAllocator::new(policy, 1000);
            assert_eq!(allocator.total_clusters(), 1000);
            let extents = allocator.allocate(&AllocRequest::best_effort(100)).unwrap();
            assert_eq!(allocator.free_clusters(), 900, "{}", policy.name());
            assert_eq!(allocator.free_space().free_clusters(), 900);
            allocator.free(&extents).unwrap();
            assert_eq!(allocator.free_runs(), vec![Extent::new(0, 1000)]);
        }
    }

    #[test]
    fn allocate_into_appends_and_leaves_no_trace_on_failure() {
        for policy in AllocationPolicy::ALL {
            let mut allocator = SelectableAllocator::new(policy, 100);
            allocator.reserve_exact(Extent::new(20, 40)).unwrap();
            let earlier = Extent::new(7, 3);
            let mut out = vec![earlier];

            // 61 > 60 free clusters: refused, with the map and the caller's
            // earlier entry exactly as they were.
            let runs_before = allocator.free_runs();
            let err = allocator
                .allocate_into(&AllocRequest::best_effort(61), &mut out)
                .unwrap_err();
            assert!(matches!(err, AllocError::OutOfSpace { .. }), "{err:?}");
            assert_eq!(out, vec![earlier], "{}", policy.name());
            assert_eq!(allocator.free_runs(), runs_before, "{}", policy.name());

            // All 60 fit only in two pieces; they land after the earlier entry.
            allocator
                .allocate_into(&AllocRequest::best_effort(60), &mut out)
                .unwrap();
            assert_eq!(out[0], earlier);
            assert_eq!(out.len(), 3, "{}", policy.name());
            assert_eq!(out[1].len + out[2].len, 60);
            assert_eq!(allocator.free_clusters(), 0);
        }
    }

    #[test]
    fn reserve_exact_pins_space_under_any_policy() {
        for policy in AllocationPolicy::ALL {
            let mut allocator = SelectableAllocator::new(policy, 100);
            allocator.reserve_exact(Extent::new(10, 5)).unwrap();
            assert_eq!(allocator.free_clusters(), 95);
            assert!(
                allocator.reserve_exact(Extent::new(10, 5)).is_err(),
                "double pin"
            );
        }
    }

    #[test]
    fn banded_maintenance_allocates_from_the_high_band_on_every_policy() {
        for policy in AllocationPolicy::ALL {
            let mut allocator =
                SelectableAllocator::with_placement(policy, 1000, PlacementPolicy::banded(0.8));
            let extents = allocator
                .allocate_as(&AllocRequest::contiguous(50), maintenance(0))
                .unwrap();
            assert_eq!(extents.len(), 1, "{}", policy.name());
            assert!(
                extents[0].start >= 800,
                "{}: maintenance run {:?} must sit in the maintenance band",
                policy.name(),
                extents[0]
            );
            // Foreground allocations still come from the low band.
            let foreground = allocator.allocate(&AllocRequest::best_effort(50)).unwrap();
            assert!(
                foreground[0].start < 800,
                "{}: foreground run {:?} should stay in its band",
                policy.name(),
                foreground[0]
            );
        }
    }

    #[test]
    fn banded_maintenance_refuses_when_its_band_is_exhausted() {
        for policy in AllocationPolicy::ALL {
            let mut allocator =
                SelectableAllocator::with_placement(policy, 1000, PlacementPolicy::banded(0.8));
            // Fill the maintenance band completely.
            allocator.reserve_exact(Extent::new(800, 200)).unwrap();
            let err = allocator
                .allocate_as(&AllocRequest::contiguous(10), maintenance(0))
                .unwrap_err();
            assert!(
                matches!(err, AllocError::NoContiguousRun { .. }),
                "{}: got {err:?}",
                policy.name()
            );
            // The foreground band is untouched and foreground requests, which
            // may spill, still succeed.
            assert_eq!(
                allocator.free_space().largest_run_in(0, 800).unwrap().len,
                800
            );
            assert!(allocator.allocate(&AllocRequest::best_effort(10)).is_ok());
        }
    }

    #[test]
    fn reserve_maintenance_stays_within_the_watermark() {
        for policy in AllocationPolicy::ALL {
            let mut allocator =
                SelectableAllocator::with_placement(policy, 1000, PlacementPolicy::Reserve);
            // Free runs: [0..40), [60..100), and the big tail [101..1000).
            allocator.reserve_exact(Extent::new(40, 20)).unwrap();
            allocator.reserve_exact(Extent::new(100, 1)).unwrap();
            // Watermark 50: the 899-cluster tail is off limits; the largest
            // allowed run is [60..100) (ties break towards the higher start).
            let extents = allocator
                .allocate_as(&AllocRequest::contiguous(30), maintenance(50))
                .unwrap();
            assert_eq!(extents[0].start, 60, "{}", policy.name());
            // A request no allowed run can hold is refused even though the
            // tail could trivially satisfy it.
            assert!(matches!(
                allocator.allocate_as(&AllocRequest::contiguous(60), maintenance(50)),
                Err(AllocError::NoContiguousRun { .. })
            ));
        }
    }

    #[test]
    fn maintenance_best_effort_rolls_back_cleanly_on_refusal() {
        let mut allocator = SelectableAllocator::with_placement(
            AllocationPolicy::Native,
            1000,
            PlacementPolicy::banded(0.9),
        );
        // The maintenance band holds only 60 free clusters.
        allocator.reserve_exact(Extent::new(900, 40)).unwrap();
        let runs_before = allocator.free_runs();
        let err = allocator
            .allocate_as(&AllocRequest::best_effort(100), maintenance(0))
            .unwrap_err();
        assert!(matches!(err, AllocError::OutOfSpace { .. }));
        assert_eq!(
            allocator.free_runs(),
            runs_before,
            "a refused maintenance allocation must leave no trace"
        );
    }
}
