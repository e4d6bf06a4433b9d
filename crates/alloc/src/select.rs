//! The cluster allocator: one free-space map, one placement policy, one carve
//! loop — and a *pick strategy* chosen at construction time.
//!
//! The paper (Section 2) describes NTFS allocation as a pick order over one
//! run cache, and the malloc survey it cites asks that policy be kept apart
//! from mechanism.  [`SelectableAllocator`] is the mechanism: it validates a
//! request, carves free runs until the request is met, and rolls back if it
//! cannot be.  The policy is only the answer to *which run next*:
//!
//! * [`AllocationPolicy::Native`] — the NTFS run cache ([`crate::runcache`]):
//!   extension at the hint, then the outer band, then the largest run.
//! * [`AllocationPolicy::Fit`] — a [`FitPicker`]: extension at the hint, then
//!   the fit's pick, then the largest run the consumer may touch.
//!
//! The [`PlacementPolicy`] is enforced here, once, for both strategies: a
//! consumer the placement *restricts* (maintenance under a banded or reserve
//! placement) never takes a hint and never spills — it is placed inside its
//! constraint or refused — so background relocation cannot consume the
//! contiguous space the foreground needs.  Everyone else may use the whole
//! space (the foreground of a banded fit policy prefers its band and spills
//! when it is exhausted; the run cache keeps NTFS's own outer-band banding).

use serde::{Deserialize, Serialize};

use crate::error::AllocError;
use crate::extent::Extent;
use crate::freespace::{FreeSpace, RunIndexMap};
use crate::placement::{PlacementConsumer, PlacementPolicy};
use crate::policy::{AllocRequest, AllocationPolicy, Contiguity, FitPicker};
use crate::runcache;

/// Which run a request is carved from next.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Strategy {
    /// The NTFS-style run cache ([`AllocationPolicy::Native`] for volumes).
    RunCache,
    /// One of the classic fit policies, with its next-fit cursor.
    Fit(FitPicker),
}

/// The cluster allocator; its allocation and placement policies are chosen
/// at construction time (see module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectableAllocator {
    map: RunIndexMap,
    placement: PlacementPolicy,
    strategy: Strategy,
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
        let strategy = match policy {
            AllocationPolicy::Native => Strategy::RunCache,
            AllocationPolicy::Fit(fit) => {
                Strategy::Fit(FitPicker::with_placement(policy, fit, placement))
            }
        };
        SelectableAllocator {
            map: RunIndexMap::new_free(total_clusters),
            placement,
            strategy,
        }
    }

    /// The policy this allocator was built with.
    pub fn policy(&self) -> AllocationPolicy {
        match &self.strategy {
            Strategy::RunCache => AllocationPolicy::Native,
            Strategy::Fit(picker) => picker.policy(),
        }
    }

    /// The placement policy this allocator was built with.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Marks a specific extent allocated, bypassing policy (metadata bands,
    /// pathological-fragmentation injection).
    pub fn reserve_exact(&mut self, extent: Extent) -> Result<(), AllocError> {
        self.map.reserve(extent)
    }

    /// Read-only access to the free-space map — every question about what is
    /// free (`free_clusters`, `free_runs`, band queries) is asked of it.
    pub fn free_space(&self) -> &RunIndexMap {
        &self.map
    }

    /// Returns previously allocated extents to the free pool.
    pub fn free(&mut self, extents: &[Extent]) -> Result<(), AllocError> {
        for extent in extents {
            self.map.release(*extent)?;
        }
        Ok(())
    }

    /// [`SelectableAllocator::allocate_into`] with a fresh vector.
    pub fn allocate_as(
        &mut self,
        request: &AllocRequest,
        consumer: PlacementConsumer,
    ) -> Result<Vec<Extent>, AllocError> {
        let mut out = Vec::new();
        self.allocate_into(request, consumer, &mut out)?;
        Ok(out)
    }

    /// Allocates space for `request` on behalf of `consumer`, appending the
    /// extents to `out` in the order they should be filled with data — a
    /// substrate's append path calls it once per write request with a buffer
    /// it reuses.
    ///
    /// A consumer the placement restricts is confined to its constraint and
    /// fails with [`AllocError::OutOfSpace`] / [`AllocError::NoContiguousRun`]
    /// rather than violate it.  On failure every cluster reserved so far is
    /// released and `out` is truncated back to the length it had on entry, so
    /// entries the caller pushed earlier survive untouched.
    pub fn allocate_into(
        &mut self,
        request: &AllocRequest,
        consumer: PlacementConsumer,
        out: &mut Vec<Extent>,
    ) -> Result<(), AllocError> {
        if request.clusters == 0 {
            return Err(AllocError::EmptyRequest);
        }
        if request.clusters > self.map.free_clusters() {
            return Err(AllocError::OutOfSpace {
                requested: request.clusters,
                available: self.map.free_clusters(),
            });
        }
        // A consumer the placement confines: maintenance under a banded or
        // reserve placement.
        let restricted = consumer.is_maintenance() && !self.placement.is_unrestricted();
        if request.contiguity == Contiguity::Required {
            let fits = if restricted {
                self.largest_eligible(consumer)
                    .is_some_and(|run| run.len >= request.clusters)
            } else {
                self.map.largest_free_run() >= request.clusters
            };
            if !fits {
                return Err(AllocError::NoContiguousRun {
                    requested: request.clusters,
                    largest_run: self.map.largest_free_run(),
                });
            }
        }

        let base = out.len();
        let mut remaining = request.clusters;
        while remaining > 0 {
            let first_carve = out.len() == base;
            let candidate = self.next_run(first_carve, remaining, request, consumer, restricted);
            let Some(run) = candidate.filter(|run| !run.is_empty()) else {
                for extent in out.drain(base..) {
                    // Invariant: every extent past `base` was reserved by
                    // this call, a few lines down.
                    self.map
                        .release(extent)
                        .expect("rollback of freshly reserved extent");
                }
                return Err(AllocError::OutOfSpace {
                    requested: request.clusters,
                    available: self.map.free_clusters(),
                });
            };
            let take = Extent::new(run.start, run.len.min(remaining));
            self.map.reserve(take)?;
            if let Strategy::Fit(picker) = &mut self.strategy {
                picker.advance(take);
            }
            remaining -= take.len;
            out.push(take);
        }
        Ok(())
    }

    /// The largest run the placement itself lets `consumer` touch.
    fn largest_eligible(&self, consumer: PlacementConsumer) -> Option<Extent> {
        self.placement.largest_eligible(&self.map, consumer, 1)
    }

    /// The free run the next piece of `request`, still missing `remaining`
    /// clusters, is carved from (the loop clips it to `remaining`).
    ///
    /// An unrestricted consumer extends at the hint when a free run starts
    /// exactly there (anywhere else the data would not continue its
    /// predecessor) and, for a request that must stay in one piece, holds all
    /// of it; then the strategy is asked, and a fit that finds no run for the
    /// whole remainder fragments into the largest run of its band or, failing
    /// that, of the volume.  A restricted consumer gets the strategy's pick
    /// inside its constraint or the largest run it is allowed — never the
    /// hint, never a spill.
    fn next_run(
        &self,
        first_carve: bool,
        remaining: u64,
        request: &AllocRequest,
        consumer: PlacementConsumer,
        restricted: bool,
    ) -> Option<Extent> {
        if first_carve && !restricted {
            let extension = request
                .hint
                .and_then(|hint| self.map.run_at(hint).filter(|run| run.start == hint))
                .filter(|run| request.contiguity == Contiguity::BestEffort || run.len >= remaining);
            if extension.is_some() {
                return extension;
            }
        }
        match &self.strategy {
            Strategy::RunCache if restricted => self.largest_eligible(consumer),
            Strategy::RunCache => runcache::pick(&self.map, first_carve, remaining),
            Strategy::Fit(picker) => picker
                .pick_as(&self.map, remaining, consumer)
                .or_else(|| self.largest_eligible(consumer))
                .or_else(|| if restricted { None } else { self.map.largest() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FitPolicy;
    use PlacementConsumer::Foreground;

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
        assert!(matches!(allocator.strategy, Strategy::RunCache));
    }

    #[test]
    fn fit_selects_a_fit_picker() {
        for fit in FitPolicy::ALL {
            let allocator = SelectableAllocator::new(AllocationPolicy::Fit(fit), 1000);
            assert_eq!(allocator.policy(), AllocationPolicy::Fit(fit));
            assert!(matches!(&allocator.strategy, Strategy::Fit(picker) if picker.fit() == fit));
        }
    }

    #[test]
    fn allocate_and_free_round_trip_under_every_policy() {
        for policy in AllocationPolicy::ALL {
            let mut allocator = SelectableAllocator::new(policy, 1000);
            assert_eq!(allocator.free_space().total_clusters(), 1000);
            let extents = allocator
                .allocate_as(&AllocRequest::best_effort(100), Foreground)
                .unwrap();
            assert_eq!(
                allocator.free_space().free_clusters(),
                900,
                "{}",
                policy.name()
            );
            allocator.free(&extents).unwrap();
            assert_eq!(
                allocator.free_space().free_runs(),
                vec![Extent::new(0, 1000)]
            );
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
            let runs_before = allocator.free_space().free_runs();
            let err = allocator
                .allocate_into(&AllocRequest::best_effort(61), Foreground, &mut out)
                .unwrap_err();
            assert!(matches!(err, AllocError::OutOfSpace { .. }), "{err:?}");
            assert_eq!(out, vec![earlier], "{}", policy.name());
            assert_eq!(
                allocator.free_space().free_runs(),
                runs_before,
                "{}",
                policy.name()
            );

            // All 60 fit only in two pieces; they land after the earlier entry.
            allocator
                .allocate_into(&AllocRequest::best_effort(60), Foreground, &mut out)
                .unwrap();
            assert_eq!(out[0], earlier);
            assert_eq!(out.len(), 3, "{}", policy.name());
            assert_eq!(out[1].len + out[2].len, 60);
            assert_eq!(allocator.free_space().free_clusters(), 0);
        }
    }

    #[test]
    fn reserve_exact_pins_space_under_any_policy() {
        for policy in AllocationPolicy::ALL {
            let mut allocator = SelectableAllocator::new(policy, 100);
            allocator.reserve_exact(Extent::new(10, 5)).unwrap();
            assert_eq!(allocator.free_space().free_clusters(), 95);
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
            let foreground = allocator
                .allocate_as(&AllocRequest::best_effort(50), Foreground)
                .unwrap();
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
            assert!(allocator
                .allocate_as(&AllocRequest::best_effort(10), Foreground)
                .is_ok());
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
        let runs_before = allocator.free_space().free_runs();
        let err = allocator
            .allocate_as(&AllocRequest::best_effort(100), maintenance(0))
            .unwrap_err();
        assert!(matches!(err, AllocError::OutOfSpace { .. }));
        assert_eq!(
            allocator.free_space().free_runs(),
            runs_before,
            "a refused maintenance allocation must leave no trace"
        );
    }

    /// A refused request that carved its way through whole blocks of the
    /// free map — emptying and merging them, its rollback splitting them
    /// again — leaves the map answering exactly as before.
    #[test]
    fn rollback_across_block_splits_restores_the_map() {
        const RUNS: u64 = 600;
        for policy in AllocationPolicy::ALL {
            // Two-cluster free runs a cluster apart; maintenance may use the
            // upper half.
            let mut allocator =
                SelectableAllocator::with_placement(policy, 3 * RUNS, PlacementPolicy::banded(0.5));
            for k in 0..RUNS {
                allocator.reserve_exact(Extent::new(3 * k + 2, 1)).unwrap();
            }
            let map = allocator.free_space();
            let before = (
                map.free_runs(),
                map.largest(),
                map.run_lens_desc().collect::<Vec<_>>(),
            );
            // More than the band's 300 runs hold, less than the volume's.
            let earlier = Extent::new(2, 1);
            let mut out = vec![earlier];
            let err = allocator
                .allocate_into(&AllocRequest::best_effort(700), maintenance(0), &mut out)
                .unwrap_err();
            assert!(matches!(err, AllocError::OutOfSpace { .. }), "{err:?}");
            assert_eq!(out, vec![earlier], "{}", policy.name());
            let map = allocator.free_space();
            assert_eq!(map.verify(), Ok(()), "{}", policy.name());
            let after = (
                map.free_runs(),
                map.largest(),
                map.run_lens_desc().collect::<Vec<_>>(),
            );
            assert_eq!(after, before, "{}", policy.name());
        }
    }

    /// A restricted consumer never takes the extension hint: the request is
    /// placed inside the constraint or refused, under every strategy.
    #[test]
    fn hinted_maintenance_is_placed_inside_the_constraint_or_refused() {
        for policy in AllocationPolicy::ALL {
            // Banded: the hint starts the free run [100, 1000), whose first
            // 800 clusters are foreground band.
            let mut allocator =
                SelectableAllocator::with_placement(policy, 1000, PlacementPolicy::banded(0.9));
            allocator.reserve_exact(Extent::new(0, 100)).unwrap();
            let hinted = AllocRequest::best_effort(20).with_hint(100);
            let extents = allocator.allocate_as(&hinted, maintenance(0)).unwrap();
            assert!(
                extents.iter().all(|e| e.start >= 900),
                "{}: {extents:?} must lie in the maintenance band",
                policy.name()
            );
            // With the maintenance band full the request is refused.
            allocator.reserve_exact(Extent::new(920, 80)).unwrap();
            let runs_before = allocator.free_space().free_runs();
            let err = allocator.allocate_as(&hinted, maintenance(0)).unwrap_err();
            assert!(matches!(err, AllocError::OutOfSpace { .. }), "{err:?}");
            assert_eq!(allocator.free_space().free_runs(), runs_before);

            // Reserve: the hint starts the 899-cluster tail, far above the
            // 50-cluster watermark; [0..40) and [60..100) are allowed.
            let mut allocator =
                SelectableAllocator::with_placement(policy, 1000, PlacementPolicy::Reserve);
            allocator.reserve_exact(Extent::new(40, 20)).unwrap();
            allocator.reserve_exact(Extent::new(100, 1)).unwrap();
            let hinted = AllocRequest::best_effort(60).with_hint(101);
            let extents = allocator.allocate_as(&hinted, maintenance(50)).unwrap();
            assert_eq!(
                extents,
                vec![Extent::new(60, 40), Extent::new(0, 20)],
                "{}",
                policy.name()
            );
            // The 20 allowed clusters left cannot hold 60 more.
            let runs_before = allocator.free_space().free_runs();
            let err = allocator.allocate_as(&hinted, maintenance(50)).unwrap_err();
            assert!(matches!(err, AllocError::OutOfSpace { .. }), "{err:?}");
            assert_eq!(allocator.free_space().free_runs(), runs_before);
        }
    }
}
