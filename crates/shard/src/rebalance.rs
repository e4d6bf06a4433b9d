//! Cross-shard rebalancing: budgeted migration between shards.
//!
//! Checkpointing, ghost cleanup and defragmentation are per-shard duties
//! (each shard's own maintenance drive owns them); the one fleet-level duty
//! is [`Rebalancer::migrate_step`], which the fleet calls directly with a
//! byte budget and which migrates the most-fragmented objects from the
//! worst shard to the best one.  The destination write goes through
//! [`lor_core::ObjectStore::migrate_in`] — the allocator's *maintenance*
//! consumer — so migration traffic can only land in space the placement
//! policy has ceded to maintenance.  A destination whose maintenance band
//! is full **refuses** the object (counted, not forced), which is exactly
//! the guarantee that rebalancing never wrecks a shard's foreground band.

use std::collections::{HashMap, HashSet};

use lor_core::{ObjectKey, ObjectStore};
use lor_maint::MaintIo;

/// Only rebalance while the worst shard's fragments-per-object exceeds the
/// *fleet mean* by at least this much; below the gap, migration would just
/// ping-pong objects between statistically identical shards.  (The worst
/// shard is compared against the mean, not the best shard: migration lowers
/// the destination's fragmentation too — objects land contiguously in its
/// maintenance band — so a worst-vs-best rule would chase a floor that
/// keeps falling away and never converge.)
const MIN_FPO_GAP: f64 = 0.05;

/// Cumulative outcome of the rebalancing drive.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceState {
    /// Objects migrated between shards.
    pub objects_moved: u64,
    /// Migrations refused because the destination's maintenance band could
    /// not hold the object — the placement guarantee firing.
    pub refusals: u64,
}

/// A borrowed view of the fleet for the duration of one rebalancing slice.
pub(crate) struct Rebalancer<'a> {
    pub shards: &'a mut [Box<dyn ObjectStore>],
    pub directory: &'a mut HashMap<ObjectKey, u32>,
    pub state: &'a mut RebalanceState,
}

impl Rebalancer<'_> {
    /// `(worst, best)` shard indices by fragments-per-object — skipping
    /// sources with nothing movable (`dry`) and destinations that already
    /// refused an object (`full`) — or `None` when no pair with a
    /// sufficient skew gap remains.
    fn pick_pair(
        &self,
        dry_sources: &HashSet<u32>,
        full_dests: &HashSet<u32>,
    ) -> Option<(usize, usize)> {
        if self.shards.len() < 2 {
            return None;
        }
        let fpo: Vec<f64> = self
            .shards
            .iter()
            .map(|shard| shard.fragmentation().fragments_per_object)
            .collect();
        let worst = fpo
            .iter()
            .enumerate()
            .filter(|&(index, _)| !dry_sources.contains(&(index as u32)))
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(index, _)| index)?;
        let best = fpo
            .iter()
            .enumerate()
            .filter(|&(index, _)| index != worst && !full_dests.contains(&(index as u32)))
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(index, _)| index)?;
        let mean = fpo.iter().sum::<f64>() / fpo.len() as f64;
        if fpo[worst] - mean < MIN_FPO_GAP {
            return None;
        }
        Some((worst, best))
    }

    /// The source shard's migration candidates: its directory entries,
    /// most-fragmented first (key order breaks ties), fragment count > 1 —
    /// moving an already-contiguous object cannot improve the source's
    /// layout, it only burns budget.
    fn candidates(&self, source: u32) -> Vec<ObjectKey> {
        let mut keys: Vec<(u64, ObjectKey)> = self
            .directory
            .iter()
            .filter(|&(_, &shard)| shard == source)
            .map(|(&key, _)| {
                let fragments = self.shards[source as usize]
                    .layout_of(&key.to_string())
                    .map(|runs| runs.len() as u64)
                    .unwrap_or(0);
                (fragments, key)
            })
            .filter(|&(fragments, _)| fragments > 1)
            .collect();
        keys.sort_by(|a, b| b.0.cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
        keys.into_iter().map(|(_, key)| key).collect()
    }

    /// Migrates objects until about `budget_bytes` of background I/O has
    /// been transferred or no sufficiently skewed pair of shards remains
    /// (a zero budget does nothing).  Returns the I/O performed; its time
    /// has already been charged to the source and destination shards'
    /// clocks.
    pub fn migrate_step(&mut self, budget_bytes: u64) -> MaintIo {
        let mut io = MaintIo::NONE;
        // Re-pick the worst/best pair after every move so migration keeps
        // chasing the *current* skew instead of draining one source into one
        // destination.  A destination that refuses an object is full for the
        // rest of this step; a source with nothing movable is dry.
        let mut dry_sources: HashSet<u32> = HashSet::new();
        let mut full_dests: HashSet<u32> = HashSet::new();
        while io.bytes < budget_bytes {
            let Some((worst, best)) = self.pick_pair(&dry_sources, &full_dests) else {
                break;
            };
            let Some(key) = self.candidates(worst as u32).into_iter().next() else {
                dry_sources.insert(worst as u32);
                continue;
            };
            let name = key.to_string();
            let Ok(size) = self.shards[worst].size_of(&name) else {
                dry_sources.insert(worst as u32);
                continue;
            };
            // Read out of the source (charged to its clock like any other
            // background copy), then place into the destination as
            // maintenance traffic.
            let Ok(read) = self.shards[worst].get(&name) else {
                dry_sources.insert(worst as u32);
                continue;
            };
            let write = match self.shards[best].migrate_in(&name, size) {
                Ok(receipt) => receipt,
                Err(_) => {
                    // This destination's maintenance band cannot hold the
                    // object: the placement guarantee refuses the write.
                    self.state.refusals += 1;
                    full_dests.insert(best as u32);
                    continue;
                }
            };
            let dest = best as u32;
            let Ok(delete) = self.shards[worst].delete(&name) else {
                // The object now exists on both shards; keep the directory
                // pointing at the new copy and carry on.
                self.directory.insert(key, dest);
                continue;
            };
            self.directory.insert(key, dest);
            self.state.objects_moved += 1;
            io = io.combined(&MaintIo::new(
                read.transferred_bytes + write.transferred_bytes,
                read.total_time() + write.total_time() + delete.total_time(),
            ));
        }
        io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lor_alloc::PlacementPolicy;
    use lor_core::{ExperimentConfig, SizeDistribution, StoreKind};

    fn fleet(shards: u32) -> Vec<Box<dyn ObjectStore>> {
        let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(1 << 20));
        config.volume_bytes = 256 << 20;
        (0..shards)
            .map(|_| config.build_store(StoreKind::Filesystem).expect("build"))
            .collect()
    }

    #[test]
    fn no_migration_below_the_skew_gap() {
        let mut shards = fleet(2);
        let mut directory = HashMap::new();
        for index in 0..8u64 {
            let key = ObjectKey(index);
            let shard = (index % 2) as u32;
            shards[shard as usize]
                .put(&key.to_string(), 1 << 20)
                .expect("put");
            directory.insert(key, shard);
        }
        let mut state = RebalanceState::default();
        let mut target = Rebalancer {
            shards: &mut shards,
            directory: &mut directory,
            state: &mut state,
        };
        // Both shards are clean (1 fragment per object): nothing to move.
        let io = target.migrate_step(64 << 20);
        assert!(io.is_none());
        assert_eq!(state.objects_moved, 0);
    }

    #[test]
    fn migrates_fragmented_objects_from_the_worst_shard() {
        let mut shards = fleet(2);
        let mut directory = HashMap::new();
        // Shard 0: interleave appends so objects fragment badly.
        let keys: Vec<ObjectKey> = (0..6u64).map(ObjectKey).collect();
        let batch: Vec<(String, u64)> = keys.iter().map(|key| (key.to_string(), 4 << 20)).collect();
        for key in &keys {
            shards[0].put(&key.to_string(), 4 << 20).expect("seed");
            directory.insert(*key, 0);
        }
        shards[0]
            .safe_write_batch(&batch)
            .expect("fragmenting batch");
        // Shard 1: one clean object so fpo is defined and low.
        shards[1]
            .put(&ObjectKey(100).to_string(), 1 << 20)
            .expect("put");
        directory.insert(ObjectKey(100), 1);

        let before = shards[0].fragmentation().fragments_per_object;
        assert!(
            before > 1.05,
            "fixture must fragment shard 0 (fpo {before})"
        );

        let mut state = RebalanceState::default();
        let mut target = Rebalancer {
            shards: &mut shards,
            directory: &mut directory,
            state: &mut state,
        };
        let io = target.migrate_step(16 << 20);
        assert!(!io.is_none());
        assert!(io.bytes > 0 && io.time > lor_disksim::SimDuration::ZERO);
        assert!(state.objects_moved >= 1);
        assert_eq!(state.refusals, 0);

        // Moved objects changed shards in the directory and physically.
        let moved: Vec<&ObjectKey> = directory
            .iter()
            .filter(|&(key, &shard)| shard == 1 && key.0 < 100)
            .map(|(key, _)| key)
            .collect();
        assert_eq!(moved.len() as u64, state.objects_moved);
        for key in moved {
            assert!(shards[1].contains(&key.to_string()));
            assert!(!shards[0].contains(&key.to_string()));
        }
    }

    #[test]
    fn banded_destination_refuses_rather_than_spills() {
        let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(1 << 20));
        config.volume_bytes = 64 << 20;
        config.placement = PlacementPolicy::banded(0.95);
        let mut shards: Vec<Box<dyn ObjectStore>> = (0..2)
            .map(|_| config.build_store(StoreKind::Filesystem).expect("build"))
            .collect();
        let mut directory = HashMap::new();
        // Fragment shard 0 with an interleaved batch.
        let keys: Vec<ObjectKey> = (0..4u64).map(ObjectKey).collect();
        for key in &keys {
            shards[0].put(&key.to_string(), 4 << 20).expect("seed");
            directory.insert(*key, 0);
        }
        let batch: Vec<(String, u64)> = keys.iter().map(|key| (key.to_string(), 4 << 20)).collect();
        shards[0].safe_write_batch(&batch).expect("batch");
        shards[1]
            .put(&ObjectKey(100).to_string(), 1 << 20)
            .expect("put");
        directory.insert(ObjectKey(100), 1);

        let foreground_before = shards[1]
            .band_occupancy()
            .expect("banded store reports occupancy")
            .foreground_used;

        let mut state = RebalanceState::default();
        let mut target = Rebalancer {
            shards: &mut shards,
            directory: &mut directory,
            state: &mut state,
        };
        // A 95% boundary leaves ~3 MB of maintenance band: a 4 MB object
        // cannot fit, so the very first migration must be refused.
        let io = target.migrate_step(64 << 20);
        assert!(io.is_none());
        assert_eq!(state.refusals, 1);
        assert_eq!(state.objects_moved, 0);
        let foreground_after = shards[1]
            .band_occupancy()
            .expect("banded store reports occupancy")
            .foreground_used;
        assert_eq!(
            foreground_before, foreground_after,
            "a refused migration must not touch the destination's foreground band"
        );
        // Nothing left shard 0 and the directory still points there.
        for key in &keys {
            assert!(shards[0].contains(&key.to_string()));
            assert_eq!(directory[key], 0);
        }
    }
}
