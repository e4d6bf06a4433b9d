//! Key-to-shard routing.
//!
//! The router decides where a **new** object lands; existing objects are
//! found through the [`crate::ShardedStore`]'s directory, which rebalancing
//! updates as it migrates objects.  Routing is pure arithmetic over the key
//! (no RNG), so a fixed policy routes bit-identically across runs — the
//! property the sharded arrival streams rely on for seed stability.  The
//! one piece of state, [`RouterPolicy::FragAware`]'s per-shard
//! fragmentation snapshot, is updated by the fleet only between
//! measurement intervals, so routing stays a pure function *within* every
//! interval and reproducible across runs of the same schedule.

use lor_core::ObjectKey;
use serde::{Deserialize, Serialize};

/// Salt folded into ring-position hashing so key hashes and vnode positions
/// come from unrelated points of the splitmix sequence.
const VNODE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Salt for the large-object arm of [`RouterPolicy::SizeAware`], so large
/// objects spread independently of where their key would land small.
const LARGE_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// How new objects are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Classic consistent hashing: each shard owns `vnodes` pseudo-random
    /// points on a 64-bit ring and a key belongs to the first point at or
    /// after its hash.  Adding one shard to an `n`-shard fleet moves only
    /// the keys whose successor became one of the new shard's points —
    /// about `1/(n+1)` of them (property-tested).
    ConsistentHash {
        /// Ring points per shard; more points give a smoother split.
        vnodes: u32,
    },
    /// Size-aware refinement: objects of at least `threshold` bytes are
    /// spread uniformly by a separate hash (decorrelating large-object
    /// hotspots from the small-object map); smaller objects fall back to
    /// consistent hashing with `vnodes` points per shard.
    SizeAware {
        /// Objects at or above this size take the large-object arm.
        threshold: u64,
        /// Ring points per shard for the small-object arm.
        vnodes: u32,
    },
    /// Popularity/fragmentation-aware refinement: consistent hashing, but
    /// a placement whose primary shard is fragmenting well above the
    /// fleet mean walks the ring to the next shard at or below it.  Hot
    /// keys are re-placed far more often than cold ones (every update
    /// churn re-routes them), so steering placements is precisely
    /// steering the hot working set away from high-fpo shards.  The
    /// per-shard fragmentation snapshot comes from the fleet's existing
    /// frag gauges via [`Router::set_fragmentation`].
    FragAware {
        /// Ring points per shard.
        vnodes: u32,
    },
}

impl RouterPolicy {
    /// Short label used in figure series names.
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::ConsistentHash { .. } => "consistent-hash",
            RouterPolicy::SizeAware { .. } => "size-aware",
            RouterPolicy::FragAware { .. } => "frag-aware",
        }
    }

    /// Whether this policy consumes per-shard fragmentation snapshots.
    pub fn is_frag_aware(&self) -> bool {
        matches!(self, RouterPolicy::FragAware { .. })
    }
}

/// How far above the fleet-mean fragments-per-object a shard may drift
/// before frag-aware routing steers new placements around it.  Matches
/// the rebalancer's minimum worst-vs-mean gap, so routing and migration
/// agree on what counts as "fragmenting".
const FRAG_ROUTE_GAP: f64 = 0.05;

/// A concrete routing table for a fleet of `shards` shards.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RouterPolicy,
    shards: u32,
    /// `(ring position, shard)`, sorted by position (shard breaks the
    /// astronomically unlikely position tie deterministically).
    ring: Vec<(u64, u32)>,
    /// Per-shard fragments-per-object snapshot for
    /// [`RouterPolicy::FragAware`]; empty (routing falls back to plain
    /// consistent hashing) until the fleet publishes one.
    frag: Vec<f64>,
}

/// The 64-bit splitmix finalizer: a cheap, well-mixed hash whose output is
/// reproducible everywhere (no platform-dependent hasher state).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Router {
    /// Builds the routing table for `shards` shards (at least 1).
    pub fn new(policy: RouterPolicy, shards: u32) -> Self {
        let shards = shards.max(1);
        let vnodes = match policy {
            RouterPolicy::ConsistentHash { vnodes }
            | RouterPolicy::SizeAware { vnodes, .. }
            | RouterPolicy::FragAware { vnodes } => vnodes.max(1),
        };
        let mut ring = Vec::with_capacity((shards * vnodes) as usize);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let position = splitmix64(((shard as u64) << 32 | vnode as u64) ^ VNODE_SALT);
                ring.push((position, shard));
            }
        }
        ring.sort_unstable();
        Router {
            policy,
            shards,
            ring,
            frag: Vec::new(),
        }
    }

    /// Publishes a per-shard fragments-per-object snapshot for
    /// [`RouterPolicy::FragAware`] routing.  Snapshots of the wrong
    /// length are ignored (the fleet always passes one entry per shard);
    /// other policies store it without consulting it.
    pub fn set_fragmentation(&mut self, fragments_per_object: &[f64]) {
        if fragments_per_object.len() == self.shards as usize {
            self.frag = fragments_per_object.to_vec();
        }
    }

    /// The policy this table was built from.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// The shard a new object of `size_bytes` keyed by `key` lands on.
    pub fn route(&self, key: ObjectKey, size_bytes: u64) -> u32 {
        match self.policy {
            RouterPolicy::SizeAware { threshold, .. } if size_bytes >= threshold => {
                (splitmix64(key.0 ^ LARGE_SALT) % self.shards as u64) as u32
            }
            RouterPolicy::FragAware { .. } => self.frag_route(splitmix64(key.0)),
            _ => self.ring_route(splitmix64(key.0)),
        }
    }

    /// First ring point at or after `hash`, wrapping at the top.
    fn ring_route(&self, hash: u64) -> u32 {
        let index = self.ring.partition_point(|&(position, _)| position < hash);
        let (_, shard) = self.ring[index % self.ring.len()];
        shard
    }

    /// Consistent-hash placement that walks past shards fragmenting well
    /// above the fleet mean.  Without a snapshot (or when the primary is
    /// healthy) this IS `ring_route`; with one, the walk visits ring
    /// points in successor order — the same deterministic order a shard
    /// removal would fail over along — and settles for the primary if
    /// every shard is equally bad.
    fn frag_route(&self, hash: u64) -> u32 {
        let index = self.ring.partition_point(|&(position, _)| position < hash);
        let (_, primary) = self.ring[index % self.ring.len()];
        if self.frag.len() != self.shards as usize {
            return primary;
        }
        let mean = self.frag.iter().sum::<f64>() / self.frag.len() as f64;
        let limit = mean + FRAG_ROUTE_GAP;
        if self.frag[primary as usize] <= limit {
            return primary;
        }
        for step in 1..=self.ring.len() {
            let (_, shard) = self.ring[(index + step) % self.ring.len()];
            if shard != primary && self.frag[shard as usize] <= limit {
                return shard;
            }
        }
        primary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let router = Router::new(RouterPolicy::ConsistentHash { vnodes: 16 }, 4);
        let again = Router::new(RouterPolicy::ConsistentHash { vnodes: 16 }, 4);
        for k in 0..500u64 {
            let shard = router.route(ObjectKey(k), 1 << 20);
            assert!(shard < 4);
            assert_eq!(shard, again.route(ObjectKey(k), 1 << 20));
        }
    }

    #[test]
    fn consistent_hash_spreads_keys_over_every_shard() {
        let router = Router::new(RouterPolicy::ConsistentHash { vnodes: 32 }, 4);
        let mut counts = [0usize; 4];
        for k in 0..2000u64 {
            counts[router.route(ObjectKey(k), 0) as usize] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 200,
                "shard {shard} got only {count}/2000 keys — split too lumpy"
            );
        }
    }

    #[test]
    fn size_aware_splits_classes_but_stays_deterministic() {
        let threshold = 1 << 20;
        let router = Router::new(
            RouterPolicy::SizeAware {
                threshold,
                vnodes: 16,
            },
            4,
        );
        let small_as_hash = Router::new(RouterPolicy::ConsistentHash { vnodes: 16 }, 4);
        let mut diverged = 0;
        for k in 0..500u64 {
            // Below the threshold the size-aware router IS the consistent
            // hash; at or above it the large-object arm takes over.
            assert_eq!(
                router.route(ObjectKey(k), threshold - 1),
                small_as_hash.route(ObjectKey(k), threshold - 1)
            );
            if router.route(ObjectKey(k), threshold) != router.route(ObjectKey(k), threshold - 1) {
                diverged += 1;
            }
        }
        assert!(
            diverged > 100,
            "large objects must use their own map ({diverged}/500 diverged)"
        );
        assert_eq!(router.policy().label(), "size-aware");
    }

    #[test]
    fn frag_aware_without_snapshot_is_plain_consistent_hashing() {
        let frag = Router::new(RouterPolicy::FragAware { vnodes: 16 }, 4);
        let plain = Router::new(RouterPolicy::ConsistentHash { vnodes: 16 }, 4);
        for k in 0..500u64 {
            assert_eq!(
                frag.route(ObjectKey(k), 1 << 20),
                plain.route(ObjectKey(k), 1 << 20)
            );
        }
        assert!(frag.policy().is_frag_aware());
        assert_eq!(frag.policy().label(), "frag-aware");
    }

    #[test]
    fn frag_aware_steers_placements_off_the_fragmented_shard() {
        let mut router = Router::new(RouterPolicy::FragAware { vnodes: 16 }, 4);
        let plain = Router::new(RouterPolicy::ConsistentHash { vnodes: 16 }, 4);
        // Shard 2 is fragmenting far above the fleet mean.
        router.set_fragmentation(&[1.0, 1.0, 3.0, 1.0]);
        let mut steered = 0;
        for k in 0..2000u64 {
            let shard = router.route(ObjectKey(k), 1 << 20);
            assert_ne!(shard, 2, "no new placement may land on the hot shard");
            if plain.route(ObjectKey(k), 1 << 20) == 2 {
                steered += 1;
            }
        }
        assert!(
            steered > 300,
            "the hot shard's fair share must actually be re-routed ({steered}/2000)"
        );
        // Routing with a snapshot is still deterministic.
        let again = router.clone();
        for k in 0..500u64 {
            assert_eq!(router.route(ObjectKey(k), 1), again.route(ObjectKey(k), 1));
        }
        // A healthy fleet routes exactly like consistent hashing.
        router.set_fragmentation(&[1.0, 1.01, 1.0, 1.02]);
        for k in 0..500u64 {
            assert_eq!(router.route(ObjectKey(k), 1), plain.route(ObjectKey(k), 1));
        }
    }
}
