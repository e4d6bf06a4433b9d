//! Key-to-shard routing.
//!
//! The router decides where a **new** object lands; existing objects are
//! found through the [`crate::ShardedStore`]'s directory, which rebalancing
//! updates as it migrates objects.  Routing is pure arithmetic over the key
//! (no RNG, no state), so it is bit-identical across runs — the property
//! the sharded arrival streams rely on for seed stability.

use lor_core::ObjectKey;
use serde::{Deserialize, Serialize};

/// Salt folded into ring-position hashing so key hashes and vnode positions
/// come from unrelated points of the splitmix sequence.
const VNODE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

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
}

/// A concrete routing table for a fleet of `shards` shards.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RouterPolicy,
    /// `(ring position, shard)`, sorted by position (shard breaks the
    /// astronomically unlikely position tie deterministically).
    ring: Vec<(u64, u32)>,
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
        let RouterPolicy::ConsistentHash { vnodes } = policy;
        let vnodes = vnodes.max(1);
        let mut ring = Vec::with_capacity((shards * vnodes) as usize);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let position = splitmix64(((shard as u64) << 32 | vnode as u64) ^ VNODE_SALT);
                ring.push((position, shard));
            }
        }
        ring.sort_unstable();
        Router { policy, ring }
    }

    /// The policy this table was built from.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// The shard a new object keyed by `key` lands on: the first ring point
    /// at or after the key's hash, wrapping at the top.  `_size_bytes` is
    /// unused; it is kept so callers' signatures stay put.
    pub fn route(&self, key: ObjectKey, _size_bytes: u64) -> u32 {
        let hash = splitmix64(key.0);
        let index = self.ring.partition_point(|&(position, _)| position < hash);
        let (_, shard) = self.ring[index % self.ring.len()];
        shard
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
}
