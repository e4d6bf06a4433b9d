//! # lor-shard — a fleet of independent large-object repositories
//!
//! The paper studies one server with one spindle; real deployments of its
//! workloads (web mail, photo stores, document repositories — Section 2)
//! spread objects across many such servers.  This crate scales the
//! single-spindle model out rather than up: a [`ShardedStore`] owns N
//! complete, *independent* shards — each a full [`lor_core::ObjectStore`]
//! with its own simulated drive and its own maintenance drive — so every
//! per-shard result from the rest of the workspace (fragmentation growth,
//! the latency hockey stick, maintenance interference) holds unchanged
//! inside each shard, and the new phenomena are purely cross-shard:
//!
//! * **Routing** ([`Router`], [`RouterPolicy`]) — where new objects land.
//!   Consistent hashing (vnode ring) keeps reshards cheap (adding one shard
//!   to an `n`-shard fleet moves ~`1/(n+1)` of the keys — property-tested).
//!   Routing is pure arithmetic over the key — bit-identical across runs —
//!   so sharded arrival streams stay seed-stable.
//! * **Aggregate load splitting** — a schedule is built *once* at the
//!   aggregate offered rate ([`lor_core::OpenLoop::schedule`],
//!   [`lor_core::MixedOpenLoop::schedule`]) and partitioned across shards
//!   by [`ShardedStore::run`], which makes a fleet of one bit-identical to a bare
//!   [`lor_core::StoreServer`] (the degenerate-equivalence e2e test) and
//!   keeps the offered pattern independent of the shard count.
//! * **Parallel execution** — because the shards are independent (own
//!   drives, own clocks, no shared state below the router), every fleet
//!   entry point drains per-shard sub-streams either serially or on a
//!   scoped worker pool ([`lor_core::FleetParallelism`], work-stealing when
//!   workers < shards), with **bit-identical** results either way:
//!   partitioning precedes the threads, each shard advances its own clock,
//!   and completions merge deterministically by `(arrival, client)` after
//!   the join.  A proptest pins serial ≡ parallel ≡ repeated-parallel for
//!   all three substrates.
//! * **Load-concurrent rebalancing** —
//!   [`ShardedStore::run_with_rebalance`] interleaves
//!   budgeted rebalance slices *inside* a measurement interval (the
//!   schedule is cut into arrival-time windows, one slice after each), so
//!   migration I/O competes with the foreground on the same spindles
//!   instead of running only between phases.
//! * **Fan-out reads** ([`ShardedStore::run_fanout_reads`],
//!   [`FanoutCompletion`]) — a multi-object read issues its sub-reads at one
//!   instant and completes when the slowest shard does; per-shard parts are
//!   kept so tail amplification can be attributed to the straggler.
//! * **Rebalancing** ([`ShardedStore::run_rebalance_slice`],
//!   [`RebalanceState`]) — budgeted object migration from the
//!   most-fragmented shard to the least, the one fleet-level background
//!   duty (checkpoint, cleanup and defragmentation stay with each shard's
//!   own maintenance drive).  Destination writes go through the allocator's
//!   *maintenance* placement consumer, so migration can be refused — but
//!   never allowed to crowd a destination shard's foreground band.
//!
//! Per-shard fragmentation, queue depth, and band occupancy are emitted as
//! gauges (and per-interval spans on [`lor_obs::Track::Shard`] tracks) when
//! an [`lor_obs::Obs`] handle is attached.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fanout;
mod rebalance;
mod router;
mod store;

pub use fanout::{fanout_p99_ms, FanoutCompletion, FanoutPart};
pub use rebalance::RebalanceState;
pub use router::{Router, RouterPolicy};
pub use store::ShardedStore;
