//! Micro-kernels: the layers too cheap per call to time inside a rep are
//! timed in isolation — at least 1e5 calls a batch, the median of five
//! batches — on the state the workload aged where that matters (`alloc`).

use std::hint::black_box;
use std::time::Instant;

use lor_core::lor_alloc::{Extent, FitPolicy, FreeSpace, RunIndexMap};
use lor_core::lor_disksim::SimDuration;
use lor_core::lor_obs::{Obs, Track};
use lor_core::{
    LatencyHistogram, ObjectKey, PlacementConsumer, PlacementPolicy, StoreServer,
    WorkloadGenerator, WorkloadOp, WorkloadSpec,
};
use lor_shard::Router;

use crate::stats::median;
use crate::timed_store::NullStore;
use crate::workloads::FLEET_ROUTER;

const BATCHES: usize = 5;
const CALLS: u64 = 100_000;

/// Median over `BATCHES` runs of `batch` of (elapsed ns ÷ calls it reports).
fn ns_per_call(mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let calls = batch();
            started.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// A cheap deterministic value stream for kernel inputs.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

pub struct AllocKernels {
    pub free_runs: u64,
    pub pick_ns: f64,
    pub take_free_ns: f64,
    pub largest_ns: f64,
}

/// `alloc` on (a clone of) the aged free map, at the workload's
/// write-request length `len` in the map's own units, picking as the
/// workload's own config does: `fit` is what its allocation policy resolves
/// to where the substrate's pick is fit-shaped (`Native` is first fit in
/// `blobkit`, and the segment log takes the first free segment), `placement`
/// its placement policy.  `fskit`'s native run cache is not fit-shaped and
/// keeps its state private, so on `age_fs` this is the first-fit walk over
/// the same aged map, not the cache's own pick.
pub fn alloc(
    map: &RunIndexMap,
    len: u64,
    fit: FitPolicy,
    placement: PlacementPolicy,
) -> AllocKernels {
    let pick = |map: &RunIndexMap| {
        fit.pick_placed(map, len, 0, placement, PlacementConsumer::Foreground, 1)
    };
    let pick_ns = ns_per_call(|| {
        for _ in 0..CALLS {
            black_box(pick(black_box(map)));
        }
        CALLS
    });
    let mut scratch = map.clone();
    let take_free_ns = ns_per_call(|| {
        let Some(run) = pick(&scratch) else { return 1 };
        let taken = Extent::new(run.start, len.min(run.len));
        for _ in 0..CALLS {
            scratch.reserve(taken).expect("picked run is free");
            scratch.release(taken).expect("just reserved");
        }
        CALLS
    });
    let largest_ns = ns_per_call(|| {
        for _ in 0..CALLS {
            black_box(black_box(map).largest());
        }
        CALLS
    });
    AllocKernels {
        free_runs: map.run_count() as u64,
        pick_ns,
        take_free_ns,
        largest_ns,
    }
}

/// `LatencyHistogram::record` over a spread of latencies.
pub fn hist_record_ns() -> f64 {
    let mut hist = LatencyHistogram::new();
    let mut state = 7u64;
    ns_per_call(|| {
        for _ in 0..CALLS {
            hist.record(lcg(&mut state) % 50_000_000);
        }
        black_box(hist.count());
        CALLS
    })
}

/// `Obs::span` on the inert handle and on a tracing one.
pub fn obs_span_ns() -> (f64, f64) {
    let span = |obs: &Obs, at: u64| {
        obs.span(
            Track::Server,
            "kernel",
            at,
            1,
            &[("bytes", at.into()), ("fragments", 1u64.into())],
        )
    };
    let null = Obs::null();
    let null_ns = ns_per_call(|| {
        for at in 0..CALLS {
            span(black_box(&null), at);
        }
        CALLS
    });
    let (tracing, _handle) = Obs::trace(4096);
    let trace_ns = ns_per_call(|| {
        for at in 0..CALLS {
            span(&tracing, at);
        }
        CALLS
    });
    (null_ns, trace_ns)
}

/// `bulk_load` plus two `overwrite_round`s of the workload's own spec.
pub fn workload_gen_ns(spec: &WorkloadSpec) -> f64 {
    ns_per_call(|| {
        let mut generator = WorkloadGenerator::new(spec.clone());
        let mut ops = generator.bulk_load().len();
        ops += generator.overwrite_round().len();
        ops += generator.overwrite_round().len();
        black_box(&generator);
        ops as u64
    })
}

/// Safe writes the null-store kernel dispatches per batch.
const NULL_OPS: u64 = 2 * CALLS;
const NULL_CLIENTS: usize = 4;

/// The ops of one null-store batch.
fn null_ops() -> Vec<WorkloadOp> {
    (0..NULL_OPS)
        .map(|i| WorkloadOp::SafeWrite {
            key: ObjectKey(i % 1024),
            size: 1,
        })
        .collect()
}

/// `StoreServer::run_closed_loop` over the constant-receipt `NullStore`:
/// queueing, batching, key strings and completions, with no store below.
pub fn server_null_ns() -> f64 {
    ns_per_call(|| {
        let mut store = NullStore::default();
        let mut server = StoreServer::new(&mut store);
        let completions = server
            .run_closed_loop(null_ops(), NULL_CLIENTS, SimDuration::ZERO)
            .expect("the null store cannot fail");
        black_box(completions.len()) as u64
    })
}

/// `Router::route` on the fleet's router.
pub fn route_ns(shards: u32) -> f64 {
    let router = Router::new(FLEET_ROUTER, shards);
    ns_per_call(|| {
        let mut sum = 0u64;
        for key in 0..CALLS {
            sum += u64::from(router.route(ObjectKey(black_box(key)), 256 << 10));
        }
        black_box(sum);
        CALLS
    })
}
