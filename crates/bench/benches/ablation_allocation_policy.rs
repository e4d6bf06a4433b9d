//! Ablation over allocation policies at two levels:
//!
//! * **Raw allocators** — the policies the paper's Section 3 surveys (first
//!   fit, best fit, worst fit, next fit and the NTFS-style run cache), all
//!   driven by the same allocate/free churn.
//! * **Whole stores** — the shared [`AllocationPolicy`] knob threaded from
//!   `ExperimentConfig` through **both** `FsObjectStore` and `DbObjectStore`
//!   into their substrates, so the same policy sweep runs against the
//!   filesystem volume and the database engine and reports the aged
//!   fragments/object each policy produces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lor_core::lor_alloc::{
    AllocRequest, AllocationPolicy, Allocator, FitPolicy, PolicyAllocator, RunCacheAllocator,
};
use lor_core::{run_aging_experiment, ExperimentConfig, SizeDistribution, StoreKind};

const VOLUME_CLUSTERS: u64 = 1 << 16;
const OBJECT_CLUSTERS: u64 = 64;

/// Steady-state churn: fill half the volume, then repeatedly free a victim
/// and allocate a replacement.  Returns the final mean fragments per object
/// so the optimizer cannot elide the work.
fn churn<A: Allocator>(mut allocator: A, rounds: usize) -> f64 {
    let count = (VOLUME_CLUSTERS / OBJECT_CLUSTERS / 2) as usize;
    let mut live: Vec<Vec<_>> = (0..count)
        .map(|_| {
            allocator
                .allocate(&AllocRequest::best_effort(OBJECT_CLUSTERS))
                .expect("bulk load fits")
        })
        .collect();
    for round in 0..rounds {
        let slot = (round * 7919) % live.len();
        let victim = std::mem::take(&mut live[slot]);
        allocator.free(&victim).expect("victim was live");
        live[slot] = allocator
            .allocate(&AllocRequest::best_effort(OBJECT_CLUSTERS))
            .expect("replacement fits");
    }
    let fragments: usize = live.iter().map(|extents| extents.len()).sum();
    fragments as f64 / live.len() as f64
}

fn bench_raw_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_allocation_policy");
    group.sample_size(10);
    let rounds = 2_000;

    for policy in FitPolicy::ALL {
        group.bench_with_input(
            BenchmarkId::new("fit", policy.name()),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    std::hint::black_box(churn(
                        PolicyAllocator::new(policy, VOLUME_CLUSTERS),
                        rounds,
                    ))
                })
            },
        );
    }
    group.bench_function("run-cache", |b| {
        b.iter(|| std::hint::black_box(churn(RunCacheAllocator::new(VOLUME_CLUSTERS), rounds)))
    });
    group.finish();
}

/// Ages a miniature store of the given kind under the given policy and
/// returns the final fragments/object — the paper's y-axis, now as a function
/// of the policy knob.
fn aged_fragments(kind: StoreKind, policy: AllocationPolicy) -> f64 {
    const MB: u64 = 1 << 20;
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(MB))
        .with_allocation_policy(policy);
    config.volume_bytes = 64 * MB;
    config.read_sample = None;
    let result = run_aging_experiment(kind, &config, &[3], false).expect("mini aging run");
    result
        .points
        .last()
        .expect("one checkpoint")
        .fragments_per_object
}

fn bench_store_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_store_allocation_policy");
    group.sample_size(10);
    for kind in [StoreKind::Filesystem, StoreKind::Database] {
        for policy in AllocationPolicy::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.label(), policy.name()),
                &policy,
                |b, &policy| b.iter(|| std::hint::black_box(aged_fragments(kind, policy))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_raw_allocators, bench_store_policies);
criterion_main!(benches);
