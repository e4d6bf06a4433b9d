//! The observability layer's transparency contract: attaching a
//! `TraceRecorder` to a run must not change the simulation by one
//! nanosecond.  An identical request schedule executed with the default
//! null `Obs` and with a live trace must produce bit-identical
//! receipts, the same final simulated clock, the same fragmentation
//! summary and the same per-completion attribution — on all three substrates,
//! with server-driven maintenance enabled so every instrumented path
//! (request spans, background-slice spans, scheduler task spans, probe
//! gauges) actually fires.

use lor_core::lor_disksim::SimDuration;
use lor_core::lor_obs::Obs;
use lor_core::{
    Completion, ExperimentConfig, MaintenanceConfig, ObjectKey, ObjectStore, OpReceipt,
    SizeDistribution, StoreKind, StoreServer, WorkloadOp,
};
use proptest::prelude::*;

const MB: u64 = 1 << 20;

fn build(kind: StoreKind) -> Box<dyn ObjectStore> {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(MB));
    config.volume_bytes = 128 * MB;
    // Server-driven maintenance makes the traced run exercise the
    // background-slice and scheduler-task instrumentation, not just the
    // per-request spans.
    let config = config.with_maintenance(MaintenanceConfig::fixed_budget(16).with_server_drive());
    config.build_store(kind).expect("store builds")
}

/// Interprets an abstract `(kind, key, size)` triple as a *valid* operation
/// against the store's current population (same scheme as the
/// server-equivalence suite).
fn concretize(live: &mut Vec<ObjectKey>, kind: u8, key: u8, size_kb: u32) -> Option<WorkloadOp> {
    let key_name = ObjectKey(u64::from(key % 8));
    let size = u64::from(size_kb) * 64 * 1024;
    let exists = live.contains(&key_name);
    match kind % 4 {
        0 => {
            if exists {
                Some(WorkloadOp::SafeWrite {
                    key: key_name,
                    size,
                })
            } else {
                live.push(key_name);
                Some(WorkloadOp::Put {
                    key: key_name,
                    size,
                })
            }
        }
        1 => exists.then_some(WorkloadOp::Get { key: key_name }),
        2 => {
            if exists {
                live.retain(|k| k != &key_name);
                Some(WorkloadOp::Delete { key: key_name })
            } else {
                None
            }
        }
        _ => exists.then_some(WorkloadOp::SafeWrite {
            key: key_name,
            size,
        }),
    }
}

/// Runs the schedule on a fresh store with the given recorder attached and
/// returns everything an observer could compare.  The arbitrary ops run
/// serially (their validity assumes program order); a multi-client
/// safe-write round over the surviving keys follows, so batching and
/// queueing are exercised too.
fn run_with_obs(
    kind: StoreKind,
    ops: &[WorkloadOp],
    live: &[ObjectKey],
    clients: usize,
    obs: Option<Obs>,
) -> (
    Vec<Completion>,
    SimDuration,
    lor_core::lor_alloc::FragmentationSummary,
) {
    let mut store = build(kind);
    let mut server = StoreServer::new(store.as_mut());
    if let Some(obs) = obs {
        server.set_obs(obs, SimDuration::from_millis(50));
    }
    let mut completions = server
        .run_closed_loop(ops.to_vec(), 1, SimDuration::ZERO)
        .expect("schedule runs");
    let round: Vec<WorkloadOp> = live
        .iter()
        .map(|&key| WorkloadOp::SafeWrite { key, size: MB })
        .collect();
    completions.extend(
        server
            .run_closed_loop(round, clients, SimDuration::ZERO)
            .expect("round runs"),
    );
    let elapsed = server.store().elapsed();
    let fragmentation = server.store().fragmentation();
    (completions, elapsed, fragmentation)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Null vs trace: bit-identical receipts, clock, fragmentation and
    /// attribution under arbitrary valid op sequences, on all three substrates,
    /// at one and several clients.
    #[test]
    fn tracing_never_perturbs_the_simulation(
        raw in prop::collection::vec((0u8..4, 0u8..8, 1u32..48), 1..40),
        clients in 1usize..4
    ) {
        for kind in StoreKind::ALL {
            let mut live = Vec::new();
            let ops: Vec<WorkloadOp> = raw
                .iter()
                .filter_map(|&(op, key, size)| concretize(&mut live, op, key, size))
                .collect();
            prop_assume!(!ops.is_empty());

            let (null_completions, null_elapsed, null_frag) =
                run_with_obs(kind, &ops, &live, clients, None);

            let (obs, handle) = Obs::trace(1 << 18);
            let (traced_completions, traced_elapsed, traced_frag) =
                run_with_obs(kind, &ops, &live, clients, Some(obs));

            prop_assert_eq!(traced_elapsed, null_elapsed, "{:?}: clock diverges", kind);
            prop_assert_eq!(&traced_frag, &null_frag, "{:?}: fragmentation diverges", kind);
            prop_assert_eq!(traced_completions.len(), null_completions.len());
            for (traced, null) in traced_completions.iter().zip(&null_completions) {
                let (t, n): (&OpReceipt, &OpReceipt) = (&traced.receipt, &null.receipt);
                prop_assert_eq!(t, n, "{:?}: receipts diverge", kind);
                prop_assert_eq!(traced.start, null.start);
                prop_assert_eq!(traced.finish, null.finish);
                prop_assert_eq!(traced.maint_delay, null.maint_delay);
            }

            // The traced run actually recorded something, and what it
            // recorded round-trips through the validated export format.
            prop_assert!(handle.span_count() > 0, "{:?}: no spans captured", kind);
            let check = lor_core::lor_obs::validate_chrome_trace(&handle.to_chrome_json())
                .expect("exported trace validates");
            prop_assert_eq!(check.span_events, handle.span_count());
        }
    }
}
