//! The request/completion scheduler's backward-compatibility contract: a
//! single-client, zero-think-time request schedule reproduces the *exact*
//! receipts and elapsed clock of the old serial call path on all three stores,
//! and a multi-client zero-think-time schedule reproduces the old harness's
//! chunked `safe_write_batch` concurrency semantics.  And the unification
//! contract: closed and open arrivals share one event loop, so a closed-loop
//! run replayed as the open schedule of its own arrivals is the same run.

use lor_core::lor_disksim::SimDuration;
use lor_core::{
    Arrivals, ExperimentConfig, MaintenanceConfig, ObjectKey, ObjectStore, OpReceipt,
    SizeDistribution, StoreKind, StoreRequest, StoreServer, WorkloadOp,
};
use proptest::prelude::*;

const MB: u64 = 1 << 20;

fn build(kind: StoreKind) -> Box<dyn ObjectStore> {
    build_with(kind, None)
}

fn build_with(kind: StoreKind, maintenance: Option<MaintenanceConfig>) -> Box<dyn ObjectStore> {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(MB));
    config.volume_bytes = 128 * MB;
    config.maintenance = maintenance;
    config.build_store(kind).expect("store builds")
}

/// The valid operations of a raw `(kind, key, size)` list, in order.
fn concretize_all(raw: &[(u8, u8, u32)]) -> Vec<WorkloadOp> {
    let mut live = Vec::new();
    raw.iter()
        .filter_map(|&(op, key, size)| concretize(&mut live, op, key, size))
        .collect()
}

/// Interprets an abstract `(kind, key, size)` triple as a *valid* operation
/// against the store's current population, mirroring what the old serial
/// harness could express: put new objects, safe-write or read or delete
/// existing ones.  Returns `None` when the triple has no valid
/// interpretation (e.g. a read of a key that never existed).
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

/// The old serial call path: direct trait calls, with safe writes going
/// through `safe_write_batch` in singleton batches exactly as the old
/// harness did at concurrency 1.
fn run_serial(store: &mut dyn ObjectStore, ops: &[WorkloadOp]) -> Vec<OpReceipt> {
    let mut receipts = Vec::with_capacity(ops.len());
    for op in ops {
        let receipt = match *op {
            WorkloadOp::Put { key, size } => store.put(&key.to_string(), size).expect("valid op"),
            WorkloadOp::Get { key } => store.get(&key.to_string()).expect("valid op"),
            WorkloadOp::SafeWrite { key, size } => store
                .safe_write_batch(&[(key.to_string(), size)])
                .expect("valid op")
                .remove(0),
            WorkloadOp::Delete { key } => store.delete(&key.to_string()).expect("valid op"),
        };
        receipts.push(receipt);
    }
    receipts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One client, zero think time: receipt-for-receipt and clock-for-clock
    /// identical to the serial path, on all three substrates.
    #[test]
    fn single_client_schedule_is_the_serial_path(
        raw in prop::collection::vec((0u8..4, 0u8..8, 1u32..48), 1..40)
    ) {
        for kind in StoreKind::ALL {
            let ops = concretize_all(&raw);
            prop_assume!(!ops.is_empty());

            let mut serial_store = build(kind);
            let serial_receipts = run_serial(serial_store.as_mut(), &ops);
            let serial_elapsed = serial_store.elapsed();

            let mut store = build(kind);
            let mut server = StoreServer::new(store.as_mut());
            let completions = server
                .run_closed_loop(ops.clone(), 1, SimDuration::ZERO)
                .expect("schedule runs");

            prop_assert_eq!(completions.len(), ops.len());
            let receipts: Vec<OpReceipt> = completions.iter().map(|c| c.receipt).collect();
            prop_assert_eq!(&receipts, &serial_receipts, "{:?}: receipts diverge", kind);
            prop_assert_eq!(
                server.store().elapsed(),
                serial_elapsed,
                "{:?}: elapsed clock diverges",
                kind
            );
            // Two identical runs list the same keys in the same order, on
            // the substrates whose name index is hashed too.
            prop_assert_eq!(server.store().keys(), serial_store.keys(), "{:?}: keys", kind);
            // Serial schedules never queue: latency is pure service time.
            for completion in &completions {
                prop_assert_eq!(completion.queue_delay(), SimDuration::ZERO);
                prop_assert_eq!(completion.latency(), completion.receipt.total_time());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Closed ≡ open replay: the `(arrival, client, op)` of a closed-loop
    /// run's completions, offered again as an open schedule to a twin store,
    /// reproduce every start, finish, maintenance delay and receipt, the
    /// queue statistics and both clocks — with and without idle gaps for the
    /// server-driven maintenance drive to fill (a 20 ms think time opens
    /// gaps wider than the 5 ms the policy asks for).
    #[test]
    fn closed_loop_replays_as_an_open_schedule_of_its_own_arrivals(
        raw in prop::collection::vec((0u8..4, 0u8..8, 1u32..48), 1..40),
        clients in 1usize..=8,
        think in 0usize..3,
        idle_detect in any::<bool>(),
    ) {
        let ops = concretize_all(&raw);
        let maintenance = idle_detect.then(|| MaintenanceConfig::idle_detect(5.0));
        let think_time = SimDuration::from_millis([0, 2, 20][think]);
        for kind in StoreKind::ALL {
            let mut closed_store = build_with(kind, maintenance);
            let mut closed = StoreServer::new(closed_store.as_mut());
            let recorded = closed
                .run_closed_loop(ops.clone(), clients, think_time)
                .expect("closed loop runs");
            prop_assert_eq!(recorded.len(), ops.len());

            let schedule: Vec<StoreRequest> = recorded.iter().map(|c| c.request.clone()).collect();
            let mut open_store = build_with(kind, maintenance);
            let mut open = StoreServer::new(open_store.as_mut());
            let mut replayed = Vec::with_capacity(schedule.len());
            open.run(Arrivals::Open(schedule), |c| replayed.push(c))
                .expect("replay runs");

            prop_assert_eq!(&replayed, &recorded, "{:?}: completions diverge", kind);
            prop_assert_eq!(open.queue_stats(), closed.queue_stats(), "{:?}", kind);
            prop_assert_eq!(open.now(), closed.now(), "{:?}", kind);
            prop_assert_eq!(open.store().elapsed(), closed.store().elapsed(), "{:?}", kind);
            prop_assert_eq!(
                open.store().maintenance_stats(),
                closed.store().maintenance_stats(),
                "{:?}",
                kind
            );
        }
    }
}

/// N clients with zero think time reproduce the old harness's
/// `round.chunks(N)` batching: same receipts, same clock.
#[test]
fn multi_client_schedule_matches_the_chunked_batches() {
    for kind in StoreKind::ALL {
        for clients in [2usize, 4, 7] {
            let keys: Vec<ObjectKey> = (0..12).map(ObjectKey).collect();

            // Reference: the old harness loop.
            let mut reference = build(kind);
            for key in &keys {
                reference.put(&key.to_string(), MB).unwrap();
            }
            reference.reset_measurements();
            let round: Vec<(String, u64)> = keys.iter().map(|k| (k.to_string(), MB)).collect();
            let mut reference_receipts = Vec::new();
            for batch in round.chunks(clients) {
                reference_receipts.extend(reference.safe_write_batch(batch).unwrap());
            }
            let reference_elapsed = reference.elapsed();

            // The new API: a closed loop of `clients` zero-think clients.
            let mut store = build(kind);
            let mut server = StoreServer::new(store.as_mut());
            let puts: Vec<WorkloadOp> = keys
                .iter()
                .map(|&k| WorkloadOp::Put { key: k, size: MB })
                .collect();
            server.run_closed_loop(puts, 1, SimDuration::ZERO).unwrap();
            server.store_mut().reset_measurements();
            let writes: Vec<WorkloadOp> = keys
                .iter()
                .map(|&k| WorkloadOp::SafeWrite { key: k, size: MB })
                .collect();
            let completions = server
                .run_closed_loop(writes, clients, SimDuration::ZERO)
                .unwrap();

            let receipts: Vec<OpReceipt> = completions.iter().map(|c| c.receipt).collect();
            assert_eq!(
                receipts, reference_receipts,
                "{kind:?}/{clients} clients: batch receipts diverge"
            );
            assert_eq!(
                server.store().elapsed(),
                reference_elapsed,
                "{kind:?}/{clients} clients: elapsed clock diverges"
            );
        }
    }
}
