//! The request/completion scheduler's backward-compatibility contract: a
//! single-client, zero-think-time request schedule reproduces the *exact*
//! receipts and elapsed clock of the old serial call path on all three stores,
//! and a multi-client zero-think-time schedule reproduces the old harness's
//! chunked `safe_write_batch` concurrency semantics.

use lor_core::lor_disksim::SimDuration;
use lor_core::{
    ExperimentConfig, ObjectKey, ObjectStore, OpReceipt, SizeDistribution, StoreKind, StoreServer,
    WorkloadOp,
};
use proptest::prelude::*;

const MB: u64 = 1 << 20;

fn build(kind: StoreKind) -> Box<dyn ObjectStore> {
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(MB));
    config.volume_bytes = 128 * MB;
    config.build_store(kind).expect("store builds")
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
            let mut live = Vec::new();
            let ops: Vec<WorkloadOp> = raw
                .iter()
                .filter_map(|&(op, key, size)| concretize(&mut live, op, key, size))
                .collect();
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
            // Serial schedules never queue: latency is pure service time.
            for completion in &completions {
                prop_assert_eq!(completion.queue_delay(), SimDuration::ZERO);
                prop_assert_eq!(completion.latency(), completion.receipt.total_time());
            }
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
