//! Unit tests of the benchmark's own machinery, each on a volume of a few
//! tens of MB so the whole module runs in seconds
//! (`cargo test --manifest-path lorbench/Cargo.toml`).

use std::collections::BTreeSet;

use lor_core::lor_disksim::SimDuration;
use lor_core::{
    run_aging_experiment, ObjectKey, ObjectStore, StoreKind, StoreServer, WorkloadGenerator,
    WorkloadOp,
};

use crate::digest::SimText;
use crate::reference::{Pacer, Reference};
use crate::spec::{MetricDecl, Workload, DEFAULT_SECONDS, END_TO_END, MAX_AGE, PER_LAYER};
use crate::timed_store::{Method, NullStore, TimedStore};
use crate::traced::{self, Untraced};
use crate::workloads;

/// A divisor large enough that every workload lands on its minimum volume.
const TINY: u64 = 1 << 20;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The text of the array under `key` in `BENCHMARK.json` (a flat scan: the
/// file's shape is fixed by the builder's contract).
fn section(key: &str) -> &'static str {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &BENCHMARK_JSON[start..];
    let open = rest.find('[').expect("array opens");
    let close = rest.find(']').expect("array closes");
    &rest[open..close]
}

/// Every value of string field `field` in `text`, in order.
fn field_values(text: &str, field: &str) -> Vec<String> {
    let marker = format!("\"{field}\": \"");
    text.match_indices(&marker)
        .map(|(at, _)| {
            let value = &text[at + marker.len()..];
            value[..value.find('"').expect("string closes")].to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_declared(key: &str, declared: &[MetricDecl]) {
    let text = section(key);
    let names = field_values(text, "name");
    let units = field_values(text, "unit");
    let betters = field_values(text, "better");
    assert_eq!(names.len(), declared.len(), "{key}: metric count");
    for (index, decl) in declared.iter().enumerate() {
        assert!(valid_name(decl.name), "{} is not a valid name", decl.name);
        assert_eq!(names[index], decl.name, "{key}[{index}] name");
        assert_eq!(units[index], decl.unit, "{}: unit", decl.name);
        assert_eq!(betters[index], decl.better.name(), "{}: better", decl.name);
    }
}

#[test]
fn names_are_valid_unique_and_match_benchmark_json() {
    assert_declared("end_to_end", &END_TO_END);
    assert_declared("per_layer", &PER_LAYER);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(field_values(section("workloads"), "name"), workloads);
    let all: Vec<&str> = workloads
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|decl| decl.name))
        .collect();
    assert!(all.iter().all(|name| valid_name(name)));
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    assert!(
        BENCHMARK_JSON.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")),
        "DEFAULT_SECONDS must equal run_seconds"
    );
}

/// Bulk load, two 4-client overwrite rounds and a read pass through a
/// `StoreServer` over `store`: the receipts, the clock and the layout.
fn drive(
    store: &mut dyn ObjectStore,
    workload: Workload,
) -> (
    Vec<lor_core::OpReceipt>,
    SimDuration,
    lor_core::lor_alloc::FragmentationSummary,
) {
    let params = workload.params(9, TINY);
    let mut generator = WorkloadGenerator::new(params.config.workload());
    let mut server = StoreServer::new(store);
    let mut receipts = Vec::new();
    let mut run = |ops: Vec<WorkloadOp>, clients: usize| {
        let completions = server
            .run_closed_loop(ops, clients, SimDuration::ZERO)
            .expect("tiny workload fits");
        receipts.extend(completions.iter().map(|c| c.receipt));
    };
    run(generator.bulk_load(), 1);
    run(generator.overwrite_round(), 4);
    run(generator.overwrite_round(), 4);
    run(generator.read_all(), 1);
    (
        receipts,
        server.store().elapsed(),
        server.store().fragmentation(),
    )
}

#[test]
fn timed_store_is_transparent_on_all_three_substrates() {
    for workload in [Workload::AgeDb, Workload::AgeFs, Workload::AgeLog] {
        let config = workload.params(9, TINY).config;
        let mut bare = config.build_store(workload.kind()).unwrap();
        let expected = drive(bare.as_mut(), workload);

        let mut inner = config.build_store(workload.kind()).unwrap();
        let mut timed = TimedStore::new(inner.as_mut());
        let observed = drive(&mut timed, workload);
        let log = timed.into_log();

        assert_eq!(
            observed,
            expected,
            "{}: wrapped ≡ unwrapped",
            workload.name()
        );
        assert!(!expected.0.is_empty());
        // One span per dispatch-class call, and the receipts' disk time adds up.
        let dispatch_spans = log
            .spans
            .iter()
            .filter(|span| {
                matches!(
                    span.method,
                    Method::Put | Method::Get | Method::SafeWriteBatch
                )
            })
            .count();
        assert_eq!(dispatch_spans as u32, log.dispatches);
        let disk_ns: u64 = expected
            .0
            .iter()
            .map(|receipt| receipt.disk_time.total().as_nanos())
            .sum();
        assert_eq!(log.receipt_disk_ns, disk_ns);
    }
}

#[test]
fn traced_aging_closes_and_replay_matches_the_live_store() {
    for workload in [Workload::AgeDb, Workload::AgeFs, Workload::AgeLog] {
        let params = workload.params(11, TINY);
        let mut prepared = workloads::Prepared::Aging;
        let mut pauses = 0u32;
        let sim = workloads::run_rep(&params, &mut prepared, &mut || pauses += 1).unwrap();
        // One pause after the bulk load and one after every overwrite round.
        assert_eq!(pauses, 1 + MAX_AGE);
        // The rep runs the benchmark's copy of the library's loop: the same
        // simulated results as `run_aging_experiment` itself.
        let library = run_aging_experiment(
            workload.kind(),
            &params.config,
            &workloads::measure_ages(),
            true,
        )
        .unwrap();
        let mut expected = SimText::new();
        expected.age_points(&library.points);
        assert_eq!(sim, expected, "{}: loop copy ≡ library", workload.name());
        let untraced = Untraced {
            wall_ns: 1,
            sim: &sim,
        };
        // `faults` lists a digest mismatch between the traced and the
        // untraced rep, and any disagreement between the replayed substrate /
        // disk and the live store.
        let report = traced::run(&params, 0.0, untraced).unwrap();
        assert_eq!(report.faults, Vec::<String>::new(), "{}", workload.name());
        assert!(report.metrics["disksim.requests"] > 0.0);
        assert!(report.metrics["store.call_ns_per_op"] > 0.0);
        let substrate = match workload.kind() {
            StoreKind::Database => "blobkit.replay_ns_per_op",
            StoreKind::Filesystem => "fskit.replay_ns_per_op",
            StoreKind::LogStructured => "logstore.replay_ns_per_op",
        };
        assert!(report.metrics[substrate] > 0.0, "{substrate}");
        assert_eq!(report.metrics["maint.slices"], 0.0);
        assert_eq!(report.metrics["shard.sum_shard_ns_per_op"], 0.0);
    }
}

#[test]
fn traced_serve_and_fleet_agree_with_their_untraced_reps() {
    for workload in [Workload::ServeDb, Workload::FleetDb] {
        let params = workload.params(5, TINY);
        let capacity = match workload {
            Workload::ServeDb => workloads::serve_capacity(&params).unwrap(),
            _ => 0.0,
        };
        let mut prepared = workloads::prepare(&params, &params, capacity).unwrap();
        let sim = workloads::run_rep(&params, &mut prepared, &mut || ()).unwrap();
        let untraced = Untraced {
            wall_ns: 1,
            sim: &sim,
        };
        let report = traced::run(&params, capacity, untraced).unwrap();
        assert_eq!(report.faults, Vec::<String>::new(), "{}", workload.name());
        let only_here = match workload {
            Workload::ServeDb => "maint.slices",
            _ => "shard.sum_shard_ns_per_op",
        };
        assert!(report.metrics[only_here] > 0.0, "{only_here}");
    }
}

#[test]
fn sim_digest_is_stable_and_sensitive_to_one_input_bit() {
    let run = |seed: u64| {
        let params = Workload::AgeDb.params(seed, TINY);
        workloads::run_rep(&params, &mut workloads::Prepared::Aging, &mut || ()).unwrap()
    };
    let (first, again, other_seed) = (run(6), run(6), run(7));
    assert_eq!(first, again);
    assert_eq!(first.digest(), again.digest());
    assert_ne!(first.digest(), other_seed.digest(), "seed 6 vs 7: one bit");

    // One bit of one value changes the text and the hash.
    let text = |value: f64| {
        let mut sim = SimText::new();
        sim.float("x", value);
        sim.int("n", 3);
        sim
    };
    let flipped = f64::from_bits(1.5f64.to_bits() ^ 1);
    assert_ne!(text(1.5), text(flipped));
    assert_ne!(text(1.5).digest(), text(flipped).digest());
    assert!(text(1.5)
        .as_str()
        .starts_with("x = 3ff8000000000000 # 1.5\n"));
}

#[test]
fn pacer_counts_segments_and_corrects_by_the_sampled_slowness() {
    let mut reference = Reference::new();
    let mut pacer = Pacer::start(&mut reference);
    // Two early pauses are skipped, the third closes a segment of 64 ms, and
    // `finish` closes the rest whatever its length.
    for sleep_ms in [2, 2, 60, 2] {
        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
        std::hint::black_box((0..10_000u64).map(std::hint::black_box).sum::<u64>());
        pacer.pause();
    }
    let paced = pacer.finish();
    assert_eq!(paced.segments, 2);
    // All four sleeps are in the segments; three samples were taken.
    assert!(paced.wall_ns >= 66_000_000 && paced.reference_ns > 0);
    // Sleeping takes wall time and next to no CPU time.
    assert!(paced.cpu_ns < paced.wall_ns);
    // Whatever this machine's speed, the correction is the sampled slowness.
    for (raw_ns, corrected_ns, slowness) in [
        (
            paced.wall_ns,
            paced.corrected_wall_ns,
            paced.wall_slowness(),
        ),
        (paced.cpu_ns, paced.corrected_cpu_ns, paced.cpu_slowness()),
    ] {
        assert!(slowness.is_finite() && slowness > 0.0);
        let corrected = raw_ns as f64 / slowness;
        assert!((corrected - corrected_ns).abs() <= 1e-6 * corrected_ns);
    }
}

#[test]
fn null_store_dispatch_count_is_closed_form() {
    // With constant service time and zero think time every dispatch finds
    // all `clients` waiting, so N safe writes leave in ceil(N / clients)
    // batches; reads are never batched.
    for (writes, clients) in [(1000u64, 4usize), (1001, 4), (7, 8), (64, 1)] {
        let mut null = NullStore::default();
        let mut timed = TimedStore::new(&mut null);
        let ops: Vec<WorkloadOp> = (0..writes)
            .map(|i| WorkloadOp::SafeWrite {
                key: ObjectKey(i),
                size: 1,
            })
            .collect();
        let gets: Vec<WorkloadOp> = (0..10)
            .map(|i| WorkloadOp::Get { key: ObjectKey(i) })
            .collect();
        {
            let mut server = StoreServer::new(&mut timed);
            let done = server
                .run_closed_loop(ops, clients, SimDuration::ZERO)
                .unwrap();
            assert_eq!(done.len() as u64, writes);
            server
                .run_closed_loop(gets, clients, SimDuration::ZERO)
                .unwrap();
        }
        let log = timed.into_log();
        let batches = writes.div_ceil(clients as u64);
        assert_eq!(u64::from(log.dispatches), batches + 10);
        assert_eq!(log.spans_of(Method::SafeWriteBatch).count() as u64, batches);
        assert_eq!(null.calls, batches + 10);
    }
}

#[test]
fn command_line_takes_the_drivers_flags() {
    let args = |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
    let cli = crate::parse(&args("--workload age_fs --seed 9 --seconds 3 --trace 1")).unwrap();
    assert_eq!(cli.command, "run");
    assert_eq!(cli.workload, Some(Workload::AgeFs));
    assert_eq!((cli.seed, cli.seconds, cli.traced), (9, 3.0, true));
    assert_eq!(crate::parse(&args("selftest")).unwrap().command, "selftest");
    for bad in [
        "--workload nope",
        "--seed x",
        "--trace 2",
        "--seconds -1",
        "--bogus",
        "--seed",
    ] {
        assert!(crate::parse(&args(bad)).is_err(), "{bad:?} must be refused");
    }
}
