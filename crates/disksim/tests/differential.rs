//! Differential test of [`Disk`] against the reference model that costs a
//! coalesced *copy* of each request (`reference/mod.rs`): the two are driven
//! in lock-step over requests built to hit everything the in-loop merge has
//! to get right — empty runs (leading, trailing, between two runs that then
//! touch), forward-adjacent runs, backward-adjacent runs (a seek, never a
//! merge), a run starting where the head stopped (a detected continuation
//! only for the same access kind), a re-read of the offset the head is at,
//! and runs long enough to straddle several zones.

mod reference;

use lor_disksim::{AccessKind, ByteRun, Disk, DiskConfig, IoRequest};
use proptest::prelude::*;
use reference::RefDisk;

/// Small enough that a 40 MB run crosses zone boundaries (16 zones).
const CAPACITY: u64 = 256 << 20;

/// How one run of a request is placed, relative to what came before it.
#[derive(Debug, Clone)]
enum Placement {
    /// Anywhere.
    At(u64),
    /// Exactly where the previous run of the request ended (or, for the
    /// first run, where the previous request left the head).
    Following,
    /// Ending exactly where the previous run began.
    Preceding,
    /// At the previous run's own offset again.
    Again,
}

fn arb_run() -> impl Strategy<Value = (Placement, u64)> {
    let placement = prop_oneof![
        4 => (0u64..CAPACITY).prop_map(Placement::At),
        4 => Just(Placement::Following),
        1 => Just(Placement::Preceding),
        1 => Just(Placement::Again),
    ];
    let len = prop_oneof![
        2 => Just(0u64),
        6 => 1u64..(1 << 20),
        1 => (8u64 << 20)..(40 << 20),
    ];
    (placement, len)
}

fn arb_request() -> impl Strategy<Value = (AccessKind, Vec<(Placement, u64)>)> {
    (
        prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)],
        prop::collection::vec(arb_run(), 0..10),
    )
}

/// Places the runs on the disk, starting from where the head is.
fn materialize(head: u64, kind: AccessKind, runs: &[(Placement, u64)]) -> IoRequest {
    let mut previous = ByteRun::new(head, 0);
    let mut segments = Vec::with_capacity(runs.len());
    for (placement, len) in runs {
        let offset = match placement {
            Placement::At(offset) => *offset,
            Placement::Following => previous.end(),
            Placement::Preceding => previous.offset.saturating_sub(*len),
            Placement::Again => previous.offset,
        };
        let offset = offset.min(CAPACITY - 1);
        let run = ByteRun::new(offset, (*len).min(CAPACITY - offset));
        segments.push(run);
        previous = run;
    }
    IoRequest::new(kind, segments)
}

fn run_differential(
    config: DiskConfig,
    requests: &[(AccessKind, Vec<(Placement, u64)>)],
) -> Result<(), TestCaseError> {
    let mut disk = Disk::new(config.clone());
    let mut model = RefDisk::new(config);
    for (kind, runs) in requests {
        let request = materialize(disk.head_position(), *kind, runs);
        prop_assert_eq!(
            request.merged_segments().collect::<Vec<_>>(),
            request.coalesced().segments
        );
        prop_assert_eq!(disk.estimate(&request), model.estimate(&request));
        let (got, want) = (disk.service(&request), model.service(&request));
        // Field by field, so a failure names the component that moved.
        prop_assert_eq!(got.seek, want.seek);
        prop_assert_eq!(got.rotation, want.rotation);
        prop_assert_eq!(got.transfer, want.transfer);
        prop_assert_eq!(got.overhead, want.overhead);
        prop_assert_eq!(disk.head_position(), model.head_position());
        prop_assert_eq!(disk.elapsed(), model.elapsed());
        // Requests, segments, bytes and the four time sums per direction,
        // and the sequential hits.
        prop_assert_eq!(disk.stats(), model.stats());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merging adjacent runs inside `Disk::compute`'s loop is costing the
    /// coalesced copy, bit for bit, with sequential detection on and off.
    #[test]
    fn in_loop_merge_matches_the_coalesced_copy(
        requests in prop::collection::vec(arb_request(), 1..24),
        sequential_detection in prop_oneof![Just(true), Just(false)],
    ) {
        let mut config = DiskConfig::seagate_400gb_2005().scaled(CAPACITY);
        config.sequential_detection = sequential_detection;
        run_differential(config, &requests)?;
    }
}

#[test]
fn the_cases_the_merge_must_get_right_all_occur() {
    // The generator is only as good as what it reaches: one fixed script
    // with each case spelled out, checked against the reference too.
    let config = DiskConfig::seagate_400gb_2005().scaled(CAPACITY);
    let mut disk = Disk::new(config.clone());
    let mut model = RefDisk::new(config);
    let mb = 1u64 << 20;
    let requests = [
        // Empty runs around and between two runs that touch once they go.
        IoRequest::write_runs([
            ByteRun::new(0, 0),
            ByteRun::new(4 * mb, mb),
            ByteRun::new(9 * mb, 0),
            ByteRun::new(5 * mb, mb),
            ByteRun::new(6 * mb, 0),
        ]),
        // Continues the stream (same kind, starts at the head), then jumps
        // backwards to a run that ends where the first began.
        IoRequest::write_runs([ByteRun::new(6 * mb, mb), ByteRun::new(5 * mb, mb)]),
        // Starts at the head but with the other kind: a full revolution.
        IoRequest::read_runs([ByteRun::new(6 * mb, mb)]),
        // Nothing but empty runs: overhead only, head and stream untouched.
        IoRequest::read_runs([ByteRun::new(mb, 0), ByteRun::new(2 * mb, 0)]),
        IoRequest::read_runs([ByteRun::new(7 * mb, mb)]),
        // One run across several zones, merged from two halves.
        IoRequest::read_runs([
            ByteRun::new(10 * mb, 20 * mb),
            ByteRun::new(30 * mb, 20 * mb),
        ]),
    ];
    let segments = [1, 2, 1, 0, 1, 1];
    for (request, expected) in requests.iter().zip(segments) {
        assert_eq!(request.merged_segments().count(), expected);
        assert_eq!(disk.service(request), model.service(request));
        assert_eq!(disk.head_position(), model.head_position());
        assert_eq!(disk.stats(), model.stats());
    }
    assert_eq!(disk.stats().sequential_hits, 2);
    assert_eq!(
        disk.stats().reads.segments + disk.stats().writes.segments,
        6
    );
}
