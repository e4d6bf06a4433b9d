//! Differential test of [`Disk`] against the reference model that costs a
//! coalesced *copy* of each request through [`DiskConfig`]'s own formulas
//! (`reference/mod.rs`), where `Disk` merges adjacent runs inside its loop
//! and reads the formulas' values off caches (zone boundaries per capacity,
//! static seek and transfer tables).  The two are driven in lock-step, on
//! every capacity the experiments use — a 256 MiB test disk, a 2.5 GB
//! fleet shard, 10, 20 and 40 GB volumes, the whole 400 GB drive — and on
//! the extremes, one byte and 2⁶³, over requests built to hit everything
//! either change has to get right: empty runs (leading, trailing, between
//! two runs that then touch), forward-adjacent runs, backward-adjacent runs
//! (a seek, never a merge), a run starting where the head stopped (a
//! detected continuation only for the same access kind), a re-read of the
//! offset the head is at, runs long enough to straddle several zones,
//! lengths of whole 4 KiB and 8 KiB steps (the transfer table), lengths just
//! past its 256 KiB (the formula), and offsets within ±2 bytes of every
//! zone boundary — both where a zone starts and where the transfer loop
//! ends a chunk, which can differ by a byte.
//!
//! **Mutation-checked**, each in a throwaway copy of the tree, against the
//! three tier-1 tests: a zone boundary off by one — every zone starting a
//! byte late (`lo + 1` for `lo` in `Zones::of`), or every chunk ending a
//! byte late (`zone_end(zone).saturating_add(1)` there) — fails all three;
//! a table index off by one — the transfer table built one step short
//! (`(i % TRANSFER_STEPS) as u64` steps for entry `i`, not one more), or
//! read one entry late (`steps as usize` for `steps as usize - 1`) — fails
//! the directed sweep and the proptest.

mod reference;

use lor_disksim::{merged, AccessKind, ByteRun, Disk, DiskConfig, IoRequest};
use proptest::prelude::*;
use reference::RefDisk;

const MB: u64 = 1 << 20;
const GB: u64 = 1_000_000_000;

/// The capacities the differential runs on: the 256 MiB test disk (a 40 MB
/// run crosses zone boundaries), a 2.5 GB `fleet_db` shard, the 10, 20 and
/// 40 GB volumes of the figures and the benchmark, the whole drive, and the
/// two extremes a `DiskConfig` admits.
const CAPACITIES: [u64; 8] = [
    256 * MB,
    2_500_000_000,
    10 * GB,
    20 * GB,
    40 * GB,
    400 * GB,
    1,
    1 << 63,
];

/// How one run of a request is placed, relative to what came before it.
#[derive(Debug, Clone)]
enum Placement {
    /// Anywhere: this value modulo the capacity.
    At(u64),
    /// `delta` bytes from boundary `index` (modulo their number) of
    /// [`boundaries`].
    NearBoundary(usize, i64),
    /// Exactly where the previous run of the request ended (or, for the
    /// first run, where the previous request left the head).
    Following,
    /// Ending exactly where the previous run began.
    Preceding,
    /// At the previous run's own offset again.
    Again,
}

/// How long one run is.
#[derive(Debug, Clone)]
enum Length {
    /// This many bytes.
    Bytes(u64),
    /// This many thousandths of the capacity: several zones.
    Permille(u64),
}

fn arb_run() -> impl Strategy<Value = (Placement, Length)> {
    let placement = prop_oneof![
        4 => any::<u64>().prop_map(Placement::At),
        3 => (0usize..64, 0u64..5).prop_map(|(index, shift)| {
            Placement::NearBoundary(index, shift as i64 - 2)
        }),
        4 => Just(Placement::Following),
        1 => Just(Placement::Preceding),
        1 => Just(Placement::Again),
    ];
    let len = prop_oneof![
        2 => Just(Length::Bytes(0)),
        4 => (1u64..MB).prop_map(Length::Bytes),
        // Whole 4 KiB and 8 KiB steps, up to the transfer table's 256 KiB.
        3 => (1u64..65).prop_map(|pages| Length::Bytes(pages * 4096)),
        2 => (1u64..33).prop_map(|pages| Length::Bytes(pages * 8192)),
        // Just past the table: 256 KiB plus a byte to two pages.
        2 => (1u64..8193).prop_map(|extra| Length::Bytes(256 * 1024 + extra)),
        1 => (30u64..160).prop_map(Length::Permille),
    ];
    (placement, len)
}

fn arb_request() -> impl Strategy<Value = (AccessKind, Vec<(Placement, Length)>)> {
    (
        prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)],
        prop::collection::vec(arb_run(), 0..10),
    )
}

/// Every offset where the zone of a byte changes or the transfer loop ends
/// a chunk on `config`, found through the public API only: each zone start
/// is the first offset with a lower transfer rate than the offset before it
/// (binary search, the rate falls monotonically), and each chunk end is
/// zone `z`'s start fraction `z / 16` of the capacity, truncated.  Then the
/// capacity itself, where offsets clamp.
fn boundaries(config: DiskConfig) -> Vec<u64> {
    let capacity = config.capacity_bytes();
    let mut found = Vec::new();
    let mut from = 0;
    loop {
        let rate = config.transfer_rate_at(from);
        let (mut lo, mut hi) = (from, capacity + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if config.transfer_rate_at(mid) < rate {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo > capacity {
            break;
        }
        found.push(lo);
        from = lo;
    }
    found.extend((1..16).map(|zone| (zone as f64 / 16.0 * capacity as f64) as u64));
    found.push(capacity);
    found
}

/// Places the runs on a disk of `capacity` bytes with these `boundaries`,
/// starting from where the head is.  Offsets stay within two bytes past the
/// capacity and runs within a megabyte past it: the model serves requests
/// past the end of the disk, and a one-byte disk has nowhere else to go.
fn materialize(
    capacity: u64,
    boundaries: &[u64],
    head: u64,
    kind: AccessKind,
    runs: &[(Placement, Length)],
) -> IoRequest {
    let mut previous = ByteRun::new(head, 0);
    let mut segments = Vec::with_capacity(runs.len());
    for (placement, len) in runs {
        let len = match *len {
            Length::Bytes(bytes) => bytes,
            Length::Permille(permille) => capacity / 1000 * permille,
        };
        let offset = match *placement {
            Placement::At(offset) => offset % capacity,
            Placement::NearBoundary(index, delta) => {
                boundaries[index % boundaries.len()].saturating_add_signed(delta)
            }
            Placement::Following => previous.end(),
            Placement::Preceding => previous.offset.saturating_sub(len),
            Placement::Again => previous.offset,
        };
        let offset = offset.min(capacity.saturating_add(2));
        let run = ByteRun::new(offset, len.min(capacity.saturating_add(MB) - offset));
        segments.push(run);
        previous = run;
    }
    IoRequest::new(kind, segments)
}

fn run_differential(
    capacity: u64,
    requests: &[(AccessKind, Vec<(Placement, Length)>)],
) -> Result<(), TestCaseError> {
    let config = DiskConfig::seagate_400gb_2005().scaled(capacity);
    let boundaries = boundaries(config);
    let mut disk = Disk::new(config);
    let mut model = RefDisk::new(config);
    for (kind, runs) in requests {
        let request = materialize(capacity, &boundaries, disk.head_position(), *kind, runs);
        let segments = reference::coalesce(&request.segments);
        prop_assert_eq!(
            merged(&request.segments).collect::<Vec<_>>(),
            segments.clone()
        );
        prop_assert_eq!(request.coalesced().segments, segments.clone());
        prop_assert_eq!(disk.estimate(&request), model.estimate(&request));
        let served = disk.serve(request.kind, &request.segments);
        let (got, want) = (served.time, model.service(&request));
        // Field by field, so a failure names the component that moved.
        prop_assert_eq!(got.seek, want.seek, "capacity {}: {:?}", capacity, request);
        prop_assert_eq!(got.rotation, want.rotation);
        prop_assert_eq!(
            got.transfer,
            want.transfer,
            "capacity {}: {:?}",
            capacity,
            request
        );
        prop_assert_eq!(got.overhead, want.overhead);
        prop_assert_eq!(served.bytes, request.total_bytes());
        prop_assert_eq!(served.segments, segments.len() as u64);
        prop_assert_eq!(disk.head_position(), model.head_position());
        prop_assert_eq!(disk.elapsed(), model.elapsed());
        // Requests, segments, bytes and the four time sums per direction,
        // and the sequential hits.
        prop_assert_eq!(disk.stats(), model.stats());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Merging adjacent runs inside `Disk::compute`'s loop and costing
    /// through the caches is costing the coalesced copy through the
    /// formulas, bit for bit, on every capacity.
    #[test]
    fn in_loop_merge_matches_the_coalesced_copy(
        capacity in 0..CAPACITIES.len(),
        requests in prop::collection::vec(arb_request(), 1..24),
    ) {
        run_differential(CAPACITIES[capacity], &requests)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200_000))]

    /// The same, over 200,000 scripts (CI runs it with `--ignored`, in
    /// release).
    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn in_loop_merge_matches_the_coalesced_copy_long(
        capacity in 0..CAPACITIES.len(),
        requests in prop::collection::vec(arb_request(), 1..24),
    ) {
        run_differential(CAPACITIES[capacity], &requests)?;
    }
}

/// Directed, so that no random draw decides it: a read and a write of every
/// length class at every offset within two bytes of every boundary, on
/// every capacity, each from a head parked elsewhere.
#[test]
fn every_boundary_and_every_table_edge_matches_the_formulas() {
    let lengths = [
        1,
        3,
        4096,
        8192,
        12_288,
        256 * 1024 - 4096,
        256 * 1024,
        256 * 1024 + 1,
        256 * 1024 + 4096,
    ];
    for capacity in CAPACITIES {
        let config = DiskConfig::seagate_400gb_2005().scaled(capacity);
        let mut disk = Disk::new(config);
        let mut model = RefDisk::new(config);
        for boundary in boundaries(config) {
            for offset in boundary.saturating_sub(2)..=boundary.saturating_add(2) {
                for len in lengths {
                    for request in [
                        IoRequest::read(capacity / 3, 1),
                        IoRequest::read(offset, len),
                        IoRequest::write(offset, len),
                    ] {
                        assert_eq!(
                            disk.service(&request),
                            model.service(&request),
                            "capacity {capacity}: {request:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(disk.stats(), model.stats());
    }
}

#[test]
fn the_cases_the_merge_must_get_right_all_occur() {
    // The generator is only as good as what it reaches: one fixed script
    // with each case spelled out, checked against the reference too.
    let config = DiskConfig::seagate_400gb_2005().scaled(256 * MB);
    let mut disk = Disk::new(config);
    let mut model = RefDisk::new(config);
    let mb = MB;
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
        assert_eq!(merged(&request.segments).count(), expected);
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
