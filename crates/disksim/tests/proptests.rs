//! Property tests for the disk service-time model.

use lor_disksim::{AccessKind, ByteRun, Disk, DiskConfig, IoRequest, SimDuration};
use proptest::prelude::*;

const TEST_CAPACITY: u64 = 4_000_000_000;

fn test_disk() -> Disk {
    Disk::new(DiskConfig::seagate_400gb_2005().scaled(TEST_CAPACITY))
}

prop_compose! {
    fn arb_run()(offset in 0u64..TEST_CAPACITY - (1 << 20), len in 1u64..(1 << 20)) -> ByteRun {
        ByteRun::new(offset, len)
    }
}

prop_compose! {
    fn arb_request()(
        kind in prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)],
        runs in prop::collection::vec(arb_run(), 1..16),
    ) -> IoRequest {
        IoRequest::new(kind, runs)
    }
}

proptest! {
    /// Service time is always positive for a non-empty request and the clock
    /// advances by exactly the reported total.
    #[test]
    fn service_time_positive_and_clock_consistent(requests in prop::collection::vec(arb_request(), 1..32)) {
        let mut disk = test_disk();
        let mut expected = SimDuration::ZERO;
        for request in &requests {
            let t = disk.service(request);
            prop_assert!(t.total() > SimDuration::ZERO);
            expected += t.total();
        }
        prop_assert_eq!(disk.elapsed(), expected);
    }

    /// Estimation never disagrees with the first subsequent service call.
    #[test]
    fn estimate_matches_service(request in arb_request()) {
        let mut disk = test_disk();
        let estimate = disk.estimate(&request);
        let actual = disk.service(&request);
        prop_assert_eq!(estimate, actual);
    }

    /// Coalescing segments never changes the number of bytes transferred and
    /// never makes a request slower.
    #[test]
    fn coalescing_preserves_bytes_and_never_slows(request in arb_request()) {
        let disk = test_disk();
        let merged = request.coalesced();
        prop_assert_eq!(merged.total_bytes(), request.total_bytes());
        prop_assert!(disk.estimate(&merged).total() <= disk.estimate(&request).total());
    }

    /// Splitting a contiguous read into contiguous pieces costs the same as
    /// reading it whole (the model must not penalise logical chunking).
    #[test]
    fn contiguous_split_costs_the_same(
        offset in 0u64..TEST_CAPACITY / 2,
        len in 2u64..(4 << 20),
        pieces in 2usize..8,
    ) {
        let disk = test_disk();
        let whole = disk.estimate(&IoRequest::read(offset, len));
        let piece_len = len / pieces as u64;
        prop_assume!(piece_len > 0);
        let mut runs = Vec::new();
        let mut cursor = offset;
        for i in 0..pieces {
            let this = if i == pieces - 1 { offset + len - cursor } else { piece_len };
            runs.push(ByteRun::new(cursor, this));
            cursor += this;
        }
        let split = disk.estimate(&IoRequest::read_runs(runs));
        prop_assert_eq!(whole, split);
    }

    /// More fragments over the same span never gets cheaper.
    #[test]
    fn extra_scatter_never_speeds_reads(
        base in 0u64..TEST_CAPACITY / 4,
        stride in (64u64 * 1024)..(64 << 20),
        fragments in 1usize..16,
    ) {
        let disk = test_disk();
        let len_each = 64 * 1024u64;
        let build = |count: usize| {
            IoRequest::read_runs((0..count as u64).map(|i| ByteRun::new(base + i * stride, len_each)))
        };
        let fewer = disk.estimate(&build(fragments));
        let more = disk.estimate(&build(fragments + 1));
        prop_assert!(more.total() >= fewer.total());
    }

    /// Statistics account for every byte the workload asked to move.
    #[test]
    fn stats_account_for_all_bytes(requests in prop::collection::vec(arb_request(), 1..32)) {
        let mut disk = test_disk();
        let mut read_bytes = 0u64;
        let mut write_bytes = 0u64;
        for request in &requests {
            match request.kind {
                AccessKind::Read => read_bytes += request.total_bytes(),
                AccessKind::Write => write_bytes += request.total_bytes(),
            }
            disk.service(request);
        }
        prop_assert_eq!(disk.stats().reads.bytes, read_bytes);
        prop_assert_eq!(disk.stats().writes.bytes, write_bytes);
        prop_assert_eq!(disk.stats().total_requests(), requests.len() as u64);
    }
}
