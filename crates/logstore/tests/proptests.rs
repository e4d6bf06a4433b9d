//! Property test of the unbudgeted cleaner: on a log aged by a random script
//! of inserts, updates, removes and budgeted cleaning steps, with object
//! sizes that straddle segments, [`SegmentLog::clean_all`] returns after at
//! most one victim per segment, a second `clean_all` straight after frees
//! nothing, and `verify()` holds after each.

use lor_alloc::PlacementPolicy;
use lor_logstore::{CleanerSelector, LogConfig, SegmentLog};
use proptest::prelude::*;

const KB: u64 = 1024;
const SEGMENT: u64 = 64 * KB;

/// One script step: `kind` picks the operation, `bytes` sizes it.
type Step = (u8, u64);

fn aged_log(segments: u64, selector: CleanerSelector, banded: bool, script: &[Step]) -> SegmentLog {
    let mut config = LogConfig::new(segments * SEGMENT);
    config.segment_bytes = SEGMENT;
    config.selector = selector;
    if banded {
        config.placement = PlacementPolicy::banded(0.8);
    }
    let mut log = SegmentLog::new(config).unwrap();
    let mut ids: Vec<u64> = Vec::new();
    for (next_id, &(kind, bytes)) in (0u64..).zip(script) {
        // Keep the log 80 % live or more, so appends vacate victims through
        // the foreground head and leave survivors straddling segments.
        if ids.is_empty() || log.live_bytes() * 10 < log.data_capacity_bytes() * 8 {
            if log.insert(next_id, bytes).is_ok() {
                ids.push(next_id);
            }
            continue;
        }
        let at = (bytes % ids.len() as u64) as usize;
        match kind {
            0 | 1 => {
                let _ = log.update(ids[at], bytes);
            }
            2 => {
                log.remove(ids.swap_remove(at)).unwrap();
            }
            _ => {
                log.clean_step(bytes).unwrap();
            }
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clean_all_ends_within_one_victim_per_segment_and_twice_frees_nothing(
        segments in 24u64..96,
        greedy in any::<bool>(),
        banded in any::<bool>(),
        script in prop::collection::vec((0u8..4, 1u64..4 * SEGMENT), 100..600),
    ) {
        let selector = if greedy { CleanerSelector::Greedy } else { CleanerSelector::CostBenefit };
        let mut log = aged_log(segments, selector, banded, &script);
        prop_assert_eq!(log.verify(), Ok(()));

        let first = log.clean_all().unwrap();
        prop_assert!(
            first.segments_freed <= log.segment_count(),
            "{} victims on {} segments",
            first.segments_freed,
            log.segment_count()
        );
        prop_assert_eq!(log.verify(), Ok(()));

        let free = log.segment_stats().free_segments;
        let second = log.clean_all().unwrap();
        prop_assert!(second.is_empty(), "the second clean_all did {:?}", second);
        prop_assert_eq!(log.segment_stats().free_segments, free);
        prop_assert_eq!(log.verify(), Ok(()));
    }
}
