//! [`IdTable`] against the ordered map it replaced, and its memory bound.
//!
//! The proptest drives the table and a `BTreeMap<u64, u32>` in lock-step
//! through ascending inserts (with gaps), removals and look-ups of live ids,
//! of dead ids inside the window, of ids below it and past it, `get_mut`
//! edits and a clone taken mid-script; after every step the full iteration,
//! the counts and the window length are compared and `verify()` must be
//! clean.
//!
//! **Mutation-checked** (PR 24, each fails `matches_an_ordered_map` within
//! its first two cases): not advancing `base` in `remove` (the dead prefix
//! stays) fails `verify`'s "window front" clause, and the directed test's
//! collapsed window; leaving the index entry of a removed id in place (so a
//! reused slot would answer for two ids) fails `verify`'s "counts" clause at
//! the first removal; and iterating the slab instead of the index fails the
//! iteration order at the first reused slot.
//!
//! The directed test pins the bound the type's docs state: the slab is as
//! long as the live peak, the window as long as the ids issued since the
//! oldest live record — one never-removed record holds it open, and removing
//! that record collapses it.

use std::collections::BTreeMap;

use lor_alloc::IdTable;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Insert under the next id plus `gap` skipped ones.
    Insert { gap: u64, value: u32 },
    /// Remove the `pick`-th live id.
    RemoveLive { pick: usize },
    /// Remove an id that was issued at some point, live or not.
    RemoveIssued { pick: u64 },
    /// Remove an id `below` under the oldest live one (below the window).
    RemoveBelow { below: u64 },
    /// Remove an id `past` beyond the newest one filed (past the window).
    RemovePast { past: u64 },
    /// Overwrite the value of the `pick`-th live id through `get_mut`.
    Edit { pick: usize, value: u32 },
    /// Carry on with a clone of the table.
    Clone,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (prop_oneof![4 => Just(0u64), 1 => 1u64..5], any::<u32>())
            .prop_map(|(gap, value)| Op::Insert { gap, value }),
        4 => any::<usize>().prop_map(|pick| Op::RemoveLive { pick }),
        2 => any::<u64>().prop_map(|pick| Op::RemoveIssued { pick }),
        1 => (1u64..4).prop_map(|below| Op::RemoveBelow { below }),
        1 => (0u64..4).prop_map(|past| Op::RemovePast { past }),
        2 => (any::<usize>(), any::<u32>()).prop_map(|(pick, value)| Op::Edit { pick, value }),
        1 => Just(Op::Clone),
    ]
}

/// Removes `id` from both, comparing what came out and the look-ups around
/// it.
fn remove_both(
    table: &mut IdTable<u32>,
    model: &mut BTreeMap<u64, u32>,
    id: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.get(id), model.get(&id));
    prop_assert_eq!(table.contains(id), model.contains_key(&id));
    prop_assert_eq!(table.remove(id), model.remove(&id), "remove({})", id);
    prop_assert_eq!(table.get(id), None);
    prop_assert_eq!(table.get_mut(id), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_an_ordered_map(
        first_id in 0u64..3,
        ops in prop::collection::vec(arb_op(), 1..300),
    ) {
        let mut table = IdTable::new();
        let mut model = BTreeMap::new();
        // The next id to issue; everything below it (from `first_id`) has
        // been issued or skipped.
        let mut next = first_id;
        let mut peak = 0;
        for op in ops {
            let live: Vec<u64> = model.keys().copied().collect();
            match op {
                Op::Insert { gap, value } => {
                    next += gap;
                    table.insert(next, value);
                    model.insert(next, value);
                    next += 1;
                }
                Op::RemoveLive { pick } if !live.is_empty() => {
                    remove_both(&mut table, &mut model, live[pick % live.len()])?;
                }
                Op::RemoveIssued { pick } if next > first_id => {
                    remove_both(&mut table, &mut model, first_id + pick % (next - first_id))?;
                }
                Op::RemoveBelow { below } => {
                    if let Some(id) = live.first().and_then(|oldest| oldest.checked_sub(below)) {
                        remove_both(&mut table, &mut model, id)?;
                    }
                }
                Op::RemovePast { past } => remove_both(&mut table, &mut model, next + past)?,
                Op::Edit { pick, value } if !live.is_empty() => {
                    let id = live[pick % live.len()];
                    *table.get_mut(id).expect("live id") = value;
                    model.insert(id, value);
                }
                Op::Clone => table = table.clone(),
                _ => {}
            }

            prop_assert_eq!(table.verify(), Ok(()));
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            let listed: Vec<(u64, u32)> = table.iter().map(|(id, value)| (id, *value)).collect();
            let expected: Vec<(u64, u32)> = model.iter().map(|(id, value)| (*id, *value)).collect();
            prop_assert_eq!(listed, expected);
            prop_assert!(table.values().eq(model.values()));
            // The bound: one slot per record of the live peak, one index
            // entry per id from the oldest live record to the newest filed.
            peak = peak.max(model.len());
            prop_assert_eq!(table.slot_count(), peak);
            let window = model.keys().next().map_or(0, |oldest| next - oldest);
            prop_assert_eq!(table.window_len() as u64, window);
        }
    }
}

#[test]
fn one_pinned_record_holds_the_window_open_and_the_slab_at_two_slots() {
    const CYCLES: u64 = 100_000;
    let mut table = IdTable::new();
    table.insert(1, "pinned");
    for id in 2..2 + CYCLES {
        table.insert(id, "churn");
        assert_eq!(table.remove(id), Some("churn"));
    }
    let (oldest, newest) = (1, 1 + CYCLES);
    assert_eq!(table.len(), 1);
    assert_eq!(
        table.slot_count(),
        2,
        "the churned slot is reused every cycle"
    );
    assert_eq!(table.window_len() as u64, newest - oldest + 1);
    assert_eq!(table.get(1), Some(&"pinned"));
    assert_eq!(table.verify(), Ok(()));

    // Removing the pinned record collapses the window; the ids it covered
    // stay refused.
    assert_eq!(table.remove(1), Some("pinned"));
    assert_eq!(
        (table.len(), table.window_len(), table.slot_count()),
        (0, 0, 2)
    );
    assert_eq!(table.get(newest), None);
    table.insert(newest + 1, "next");
    assert_eq!(table.window_len(), 1);
    assert_eq!(table.verify(), Ok(()));
}
