//! A record table keyed by ids that only ever ascend.
//!
//! The volume's file table, the BLOB engine's record table and the segment
//! log's object table share one shape: every record is filed under an id
//! taken from a counter, so ids ascend and are never reused; records are
//! looked up, edited and removed by id on every operation; and listings
//! (`iter_files`, `iter_blobs`, the log's `ids`, the defragmenter's pass
//! queue, `verify`) read the records **in id order**.
//! An ordered map pays for that order on every operation — a descent per
//! look-up, and 64-byte values shifted inside a leaf per insert and removal.
//! [`IdTable`] pays for it nowhere; its own docs give the layout and the
//! memory bound that comes with it, `tests/idtable.rs` drives it in
//! lock-step with the ordered map it replaced and pins the bound.

use std::collections::VecDeque;

/// Index entry of an id whose record is gone (or that was skipped).  No slab
/// is ever this long, so a look-up through it finds no slot.
const DEAD: u32 = u32::MAX;

/// Records filed under ascending, never-reused `u64` ids, iterated in id
/// order: a slab found through a windowed direct index.
///
/// * The records live in a **slab** (`Vec<Option<T>>`) whose vacated slots
///   are reused last-out-first-in, so the slab is as long as the largest
///   number of records ever live at once and no record ever moves.
/// * A **windowed direct index** (`VecDeque<u32>`) maps `id − base` to the
///   record's slot, or to a dead marker once the record is gone; `base` is
///   the oldest id still live, and dead entries are popped off the front as
///   it advances.
///
/// [`insert`](IdTable::insert) is therefore a push; [`get`](IdTable::get),
/// [`get_mut`](IdTable::get_mut) and [`remove`](IdTable::remove) are two
/// array reads — no hashing, no descent; an id below the window or past it
/// is simply absent; and walking the index yields id order for free.
/// Nothing observable depends on slot numbers.
///
/// # Memory bound
///
/// The slab costs one `Option<T>` per record of the live peak.  The window
/// costs **4 bytes per id issued since the oldest live record**: a store
/// that replaces every object once per round (the paper's safe write gives
/// each version a new file id) holds about two rounds of ids, ≈ 0.6 MB for
/// the 72k-object aging runs; under uniformly random overwrites of `N`
/// objects the oldest survivor is about `N·ln N` ids old.  One record that
/// is never removed pins the front of the window for as long as it lives.
/// The bound is deliberate, and pinned by a test rather than paged or hashed
/// away: a hashed index over the same slab cost more memory (tombstones
/// doubled it) and more time, and a window of `Option<T>` without the slab
/// costs the record's size, not 4 bytes, per dead id (EXPERIMENTS.md, "Host
/// cost of the record tables").  Neither buffer shrinks: both stay at their
/// high-water mark.
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    /// The records; `None` marks a vacant slot, listed in `free`.
    slots: Vec<Option<T>>,
    /// Vacant slots, reused last-out-first-in.
    free: Vec<u32>,
    /// `index[id - base]` is the slot of `id`'s record, or [`DEAD`].  Empty,
    /// or its front entry is live.
    index: VecDeque<u32>,
    /// The id `index[0]` stands for; `base + index.len()` is the smallest id
    /// the table still accepts.
    base: u64,
    /// Live records.
    live: usize,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            free: Vec::new(),
            index: VecDeque::new(),
            base: 0,
            live: 0,
        }
    }
}

impl<T> IdTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when the table holds no record.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots in the slab, vacant ones included: the largest number of
    /// records that were ever live at once.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Entries in the index window: ids issued since the oldest live
    /// record, that one included (0 for an empty table).
    pub fn window_len(&self) -> usize {
        self.index.len()
    }

    /// The smallest id [`insert`](IdTable::insert) accepts: one past the
    /// newest id ever filed (0 for a table that has filed none).
    pub fn next_id(&self) -> u64 {
        self.base + self.index.len() as u64
    }

    /// Makes room for `additional` more records filed under the next
    /// `additional` ids, so that filing them grows neither buffer.
    pub fn reserve(&mut self, additional: usize) {
        self.slots
            .reserve(additional.saturating_sub(self.free.len()));
        self.index.reserve(additional);
    }

    /// The slab slot of `id`'s record, if it is live.
    fn slot_of(&self, id: u64) -> Option<usize> {
        let offset = usize::try_from(id.checked_sub(self.base)?).ok()?;
        match *self.index.get(offset)? {
            DEAD => None,
            slot => Some(slot as usize),
        }
    }

    /// `true` if a record is filed under `id`.
    pub fn contains(&self, id: u64) -> bool {
        self.slot_of(id).is_some()
    }

    /// The record filed under `id`.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.slot_of(id)?)?.as_ref()
    }

    /// The record filed under `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.slot_of(id)?;
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Files `value` under `id`, which must be greater than every id the
    /// table has held (ids skipped in between are simply absent).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not past the window — the caller's id counter ran
    /// backwards — or if the slab would outgrow `u32` slots.
    pub fn insert(&mut self, id: u64, value: T) {
        let next = self.next_id();
        assert!(
            id >= next,
            "IdTable::insert: id {id} is not past the newest id filed ({next} is the next free)"
        );
        if self.index.is_empty() {
            self.base = id;
        } else {
            let skipped = usize::try_from(id - next).expect("id gap fits the address space");
            self.index.extend(std::iter::repeat_n(DEAD, skipped));
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&slot| slot != DEAD)
                    .expect("IdTable::insert: more than u32::MAX - 1 live records");
                self.slots.push(Some(value));
                slot
            }
        };
        self.index.push_back(slot);
        self.live += 1;
    }

    /// Removes and returns the record filed under `id`; `None`, changing
    /// nothing, when there is none.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let offset = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let entry = self.index.get_mut(offset)?;
        let slot = std::mem::replace(entry, DEAD);
        let value = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        self.live -= 1;
        // The oldest live id advanced: drop the dead prefix, so the window
        // starts at a live record again (or is empty).
        while self.index.front() == Some(&DEAD) {
            self.index.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// The live records with their ids, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(&self.index)
            .filter_map(|(id, &slot)| Some((id, self.slots.get(slot as usize)?.as_ref()?)))
    }

    /// The live records in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, value)| value)
    }

    /// Checks the table against a recount of everything it caches, naming
    /// the first violated invariant:
    ///
    /// * **counts** — the live count equals the live index entries and the
    ///   occupied slots;
    /// * **free list** — it lists exactly the vacant slots, each once;
    /// * **window front** — the index is empty or its first entry is live;
    /// * **index entries** — every live entry points at an occupied slot no
    ///   other entry points at.
    ///
    /// O(slots + window).
    pub fn verify(&self) -> Result<(), String> {
        let occupied = self.slots.iter().filter(|slot| slot.is_some()).count();
        let entries = self.index.iter().filter(|&&slot| slot != DEAD).count();
        if self.live != entries || self.live != occupied {
            return Err(format!(
                "counts: {} live records, {entries} live index entries, {occupied} occupied slots",
                self.live
            ));
        }
        let mut listed = vec![false; self.slots.len()];
        for &slot in &self.free {
            match self.slots.get(slot as usize) {
                Some(None) if !listed[slot as usize] => listed[slot as usize] = true,
                Some(None) => return Err(format!("free list: slot {slot} is listed twice")),
                _ => return Err(format!("free list: slot {slot} is not vacant")),
            }
        }
        if self.free.len() + occupied != self.slots.len() {
            return Err(format!(
                "free list: {} listed but {} slots are vacant",
                self.free.len(),
                self.slots.len() - occupied
            ));
        }
        if self.index.front() == Some(&DEAD) {
            return Err(format!("window front: id {} is dead", self.base));
        }
        let mut pointed = vec![false; self.slots.len()];
        for (id, &slot) in (self.base..).zip(&self.index) {
            if slot == DEAD {
                continue;
            }
            match self.slots.get(slot as usize) {
                Some(Some(_)) if !pointed[slot as usize] => pointed[slot as usize] = true,
                Some(Some(_)) => {
                    return Err(format!("index entries: id {id} shares slot {slot}"));
                }
                _ => return Err(format!("index entries: id {id} points at no record")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_outside_the_window_are_absent() {
        let mut table = IdTable::new();
        assert_eq!(table.get(0), None::<&u32>);
        for id in 5..10 {
            table.insert(id, id as u32 * 10);
        }
        assert_eq!(table.len(), 5);
        assert_eq!(table.get(4), None);
        assert_eq!(table.get(10), None);
        assert_eq!(table.get(u64::MAX), None);
        assert_eq!(table.remove(4), None);
        assert_eq!(table.remove(10), None);
        assert_eq!(table.get(7), Some(&70));
        *table.get_mut(7).unwrap() += 1;
        assert_eq!(table.remove(7), Some(71));
        assert_eq!(table.remove(7), None, "a dead id inside the window");
        assert!(!table.contains(7));
        assert_eq!(table.verify(), Ok(()));
    }

    #[test]
    fn iteration_is_in_id_order_whatever_the_slots() {
        let mut table = IdTable::new();
        for id in 1..=4 {
            table.insert(id, id);
        }
        // Vacate two slots, then fill them last-out-first-in: ids 6 and 7
        // land in the slots of 3 and 1, below the slot of 4.
        table.remove(1);
        table.remove(3);
        table.insert(6, 6);
        table.insert(7, 7);
        assert_eq!(table.slot_count(), 4);
        let ids: Vec<u64> = table.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [2, 4, 6, 7]);
        assert!(table.iter().all(|(id, value)| id == *value));
        assert_eq!(table.values().copied().collect::<Vec<_>>(), ids);
        assert_eq!(table.verify(), Ok(()));
    }

    #[test]
    fn the_window_follows_the_oldest_live_id() {
        let mut table = IdTable::new();
        assert_eq!(table.next_id(), 0);
        for id in 1..=6 {
            table.insert(id, ());
        }
        table.remove(2);
        table.remove(3);
        assert_eq!(table.window_len(), 6, "id 1 still pins the front");
        table.remove(1);
        assert_eq!(table.window_len(), 3, "4, 5, 6");
        table.remove(6);
        assert_eq!(table.window_len(), 3, "the back never retreats");
        table.remove(4);
        table.remove(5);
        assert_eq!((table.window_len(), table.len()), (0, 0));
        // Emptied, the table still refuses the ids it has seen.
        assert!(!table.contains(6));
        assert_eq!(table.next_id(), 7);
        table.reserve(4);
        table.insert(9, ());
        assert_eq!(table.window_len(), 1, "no entries for the skipped 7, 8");
        assert_eq!(table.next_id(), 10);
        assert_eq!(table.verify(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "not past the newest id")]
    fn an_id_that_is_not_ascending_is_refused() {
        let mut table = IdTable::new();
        table.insert(3, ());
        table.remove(3);
        table.insert(3, ());
    }

    #[test]
    fn verify_names_the_violated_invariant() {
        let mut table = IdTable::new();
        for id in 1..=4 {
            table.insert(id, id);
        }
        table.remove(2);
        assert_eq!(table.verify(), Ok(()));

        let mut miscounted = table.clone();
        miscounted.live += 1;
        assert!(miscounted.verify().unwrap_err().starts_with("counts"));

        // A record dropped behind the index's back.
        let mut dropped = table.clone();
        dropped.slots[2] = None;
        assert!(dropped.verify().unwrap_err().starts_with("counts"));

        let mut twice = table.clone();
        twice.free.push(1);
        assert!(twice.verify().unwrap_err().contains("listed twice"));
        let mut occupied = table.clone();
        occupied.free[0] = 0;
        assert!(occupied.verify().unwrap_err().contains("not vacant"));
        let mut forgotten = table.clone();
        forgotten.free.clear();
        assert!(forgotten.verify().unwrap_err().contains("slots are vacant"));

        // `remove` that did not advance `base`.
        let mut stuck = table.clone();
        stuck.insert(5, 5);
        stuck.index[0] = DEAD;
        stuck.slots[0] = None;
        stuck.free.push(0);
        stuck.live -= 1;
        assert!(stuck.verify().unwrap_err().starts_with("window front"));

        // A slot reused without clearing the entry of the id that left it:
        // two ids, one record (counts kept right by losing another).
        let mut shared = table.clone();
        shared.index[1] = 0;
        shared.index[3] = DEAD;
        assert!(shared.verify().unwrap_err().contains("shares slot"));
        let mut dangling = table.clone();
        dangling.index[1] = 1;
        dangling.index[3] = DEAD;
        assert!(dangling.verify().unwrap_err().contains("no record"));
    }
}
