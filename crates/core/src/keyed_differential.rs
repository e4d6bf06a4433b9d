//! The keyed path against the name path: one op script driven through a
//! [`Store`]'s keyed methods, through its `&str` methods, and through a
//! wrapper that implements only the required methods (and `migrate_in`), so
//! that every keyed call takes the trait's default, on all three substrates,
//! with and without a store-attached maintenance drive.  Every step's
//! receipts or typed error and the clock after it must agree on the three
//! paths, and so must the logical state at the end: keys, sizes, layouts,
//! fragmentation, live bytes.  The keyed and named stores must then pass
//! their substrate's structural check (`Volume::verify`,
//! `Database::verify`, `LogObjectStore::verify`).
//!
//! The script reaches what the key table must survive:
//!
//! * duplicate keys in one batch, and absent keys (a get, a delete, a batch
//!   naming one);
//! * names outside the table: the examples' names, and key numbers beyond
//!   the table's reach;
//! * stale handles: a `&str` delete and re-put of the same name, a `&str`
//!   safe write (on the volume it moves the object to a new file), a full
//!   `maintenance()` pass, and a `&str` delete followed by `migrate_in`.
//!
//! After every successful keyed operation the keyed path's table must hold a
//! live handle for each key the operation named (when the key is within the
//! table's reach): the table is a hint, so a table that stopped being
//! refreshed would still answer correctly, only slowly, and this is what
//! notices.
//!
//! Mutations this catches (each made in a copy of the tree, and seen to
//! fail there on the first case below):
//!
//! * no refresh after a keyed batch (`safe_write_batch_keyed` skips
//!   `note`): after the prologue's duplicate-key batch the filesystem's
//!   table names the dead file — "the table holds no live handle";
//! * no refresh after a name fallback (`Store::handle` skips `note`): the
//!   same message at the get after the volume's `&str` safe write;
//! * a hint trusted without its liveness check (`Store::handle` drops the
//!   `is_live` filter): the get after the `&str` safe write panics on the
//!   dead handle ("a resolved handle is live");
//! * a get that answers a dead hint's miss instead of falling back
//!   (`get_keyed`): keyed against named differ at that same get;
//! * the volume committing a duplicate target by its original id
//!   (`safe_write_batch_by_id` without re-pointing a target an earlier item
//!   replaced): the duplicate-key batch panics in `commit_replace`;
//! * a put that does not extend the table (`put_keyed` skips `note_put`):
//!   "the table holds no live handle" at the first put.

use lor_disksim::SimDuration;
use lor_maint::MaintenanceConfig;

use crate::store::{ObjectStore, OpReceipt, Store};
use crate::substrate::Substrate;
use crate::workload::ObjectKey;
use crate::{
    DbObjectStore, DbStoreConfig, FsObjectStore, FsStoreConfig, LogObjectStore, LogStoreConfig,
    StoreError, StoreKind, PAPER_WRITE_REQUEST_SIZE,
};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;
/// Key numbers the script draws: dense ones, some never stored.
const DENSE: u64 = 40;
/// Key numbers far beyond any table's reach on a store of a few dozen
/// objects.
const FAR: u64 = 1 << 20;

/// One step of the script.  The `Str*` steps and `Named*` steps go through
/// the `&str` methods on every path: on the keyed path they are the
/// mutations the key table does not see.
#[derive(Debug, Clone)]
enum Step {
    Put(ObjectKey, u64),
    Get(ObjectKey),
    Delete(ObjectKey),
    Batch(Vec<(ObjectKey, u64)>),
    StrDeleteAndPut(ObjectKey, u64),
    StrSafeWrite(ObjectKey, u64),
    StrDeleteAndMigrateIn(ObjectKey, u64),
    NamedPut(String, u64),
    NamedGet(String),
    NamedBatch(Vec<(String, u64)>),
    Maintenance,
}

/// A deterministic script of `len` steps from `seed`.
fn script(seed: u64, len: usize) -> Vec<Step> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: u64| {
        // xorshift64*: enough spread for a test script.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
    };
    let mut steps: Vec<Step> = (0..DENSE - 4)
        .map(|k| Step::Put(ObjectKey(k), (64 + 32 * (k % 5)) * KB))
        .collect();
    steps.push(Step::NamedPut("photos/IMG_0001.jpg".into(), 300 * KB));
    steps.push(Step::Put(ObjectKey(FAR), 200 * KB));
    // Each case once for sure, then at random.
    let k = ObjectKey;
    let absent = k(DENSE - 1);
    steps.extend([
        Step::Batch(vec![(k(0), 96 * KB), (k(1), 64 * KB), (k(0), 160 * KB)]),
        Step::Get(k(0)),
        Step::StrSafeWrite(k(2), 128 * KB),
        Step::Get(k(2)),
        Step::Batch(vec![(k(2), 64 * KB)]),
        Step::StrDeleteAndPut(k(3), 96 * KB),
        Step::Batch(vec![(k(3), 128 * KB), (k(4), 64 * KB)]),
        Step::Get(k(3)),
        Step::Maintenance,
        Step::Get(k(4)),
        Step::Batch(vec![(k(4), 96 * KB), (k(5), 96 * KB)]),
        Step::StrDeleteAndMigrateIn(k(6), 64 * KB),
        Step::Get(k(6)),
        Step::Batch(vec![(k(6), 128 * KB)]),
        Step::Get(absent),
        Step::Delete(absent),
        Step::Batch(vec![(k(7), 64 * KB), (absent, 64 * KB)]),
        Step::Get(k(7)),
        Step::Get(k(FAR)),
        Step::Batch(vec![(k(FAR), 96 * KB), (k(8), 64 * KB)]),
        Step::NamedGet("photos/IMG_0001.jpg".into()),
        Step::NamedBatch(vec![("photos/IMG_0001.jpg".into(), 64 * KB)]),
        Step::Delete(k(9)),
        Step::Put(k(9), 64 * KB),
        Step::Get(k(9)),
    ]);
    for _ in 0..len {
        let size = (32 + 32 * next(8)) * KB;
        let dense = |pick: u64| ObjectKey(pick % DENSE);
        let step = match next(20) {
            0..=4 => Step::Get(dense(next(DENSE + 4))),
            5..=8 => {
                let len = 1 + next(4);
                Step::Batch(
                    (0..len)
                        .map(|_| {
                            let key = match next(12) {
                                0 => ObjectKey(FAR),
                                _ => dense(next(DENSE)),
                            };
                            (key, (32 + 32 * next(8)) * KB)
                        })
                        .collect(),
                )
            }
            9 => Step::Put(dense(next(DENSE)), size),
            10 => match next(2) {
                0 => Step::Delete(dense(next(DENSE))),
                _ => Step::Put(dense(next(DENSE)), size),
            },
            11 => Step::StrDeleteAndPut(dense(next(DENSE)), size),
            12 => Step::StrSafeWrite(dense(next(DENSE)), size),
            13 => Step::StrDeleteAndMigrateIn(dense(next(DENSE)), size),
            14 => Step::Get(ObjectKey(FAR + next(2))),
            15 => Step::NamedGet(format!("photos/IMG_000{}.jpg", 1 + next(2))),
            16 => Step::NamedBatch(vec![
                ("photos/IMG_0001.jpg".into(), size),
                (ObjectKey(next(DENSE)).to_string(), 2 * size),
            ]),
            17 => Step::Batch(vec![(dense(next(DENSE)), size), (dense(next(DENSE)), size)]),
            18 => Step::Put(ObjectKey(FAR + 1), size),
            _ => match next(4) {
                0 => Step::Maintenance,
                _ => Step::Get(dense(next(DENSE))),
            },
        };
        steps.push(step);
    }
    steps
}

/// What one step returned: its receipts (none for maintenance, which
/// reports the bytes it copied) or its error, and the clock after it.
type Outcome = (Result<(Vec<OpReceipt>, u64), StoreError>, SimDuration);

/// Which of a store's methods the keyed steps go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Keyed,
    Named,
}

/// Whether a store's key table holds a live handle for a key.
type Covers<'a, T> = &'a dyn Fn(&T, ObjectKey) -> bool;

/// Runs `steps` on `store` along `path`, checking the key table after every
/// keyed step when `table` reads it.
fn drive<T: ObjectStore>(
    store: &mut T,
    path: Path,
    steps: &[Step],
    table: Option<Covers<'_, T>>,
) -> Vec<Outcome> {
    let name = |key: ObjectKey| key.to_string();
    let mut outcomes = Vec::with_capacity(steps.len());
    for (index, step) in steps.iter().enumerate() {
        let one = |receipt: Result<OpReceipt, StoreError>| receipt.map(|r| (vec![r], 0));
        let outcome = match (step, path) {
            (Step::Put(key, size), Path::Keyed) => one(store.put_keyed(*key, *size)),
            (Step::Put(key, size), Path::Named) => one(store.put(&name(*key), *size)),
            (Step::Get(key), Path::Keyed) => one(store.get_keyed(*key)),
            (Step::Get(key), Path::Named) => one(store.get(&name(*key))),
            (Step::Delete(key), Path::Keyed) => one(store.delete_keyed(*key)),
            (Step::Delete(key), Path::Named) => one(store.delete(&name(*key))),
            (Step::Batch(items), Path::Keyed) => {
                let mut receipts = Vec::new();
                store
                    .safe_write_batch_keyed(items, &mut receipts)
                    .map(|()| (receipts, 0))
            }
            (Step::Batch(items), Path::Named) => {
                let items: Vec<(String, u64)> =
                    items.iter().map(|&(key, size)| (name(key), size)).collect();
                store.safe_write_batch(&items).map(|receipts| (receipts, 0))
            }
            (Step::StrDeleteAndPut(key, size), _) => store
                .delete(&name(*key))
                .and_then(|_| store.put(&name(*key), *size))
                .map(|r| (vec![r], 0)),
            (Step::StrSafeWrite(key, size), _) => one(store.safe_write(&name(*key), *size)),
            (Step::StrDeleteAndMigrateIn(key, size), _) => store
                .delete(&name(*key))
                .and_then(|_| store.migrate_in(&name(*key), *size))
                .map(|r| (vec![r], 0)),
            (Step::NamedPut(key, size), _) => one(store.put(key, *size)),
            (Step::NamedGet(key), _) => one(store.get(key)),
            (Step::NamedBatch(items), _) => {
                store.safe_write_batch(items).map(|receipts| (receipts, 0))
            }
            (Step::Maintenance, _) => store.maintenance().map(|copied| (Vec::new(), copied)),
        };
        if let (Some(covers), Path::Keyed, Ok(_)) = (table, path, &outcome) {
            let named: Vec<ObjectKey> = match step {
                Step::Put(key, _) | Step::Get(key) => vec![*key],
                Step::Batch(items) => items.iter().map(|&(key, _)| key).collect(),
                _ => Vec::new(),
            };
            for key in named.into_iter().filter(|key| key.0 < DENSE) {
                assert!(
                    covers(store, key),
                    "step {index} {step:?}: the table holds no live handle for {key:?}"
                );
            }
        }
        outcomes.push((outcome, store.elapsed()));
    }
    outcomes
}

/// Forwards the required methods (and `migrate_in`) to a store, so that
/// every keyed call takes the trait's default.
struct NamesOnly(Box<dyn ObjectStore>);

impl ObjectStore for NamesOnly {
    fn kind(&self) -> StoreKind {
        self.0.kind()
    }
    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.0.put(key, size_bytes)
    }
    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.0.get(key)
    }
    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.0.safe_write(key, size_bytes)
    }
    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        self.0.safe_write_batch(items)
    }
    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.0.delete(key)
    }
    fn contains(&self, key: &str) -> bool {
        self.0.contains(key)
    }
    fn object_count(&self) -> usize {
        self.0.object_count()
    }
    fn keys(&self) -> Vec<String> {
        self.0.keys()
    }
    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        self.0.size_of(key)
    }
    fn layout_of(&self, key: &str) -> Result<Vec<lor_disksim::ByteRun>, StoreError> {
        self.0.layout_of(key)
    }
    fn fragmentation(&self) -> lor_alloc::FragmentationSummary {
        self.0.fragmentation()
    }
    fn data_capacity_bytes(&self) -> u64 {
        self.0.data_capacity_bytes()
    }
    fn live_bytes(&self) -> u64 {
        self.0.live_bytes()
    }
    fn elapsed(&self) -> SimDuration {
        self.0.elapsed()
    }
    fn reset_measurements(&mut self) {
        self.0.reset_measurements()
    }
    fn maintenance(&mut self) -> Result<u64, StoreError> {
        self.0.maintenance()
    }
    fn write_request_size(&self) -> u64 {
        self.0.write_request_size()
    }
    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.0.migrate_in(key, size_bytes)
    }
}

/// Everything observable about a store's contents.
fn state(store: &dyn ObjectStore) -> impl PartialEq + std::fmt::Debug {
    let mut keys = store.keys();
    keys.sort_unstable();
    let objects: Vec<(String, u64, Vec<lor_disksim::ByteRun>)> = keys
        .into_iter()
        .map(|key| {
            let size = store.size_of(&key).unwrap();
            let layout = store.layout_of(&key).unwrap();
            (key, size, layout)
        })
        .collect();
    (
        objects,
        store.object_count(),
        store.live_bytes(),
        store.fragmentation(),
        store.elapsed(),
    )
}

/// Drives the script through the three paths on stores `build` makes, and
/// checks the keyed and named stores' structures with `verify` at the end.
fn check<S: Substrate + 'static>(
    build: impl Fn() -> Store<S>,
    verify: fn(&Store<S>) -> Result<(), String>,
    seed: u64,
) {
    let steps = script(seed, 400);
    let covers = |store: &Store<S>, key: ObjectKey| store.covers(key);
    let mut keyed = build();
    let keyed_outcomes = drive(&mut keyed, Path::Keyed, &steps, Some(&covers));
    let mut named = build();
    let named_outcomes = drive(&mut named, Path::Named, &steps, None);
    let mut defaults = NamesOnly(Box::new(build()));
    let default_outcomes = drive(&mut defaults, Path::Keyed, &steps, None);

    let kind = S::KIND;
    for (index, step) in steps.iter().enumerate() {
        assert_eq!(
            keyed_outcomes[index], named_outcomes[index],
            "{kind}, seed {seed}, step {index} {step:?}: keyed against named"
        );
        assert_eq!(
            default_outcomes[index], named_outcomes[index],
            "{kind}, seed {seed}, step {index} {step:?}: defaults against named"
        );
    }
    assert_eq!(state(&keyed), state(&named), "{kind}, seed {seed}");
    assert_eq!(state(&defaults), state(&named), "{kind}, seed {seed}");
    for (path, store) in [("keyed", &keyed), ("named", &named)] {
        if let Err(violation) = verify(store) {
            panic!("{kind}, seed {seed}, {path} path: {violation}");
        }
    }
    // The script reached the cases it is for.
    let errors = named_outcomes.iter().filter(|(o, _)| o.is_err()).count();
    assert!(errors > 10, "{kind}, seed {seed}: {errors} typed errors");
    assert!(
        errors < steps.len() / 3,
        "{kind}, seed {seed}: {errors} typed errors"
    );
}

/// The script on every substrate, plain and with a store-attached
/// maintenance drive (whose steps run between the keyed operations).
#[test]
fn keyed_named_and_default_paths_agree_on_every_substrate() {
    const VOLUME: u64 = 64 * MB;
    let request = PAPER_WRITE_REQUEST_SIZE;
    for seed in 1..=3 {
        for maintenance in [None, Some(MaintenanceConfig::fixed_budget(16))] {
            check(
                || {
                    let FsStoreConfig { volume, disk } = FsStoreConfig::new(VOLUME);
                    FsObjectStore::build(volume, disk, request, maintenance, 0).unwrap()
                },
                |store| store.volume().verify(),
                seed,
            );
            check(
                || {
                    let DbStoreConfig { engine, disk } = DbStoreConfig::new(VOLUME);
                    DbObjectStore::build(engine, disk, request, maintenance, 0).unwrap()
                },
                |store| store.database().verify(),
                seed,
            );
            check(
                || {
                    let LogStoreConfig { log, disk } = LogStoreConfig::new(VOLUME);
                    LogObjectStore::build(log, disk, request, maintenance, 0).unwrap()
                },
                LogObjectStore::verify,
                seed,
            );
        }
    }
}
