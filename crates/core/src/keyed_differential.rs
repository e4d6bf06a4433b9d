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
//! Every path reaches the key table: the keyed methods by key, the `&str`
//! methods and the trait's defaults by a name in key form
//! ([`ObjectKey::parse`]).  The engine's name map is left to the names not
//! in key form and to keys past the table's reach.  The script reaches what
//! the table must survive:
//!
//! * duplicate keys in one batch, and absent keys (a get, a delete, a batch
//!   naming one);
//! * names outside the table: the examples' names, an alias of key 42
//!   (`object-000000042`, another object, put and read beside it), and key
//!   numbers beyond the table's reach;
//! * objects that move: a `&str` delete and re-put of the same name, a
//!   lone safe write (on the volume it moves the object to a new file; by
//!   name on the named and default paths, a one-item keyed batch on the
//!   keyed path, which must agree: a safe write is a batch of one),
//!   a full `maintenance()` pass, and a `&str` delete followed by
//!   `migrate_in`;
//! * a stale entry while its key lives: the `Behind` step deletes and
//!   re-puts an object on the engine itself, behind the store.  It is the
//!   only step that reaches one, on every substrate: every store method
//!   that moves an object by its key or its key's name refreshes the entry,
//!   and no full pass changes an id (the volume's defragmenter swaps a
//!   file's layout in place, the BLOB rebuild and the log's cleaner keep
//!   theirs), which the script checks too.  The engines' own code never
//!   goes behind the store; the step stands for any route that might.
//!
//! After every step, on every path:
//!
//! * the table agrees with the engine ([`Store::check_table`]: a live entry
//!   is the handle the name map files its key's name under);
//! * each key the step names and leaves live (within the table's reach)
//!   has a live entry, unless the step went behind the store, which must
//!   leave it stale;
//! * `size_of`, `contains` and `layout_of` of every name the step names
//!   agree with the engine's name map read directly;
//! * a `maintenance()` pass leaves every live entry live.
//!
//! At the end, every path's store, the defaults' wrapped one included,
//! holds a live entry for each of its live dense keys: the property that
//! lets a wrapper speaking only `&str` (as `lorbench`'s `TimedStore` does)
//! time the table and not the name map.
//!
//! Mutations this catches (each made in a copy of the tree, and seen to
//! fail there on the first case below):
//!
//! * no refresh after a safe write (`safe_write_items`, the one body of
//!   every safe write, skips `note`): after the prologue's duplicate-key
//!   batch the filesystem's table names the dead file — "no live table
//!   entry";
//! * no refresh after a name fallback (`Store::handle` skips `note`): the
//!   same message at the get after the `Behind` step;
//! * a hint trusted without its liveness check (`Store::handle` drops the
//!   `size(h).is_some()` filter, the engine's one answer to "is this handle
//!   live?"): the get after the `Behind` step panics on the dead handle ("a
//!   resolved handle is live");
//! * a get that answers a dead hint's miss instead of falling back
//!   (`get_keyed`): keyed against named differ at that same get;
//! * the volume committing a duplicate target by its original id
//!   (`safe_write_batch_by_id` without re-pointing a target an earlier item
//!   replaced): the duplicate-key batch panics in `commit_replace`;
//! * a put that does not extend the table (`put_keyed` passes no key to
//!   `insert`): "no live table entry" at the first put, keyed path;
//! * the same of `put(&str)`: the same message at the first `&str` put,
//!   the prologue's delete and re-put of key 3 (the keyed path runs
//!   first);
//! * a lone safe write with a path of its own (the database's
//!   `safe_write` allocating the whole version in one request, as
//!   `Database::update` does, while a batch's item streams in write
//!   requests): keyed against named differ at seed 1's step 251, a
//!   `LoneSafeWrite` the keyed path sends as a one-item keyed batch;
//! * a loosened parse (a leading zero accepted past 8 digits): "the key
//!   table files object-00000042 under live handle …" at the alias's put;
//! * a `size_of` that trusts a dead hint (answers from the entry's handle
//!   without falling back): "size_of … disagrees with the name map" at the
//!   `Behind` step.

use lor_disksim::{ByteRun, SimDuration};
use lor_maint::MaintenanceConfig;

use crate::store::{ObjectStore, OpReceipt, Store, TABLE_SLACK};
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
/// The key the alias names another object beside.
const ALIASED: u64 = 42;
/// A name that is not `ObjectKey(ALIASED)`'s string form, one zero longer.
const ALIAS: &str = "object-000000042";

/// One step of the script.  The `Str*` steps and `Named*` steps go through
/// the `&str` methods on every path; a `LoneSafeWrite` is a one-item keyed
/// batch on the keyed path and `safe_write` by name on the others.
#[derive(Debug, Clone)]
enum Step {
    Put(ObjectKey, u64),
    Get(ObjectKey),
    Delete(ObjectKey),
    Batch(Vec<(ObjectKey, u64)>),
    StrDeleteAndPut(ObjectKey, u64),
    LoneSafeWrite(ObjectKey, u64),
    StrDeleteAndMigrateIn(ObjectKey, u64),
    NamedPut(String, u64),
    NamedGet(String),
    NamedBatch(Vec<(String, u64)>),
    Maintenance,
    /// Deletes the key's object and puts it again at this size on the
    /// engine itself, behind the store: no clock, no disk, no table.
    Behind(ObjectKey, u64),
}

impl Step {
    /// The keys whose objects the step leaves live when it succeeds.
    fn live_keys(&self) -> Vec<ObjectKey> {
        match self {
            Step::Put(key, _)
            | Step::Get(key)
            | Step::StrDeleteAndPut(key, _)
            | Step::LoneSafeWrite(key, _)
            | Step::StrDeleteAndMigrateIn(key, _)
            | Step::Behind(key, _) => vec![*key],
            Step::Batch(items) => items.iter().map(|&(key, _)| key).collect(),
            Step::NamedPut(name, _) | Step::NamedGet(name) => {
                ObjectKey::parse(name).into_iter().collect()
            }
            Step::NamedBatch(items) => items
                .iter()
                .filter_map(|(name, _)| ObjectKey::parse(name))
                .collect(),
            Step::Delete(_) | Step::Maintenance => Vec::new(),
        }
    }

    /// Every name the step names.
    fn names(&self) -> Vec<String> {
        match self {
            Step::Delete(key) => vec![key.to_string()],
            Step::NamedPut(name, _) | Step::NamedGet(name) => vec![name.clone()],
            Step::NamedBatch(items) => items.iter().map(|(name, _)| name.clone()).collect(),
            _ => self.live_keys().iter().map(ObjectKey::to_string).collect(),
        }
    }
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
        Step::LoneSafeWrite(k(2), 128 * KB),
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
        Step::Behind(k(10), 160 * KB),
        Step::Get(k(10)),
        Step::Behind(k(11), 96 * KB),
        Step::Batch(vec![(k(11), 64 * KB), (k(12), 64 * KB)]),
        Step::Put(k(ALIASED), 160 * KB),
        Step::NamedPut(ALIAS.into(), 224 * KB),
        Step::Get(k(ALIASED)),
        Step::NamedGet(ALIAS.into()),
        Step::NamedBatch(vec![
            (ALIAS.into(), 96 * KB),
            (k(ALIASED).to_string(), 64 * KB),
        ]),
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
            12 => Step::LoneSafeWrite(dense(next(DENSE)), size),
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
/// reports the bytes it copied, nor for a step behind the store) or its
/// error, and the clock after it.
type Outcome = (Result<(Vec<OpReceipt>, u64), StoreError>, SimDuration);

/// Which of a store's methods the keyed steps go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Keyed,
    Named,
}

/// A store the script drives and the [`Store`] whose table it checks:
/// the store itself, or the one [`Defaulted`] wraps.
trait Driven<S: Substrate>: ObjectStore {
    fn inner(&self) -> &Store<S>;
    fn inner_mut(&mut self) -> &mut Store<S>;
}

impl<S: Substrate> Driven<S> for Store<S> {
    fn inner(&self) -> &Store<S> {
        self
    }
    fn inner_mut(&mut self) -> &mut Store<S> {
        self
    }
}

impl<S: Substrate> Driven<S> for Defaulted<S> {
    fn inner(&self) -> &Store<S> {
        &self.0
    }
    fn inner_mut(&mut self) -> &mut Store<S> {
        &mut self.0
    }
}

/// [`Step::Behind`] on `store`'s engine.
fn behind<S: Substrate>(store: &mut Store<S>, key: ObjectKey, size: u64) -> Result<(), StoreError> {
    let name = key.to_string();
    let request = store.write_request_size();
    let engine = &mut store.substrate;
    let handle = engine
        .resolve(&name)
        .ok_or_else(|| StoreError::NoSuchObject(name.clone()))?;
    engine.remove(handle, &name)?;
    engine.insert(&name, size, request, false)?;
    Ok(())
}

/// What the engine's name map, read directly, says of the object `name`
/// names: its size and layout.
fn by_name<S: Substrate>(store: &Store<S>, name: &str) -> (Option<u64>, Option<Vec<ByteRun>>) {
    let engine = &store.substrate;
    let handle = engine.resolve(name);
    (
        handle.and_then(|handle| engine.size(handle)),
        handle.and_then(|handle| Some(engine.read_plan(handle)?.runs)),
    )
}

/// The keys below this are within every table's reach.
const NEAR: u64 = TABLE_SLACK;

/// Runs `steps` on `store` along `path`, checking the key table after
/// every step (module docs), and returns each step's outcome and how many
/// steps left a stale entry behind.
fn drive<S: Substrate, T: Driven<S>>(
    store: &mut T,
    path: Path,
    steps: &[Step],
) -> (Vec<Outcome>, usize) {
    let name = |key: ObjectKey| key.to_string();
    let kind = S::KIND;
    let mut outcomes = Vec::with_capacity(steps.len());
    let mut stale = 0;
    for (index, step) in steps.iter().enumerate() {
        let covered: Vec<ObjectKey> = match step {
            Step::Maintenance => (0..NEAR)
                .map(ObjectKey)
                .filter(|&key| store.inner().covers(key))
                .collect(),
            _ => Vec::new(),
        };
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
            (Step::LoneSafeWrite(key, size), Path::Keyed) => {
                let mut receipts = Vec::new();
                store
                    .safe_write_batch_keyed(&[(*key, *size)], &mut receipts)
                    .map(|()| (receipts, 0))
            }
            (Step::LoneSafeWrite(key, size), Path::Named) => {
                one(store.safe_write(&name(*key), *size))
            }
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
            (Step::Behind(key, size), _) => {
                behind(store.inner_mut(), *key, *size).map(|()| (Vec::new(), 0))
            }
        };
        let at = |what: String| format!("{kind}, {path:?} path, step {index} {step:?}: {what}");
        let table = store.inner();
        if let Err(violation) = table.check_table() {
            panic!("{}", at(violation));
        }
        if outcome.is_ok() {
            for key in step.live_keys().into_iter().filter(|key| key.0 < NEAR) {
                if let Step::Behind(..) = step {
                    assert!(
                        table.is_stale(key),
                        "{}",
                        at(format!("{key:?} is not stale"))
                    );
                    stale += 1;
                } else {
                    assert!(
                        table.covers(key),
                        "{}",
                        at(format!("no live table entry for {key:?}"))
                    );
                }
            }
        }
        for key in covered {
            assert!(
                table.covers(key),
                "{}",
                at(format!("the pass left {key:?}'s entry dead"))
            );
        }
        for name in step.names() {
            let truth = by_name(table, &name);
            let present = truth.0.is_some();
            assert_eq!(
                (store.size_of(&name).ok(), store.layout_of(&name).ok()),
                truth,
                "{}",
                at(format!(
                    "size_of / layout_of {name:?} disagrees with the name map"
                ))
            );
            assert_eq!(
                store.contains(&name),
                present,
                "{}",
                at(format!("contains {name:?} disagrees with the name map"))
            );
        }
        outcomes.push((outcome, store.elapsed()));
    }
    (outcomes, stale)
}

/// Wraps a store and forwards only the required methods (and
/// `migrate_in`), so that every keyed call takes the trait's default.
struct Defaulted<S: Substrate>(Store<S>);

impl<S: Substrate> ObjectStore for Defaulted<S> {
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
    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError> {
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
    let objects: Vec<(String, u64, Vec<ByteRun>)> = keys
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
fn check<S: Substrate>(
    build: impl Fn() -> Store<S>,
    verify: fn(&Store<S>) -> Result<(), String>,
    seed: u64,
) {
    let steps = script(seed, 400);
    let mut keyed = build();
    let (keyed_outcomes, keyed_stale) = drive(&mut keyed, Path::Keyed, &steps);
    let mut named = build();
    let (named_outcomes, named_stale) = drive(&mut named, Path::Named, &steps);
    let mut defaults = Defaulted(build());
    let (default_outcomes, default_stale) = drive(&mut defaults, Path::Keyed, &steps);

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
    // Every path ends with a live entry for each live dense key, the
    // defaults' wrapped store too: a caller speaking only `&str` reaches
    // the engine through the table.
    let stores = [
        ("keyed", &keyed, keyed_stale),
        ("named", &named, named_stale),
        ("defaults", &defaults.0, default_stale),
    ];
    for (path, store, stale) in stores {
        for key in (0..DENSE).map(ObjectKey) {
            if store.contains(&key.to_string()) {
                assert!(
                    store.covers(key),
                    "{kind}, seed {seed}, {path} path: no live table entry for {key:?} at the end"
                );
            }
        }
        assert!(
            stale >= 2,
            "{kind}, seed {seed}, {path} path: {stale} stale entries reached"
        );
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
