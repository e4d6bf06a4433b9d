//! A photo-sharing service, the workload the paper's introduction motivates:
//! users upload albums, replace edited versions with safe writes, and delete
//! whole albums at once.  The example shows how fragmentation builds up in
//! both storage designs and what running maintenance buys back.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example photo_sharing
//! ```

use lorepo::core::{DbObjectStore, FsObjectStore, LogObjectStore, ObjectStore, StoreKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;
const ALBUMS: usize = 24;
const PHOTOS_PER_ALBUM: usize = 12;
const CAPACITY: u64 = 2_000 * MB;

/// Ages `store` and runs its maintenance, returning its fragments per photo
/// before and after.
fn run(store: &mut dyn ObjectStore, rng: &mut StdRng) -> (f64, f64) {
    // Upload season: albums of ~1 MB photos arrive one after another.
    for album in 0..ALBUMS {
        for photo in 0..PHOTOS_PER_ALBUM {
            let size = rng.gen_range(512 * KB..=(2 * MB));
            store
                .put(&format!("album-{album:03}/photo-{photo:03}.jpg"), size)
                .expect("upload");
        }
    }

    // Editing season: users re-upload edited photos (safe writes) and some
    // albums are deleted as a group — the structured deallocation pattern the
    // paper calls out.
    for round in 0..6 {
        for album in 0..ALBUMS {
            if (album + round) % 5 == 0 {
                for photo in 0..PHOTOS_PER_ALBUM {
                    let key = format!("album-{album:03}/photo-{photo:03}.jpg");
                    if store.contains(&key) {
                        store.delete(&key).expect("delete");
                    }
                }
            } else {
                for photo in 0..PHOTOS_PER_ALBUM {
                    let key = format!("album-{album:03}/photo-{photo:03}.jpg");
                    if store.contains(&key) {
                        let size = rng.gen_range(512 * KB..=(2 * MB));
                        store.safe_write(&key, size).expect("edit");
                    }
                }
            }
        }
        // Deleted albums are re-uploaded by new users.
        for album in 0..ALBUMS {
            for photo in 0..PHOTOS_PER_ALBUM {
                let key = format!("album-{album:03}/photo-{photo:03}.jpg");
                if !store.contains(&key) {
                    let size = rng.gen_range(512 * KB..=(2 * MB));
                    store.put(&key, size).expect("re-upload");
                }
            }
        }
    }

    let before = store.fragmentation();
    let copied = store.maintenance().expect("maintenance");
    let after = store.fragmentation();
    println!(
        "{:<10}  {:>4} photos  {:>6.2} -> {:>5.2} fragments/photo after maintenance ({} MB copied)",
        store.kind().label(),
        store.object_count(),
        before.fragments_per_object,
        after.fragments_per_object,
        copied / MB,
    );
    (before.fragments_per_object, after.fragments_per_object)
}

fn main() {
    println!(
        "photo-sharing service: {ALBUMS} albums x {PHOTOS_PER_ALBUM} photos, six editing seasons\n"
    );
    // Every store sees the same uploads, edits and deletes.
    let seeded = || StdRng::seed_from_u64(2007);
    let fs = run(
        &mut FsObjectStore::new(CAPACITY).expect("volume"),
        &mut seeded(),
    );
    let db = run(
        &mut DbObjectStore::new(CAPACITY).expect("data file"),
        &mut seeded(),
    );
    let log = run(
        &mut LogObjectStore::new(CAPACITY).expect("log"),
        &mut seeded(),
    );
    // What the table shows, checked: the database ages worse than the
    // filesystem, and maintenance leaves no store worse than it found it.
    assert!(
        db.0 > fs.0,
        "the database ({:.2} fragments/photo) aged no worse than the filesystem ({:.2})",
        db.0,
        fs.0
    );
    for (kind, (before, after)) in [
        (StoreKind::Filesystem, fs),
        (StoreKind::Database, db),
        (StoreKind::LogStructured, log),
    ] {
        assert!(
            after <= before,
            "{kind}: maintenance left {after:.2} fragments/photo, up from {before:.2}"
        );
    }
    println!("\nThe filesystem ages more gracefully; the database needs its table rebuilt.");
}
