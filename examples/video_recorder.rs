//! A personal video recorder: the other application class the paper's
//! introduction cites — large, transient objects that are continuously
//! allocated and deleted (recordings expire, new ones take their place).
//!
//! The example drives both stores with the same recording schedule and shows
//! how read (playback) throughput degrades as the store ages, and how the
//! paper's proposed interface extension — declaring a recording's size up
//! front — keeps the filesystem contiguous.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example video_recorder
//! ```

use lorepo::core::lor_disksim::throughput_mb_per_sec;
use lorepo::core::{DbObjectStore, FsObjectStore, ObjectStore, SizeDistribution, StoreKind};
use lorepo::fskit::{Volume, VolumeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MB: u64 = 1 << 20;
const CAPACITY: u64 = 4_000 * MB;
const RECORDING_MEAN: u64 = 64 * MB;
const RETAINED: usize = 28; // recordings kept before the oldest expires

fn playback_throughput(store: &mut dyn ObjectStore) -> f64 {
    store.reset_measurements();
    let mut bytes = 0;
    for key in store.keys() {
        bytes += store.get(&key).expect("playback").payload_bytes;
    }
    throughput_mb_per_sec(bytes, store.elapsed())
}

/// Records `weeks` of the schedule into `store`, returning its fragments
/// per recording.
fn run(store: &mut dyn ObjectStore, weeks: usize) -> f64 {
    let sizes = SizeDistribution::uniform_around(RECORDING_MEAN);
    let mut rng = StdRng::seed_from_u64(7);
    let mut next_id = 0u64;
    let mut live: Vec<String> = Vec::new();

    for _ in 0..weeks {
        // Seven new recordings a week; the oldest expire to make room.
        for _ in 0..7 {
            while live.len() >= RETAINED {
                let oldest = live.remove(0);
                store.delete(&oldest).expect("expire recording");
            }
            let key = format!("recording-{next_id:06}.ts");
            next_id += 1;
            store.put(&key, sizes.sample(&mut rng)).expect("record");
            live.push(key);
        }
    }

    let summary = store.fragmentation();
    println!(
        "{:<10}  {:>3} recordings kept  {:>6.2} fragments/recording  playback {:>7.1} simulated MB/s",
        store.kind().label(),
        store.object_count(),
        summary.fragments_per_object,
        playback_throughput(store),
    );
    summary.fragments_per_object
}

fn main() {
    println!(
        "personal video recorder: ~{}-MB recordings, {RETAINED} retained, one year of churn\n",
        RECORDING_MEAN / MB
    );
    let weeks = 52;
    let mut fs = FsObjectStore::new(CAPACITY).expect("volume");
    let churned = run(&mut fs, weeks);
    let mut db = DbObjectStore::new(CAPACITY).expect("data file");
    run(&mut db, weeks);
    let _ = StoreKind::Filesystem;

    // The paper's proposed fix (Section 6): let the application declare the
    // final size when the recording starts.  The raw fskit API exposes it.
    let mut volume = Volume::format(VolumeConfig::new(CAPACITY)).expect("volume");
    let sizes = SizeDistribution::uniform_around(RECORDING_MEAN);
    let mut rng = StdRng::seed_from_u64(7);
    let mut live: Vec<String> = Vec::new();
    for next_id in 0..weeks * 7 {
        while live.len() >= RETAINED {
            volume.delete_by_name(&live.remove(0)).expect("expire");
        }
        let key = format!("recording-{next_id:06}.ts");
        volume
            .write_file_preallocated(&key, sizes.sample(&mut rng), 64 * 1024)
            .expect("record with declared size");
        live.push(key);
    }
    let preallocated = volume.fragmentation().fragments_per_object;
    println!(
        "\nwith the paper's proposed 'declare the size up front' interface, the filesystem stays at {preallocated:.2} fragments/recording"
    );
    // What the last line claims, checked: every declared recording is one
    // fragment, and the churned filesystem has more.
    assert_eq!(
        preallocated, 1.0,
        "a recording declared up front was written in pieces"
    );
    assert!(
        churned > preallocated,
        "the churned filesystem ({churned:.2} fragments/recording) is no worse than declaring sizes"
    );
}
