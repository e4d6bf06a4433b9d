//! Quickstart: store objects in both systems, age them, and see where the
//! break-even point lies.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lorepo::core::{
    run_aging_experiment, DbObjectStore, ExperimentConfig, FsObjectStore, ObjectStore,
    SizeDistribution, StoreKind,
};

fn main() {
    const MB: u64 = 1 << 20;

    // 1. The get/put interface, by hand: a small repository on each system.
    let mut fs = FsObjectStore::new(256 * MB).expect("filesystem store");
    let mut db = DbObjectStore::new(256 * MB).expect("database store");
    for store in [
        &mut fs as &mut dyn ObjectStore,
        &mut db as &mut dyn ObjectStore,
    ] {
        store.put("report.pdf", 512 * 1024).expect("put");
        store
            .safe_write("report.pdf", 600 * 1024)
            .expect("safe write");
        let read = store.get("report.pdf").expect("get");
        println!(
            "{:<10} read {:>7} bytes in {} ({} fragment(s))",
            store.kind().label(),
            read.payload_bytes,
            read.total_time(),
            read.fragments
        );
    }

    // 2. The paper's experiment loop, miniature edition: 512 KB objects on a
    //    128 MB volume, aged to storage age 4.
    let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(512 * 1024));
    config.volume_bytes = 128 * MB;
    config.read_sample = Some(32);
    let [database, filesystem] = [StoreKind::Database, StoreKind::Filesystem]
        .map(|kind| run_aging_experiment(kind, &config, &[0, 2, 4], true).expect("experiment"));

    println!("\nstorage age -> read throughput (simulated MB/s) and fragments/object");
    for (db_point, fs_point) in database.points.iter().zip(&filesystem.points) {
        println!(
            "  age {:>4.1}:  database {:>7.2} MB/s ({:>5.2} frag/obj)   filesystem {:>7.2} MB/s ({:>5.2} frag/obj)",
            db_point.storage_age,
            db_point.read_throughput_mb_s.unwrap_or(0.0),
            db_point.fragments_per_object,
            fs_point.read_throughput_mb_s.unwrap_or(0.0),
            fs_point.fragments_per_object,
        );
    }

    let db_aged = database.points.last().expect("points");
    let fs_aged = filesystem.points.last().expect("points");
    let winner = if db_aged.read_throughput_mb_s > fs_aged.read_throughput_mb_s {
        StoreKind::Database
    } else {
        StoreKind::Filesystem
    };
    println!("\nafter aging, the better home for 512 KB objects here is: {winner}");
}
