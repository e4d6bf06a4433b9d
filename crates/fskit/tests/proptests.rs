//! Property tests for the filesystem simulator: random operation sequences
//! must preserve the volume's structural invariants.

use lor_alloc::{Extent, FreeSpace};
use lor_fskit::{DefragCursor, Defragmenter, FileId, FsError, Volume, VolumeConfig};
use proptest::prelude::*;

const MB: u64 = 1 << 20;
const VOLUME_BYTES: u64 = 64 * MB;

/// Abstract workload operation against the volume.
#[derive(Debug, Clone)]
enum FsOp {
    /// Write a new object of `size` bytes in `chunk` byte requests.
    Put { size: u64, chunk: u64 },
    /// Safe-write (replace) the live object at this modular index with a new
    /// size.
    Replace { index: usize, size: u64 },
    /// Safe-write the live objects at these modular indices (duplicates
    /// allowed) in one interleaved batch.
    ReplaceBatch { indices: Vec<usize>, size: u64 },
    /// Delete the live object at this modular index.
    Delete { index: usize },
    /// Run a manual checkpoint.
    Checkpoint,
    /// Defragment the live object at this modular index.
    Defrag { index: usize },
}

fn arb_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        4 => (1u64..2 * MB, prop_oneof![Just(16 * 1024u64), Just(64 * 1024), Just(256 * 1024)])
            .prop_map(|(size, chunk)| FsOp::Put { size, chunk }),
        3 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| FsOp::Replace { index, size }),
        2 => (prop::collection::vec(0usize..64, 1..5), 1u64..2 * MB)
            .prop_map(|(indices, size)| FsOp::ReplaceBatch { indices, size }),
        2 => (0usize..64).prop_map(|index| FsOp::Delete { index }),
        1 => Just(FsOp::Checkpoint),
        1 => (0usize..64).prop_map(|index| FsOp::Defrag { index }),
    ]
}

/// Checks the volume against a shadow model of the live objects
/// (name -> size), and its own structural invariants.
fn check_invariants(volume: &Volume, live: &[(String, u64)]) -> Result<(), TestCaseError> {
    // Every live object is present with the right size, and nothing else is.
    prop_assert_eq!(volume.file_count(), live.len());
    let cluster = volume.cluster_size();
    for (name, size) in live {
        let id = volume.lookup(name).expect("live object must resolve");
        let record = volume.file(id).expect("live object must have a record");
        prop_assert_eq!(record.size_bytes, *size);
        // Allocation is exactly the clusters needed to hold the bytes.
        prop_assert_eq!(record.allocated_clusters(), size.div_ceil(cluster));
        // The read plan covers every logical byte exactly once.
        let plan = volume.read_plan(id).unwrap();
        prop_assert_eq!(plan.iter().map(|r| r.len).sum::<u64>(), *size);
    }
    // One owner per cluster, trackers equal to a rescan, names equal to the
    // named records.
    prop_assert_eq!(volume.verify(), Ok(()));
    Ok(())
}

/// Applies one operation of a script to `volume`, keeping the list of live
/// names in step (for the tests that need no more of a model than that).
fn apply(volume: &mut Volume, live: &mut Vec<String>, counter: &mut u64, op: &FsOp) {
    match op {
        FsOp::Put { size, chunk } => {
            let name = format!("obj-{counter}");
            *counter += 1;
            // A put that runs out of space rolls itself back.
            if volume.write_file(&name, *size, *chunk).is_ok() {
                live.push(name);
            }
        }
        FsOp::Replace { index, size } if !live.is_empty() => {
            let _ = volume.safe_write(&live[index % live.len()], *size, 64 * 1024);
        }
        FsOp::ReplaceBatch { indices, size } if !live.is_empty() => {
            let items: Vec<(&str, u64)> = indices
                .iter()
                .map(|index| (live[index % live.len()].as_str(), *size))
                .collect();
            let _ = volume.safe_write_batch(&items, 64 * 1024);
        }
        FsOp::Delete { index } if !live.is_empty() => {
            let name = live.swap_remove(index % live.len());
            volume.delete_by_name(&name).unwrap();
        }
        FsOp::Defrag { index } if !live.is_empty() => {
            let id = volume.lookup(&live[index % live.len()]).unwrap();
            let _ = Defragmenter::new().defragment_file(volume, id);
        }
        FsOp::Checkpoint => volume.checkpoint(),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_workloads_preserve_volume_invariants(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut config = VolumeConfig::new(VOLUME_BYTES);
        config.checkpoint_interval_ops = 4;
        let mut volume = Volume::format(config).unwrap();
        let mut live: Vec<(String, u64)> = Vec::new();
        let mut counter = 0u64;

        for op in ops {
            match op {
                FsOp::Put { size, chunk } => {
                    let name = format!("obj-{counter}");
                    counter += 1;
                    match volume.write_file(&name, size, chunk) {
                        Ok(receipt) => {
                            prop_assert_eq!(receipt.bytes_written, size);
                            prop_assert_eq!(
                                receipt.runs.iter().map(|r| r.len).sum::<u64>(),
                                size,
                                "write receipt must cover every byte"
                            );
                            live.push((name, size));
                        }
                        Err(_) => {
                            // Out of space is acceptable on a small volume; the
                            // failed put must have rolled itself back.
                            prop_assert!(volume.lookup(&name).is_err());
                        }
                    }
                }
                FsOp::Replace { index, size } => {
                    if live.is_empty() { continue; }
                    let slot = index % live.len();
                    let name = live[slot].0.clone();
                    match volume.safe_write(&name, size, 64 * 1024) {
                        Ok(_) => live[slot].1 = size,
                        Err(_) => {
                            // The original object must survive a failed safe write.
                            prop_assert!(volume.lookup(&name).is_ok());
                        }
                    }
                }
                FsOp::ReplaceBatch { indices, size } => {
                    if live.is_empty() { continue; }
                    let slots: Vec<usize> = indices.iter().map(|i| i % live.len()).collect();
                    let items: Vec<(&str, u64)> =
                        slots.iter().map(|&slot| (live[slot].0.as_str(), size)).collect();
                    // All or nothing: a failed batch (checked below against
                    // the unchanged model) replaces none of its targets.
                    if let Ok(receipts) = volume.safe_write_batch(&items, 64 * 1024) {
                        prop_assert_eq!(receipts.len(), slots.len());
                        for slot in slots {
                            live[slot].1 = size;
                        }
                    }
                }
                FsOp::Delete { index } => {
                    if live.is_empty() { continue; }
                    let (name, _) = live.swap_remove(index % live.len());
                    volume.delete_by_name(&name).unwrap();
                }
                FsOp::Checkpoint => volume.checkpoint(),
                FsOp::Defrag { index } => {
                    if live.is_empty() { continue; }
                    let name = &live[index % live.len()].0;
                    let id = volume.lookup(name).unwrap();
                    let size_before = volume.file(id).unwrap().size_bytes;
                    let _ = Defragmenter::new().defragment_file(&mut volume, id);
                    prop_assert_eq!(volume.file(id).unwrap().size_bytes, size_before);
                }
            }
            check_invariants(&volume, &live)?;
        }

        // Final teardown: delete everything, checkpoint, and the volume must be
        // back to a clean state (only the MFT zone allocated).
        for (name, _) in live {
            volume.delete_by_name(&name).unwrap();
        }
        volume.checkpoint();
        let report = volume.free_space_report();
        prop_assert_eq!(report.free_clusters, report.total_clusters - volume.config().mft_clusters());
    }

    /// Safe-writing an object over and over must never leak space or change
    /// the object count, and fragment counts must stay bounded by the number
    /// of write requests (the paper's Figure 3 observation).
    #[test]
    fn repeated_safe_writes_bound_fragments_by_write_requests(
        object_kb in 64u64..512,
        rounds in 1usize..12,
    ) {
        let mut config = VolumeConfig::new(VOLUME_BYTES);
        config.checkpoint_interval_ops = 4;
        let mut volume = Volume::format(config).unwrap();
        let size = object_kb * 1024;
        let chunk = 64 * 1024u64;

        // A population of 32 objects, each overwritten `rounds` times.
        for i in 0..32 {
            volume.write_file(&format!("obj-{i}"), size, chunk).unwrap();
        }
        for _ in 0..rounds {
            for i in 0..32 {
                volume.safe_write(&format!("obj-{i}"), size, chunk).unwrap();
            }
        }
        prop_assert_eq!(volume.file_count(), 32);
        let max_possible = size.div_ceil(chunk).max(1);
        for record in volume.iter_files() {
            prop_assert!(
                (record.fragment_count() as u64) <= max_possible,
                "file has {} fragments but only {} write requests",
                record.fragment_count(),
                max_possible
            );
        }
    }

    /// Defragmenter invariants on randomly aged volumes: driving
    /// `defragment_step` to completion (any per-step budget) produces exactly
    /// the layout of one unlimited step on a fresh cursor — the whole-volume
    /// pass — and no step ever increases the volume's total fragment count.
    #[test]
    fn incremental_defrag_matches_the_volume_pass_on_aged_volumes(
        ops in prop::collection::vec(arb_op(), 10..80),
        step_budget_kb in 32u64..2048,
    ) {
        // Age a volume with a random workload (defrag ops in the stream just
        // add more layout churn before the comparison).
        let mut config = VolumeConfig::new(VOLUME_BYTES);
        config.checkpoint_interval_ops = 4;
        let mut volume = Volume::format(config).unwrap();
        let mut live: Vec<String> = Vec::new();
        let mut counter = 0u64;
        for op in &ops {
            apply(&mut volume, &mut live, &mut counter, op);
        }

        let mut whole = volume.clone();
        let mut stepped = volume;
        let defragmenter = Defragmenter::new();

        let mut whole_cursor = DefragCursor::new();
        let full_report = defragmenter
            .defragment_step(&mut whole, &mut whole_cursor, 0)
            .unwrap();
        prop_assert!(whole_cursor.is_done(), "an unlimited step finishes its pass");

        let mut cursor = DefragCursor::new();
        let mut previous = stepped.fragmentation().total_fragments;
        let mut stepped_copied = 0u64;
        let mut steps = 0u64;
        while !cursor.is_done() {
            let report = defragmenter
                .defragment_step(&mut stepped, &mut cursor, step_budget_kb * 1024)
                .unwrap();
            stepped_copied += report.bytes_copied;
            let now = stepped.fragmentation().total_fragments;
            prop_assert!(now <= previous, "step increased fragments {previous} -> {now}");
            previous = now;
            steps += 1;
            prop_assert!(steps < 100_000, "incremental pass must terminate");
        }

        // Identical work and identical final layout, file by file.
        prop_assert_eq!(stepped_copied, full_report.bytes_copied);
        let whole_layouts: Vec<(FileId, Vec<Extent>)> = whole
            .iter_files()
            .map(|f| (f.id, f.extents.clone()))
            .collect();
        let stepped_layouts: Vec<(FileId, Vec<Extent>)> = stepped
            .iter_files()
            .map(|f| (f.id, f.extents.clone()))
            .collect();
        prop_assert_eq!(whole_layouts, stepped_layouts);
        prop_assert_eq!(
            whole.fragmentation().total_fragments,
            stepped.fragmentation().total_fragments
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two volumes fed the same script end in the same files, in the same
    /// order, over the same free runs: the name map is hashed, and nothing
    /// observable may depend on how.
    #[test]
    fn equal_scripts_build_equal_volumes(ops in prop::collection::vec(arb_op(), 1..80)) {
        let mut config = VolumeConfig::new(VOLUME_BYTES);
        config.checkpoint_interval_ops = 4;
        let mut volumes = [
            Volume::format(config.clone()).unwrap(),
            Volume::format(config).unwrap(),
        ];
        for volume in &mut volumes {
            let (mut live, mut counter) = (Vec::new(), 0);
            for op in &ops {
                apply(volume, &mut live, &mut counter, op);
            }
        }
        let [first, second] = &volumes;
        prop_assert!(first.iter_files().eq(second.iter_files()));
        prop_assert_eq!(first.free_space().free_runs(), second.free_space().free_runs());
        prop_assert_eq!(first.stats(), second.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The file table as the volume's API shows it: `iter_files()` ascends by
    /// id and `file(id)` answers `NoSuchFile` for every id ever retired (and
    /// the ones never issued), after puts, safe-write batches, deletes and
    /// defragmentation steps.  The volume is small enough that many puts and
    /// batches run out of space mid-way (52 failed batches and 50 failed puts
    /// over the 32 cases at PR 24; their temporaries are issued ids no listing
    /// ever showed), and the defragmenter's pass queue is held across
    /// operations, so its steps look up ids retired since the snapshot.
    #[test]
    fn files_list_in_id_order_and_retired_ids_stay_gone(
        ops in prop::collection::vec(arb_op(), 1..80),
        step_budget_kb in 64u64..1024,
    ) {
        let mut config = VolumeConfig::new(8 * MB);
        config.checkpoint_interval_ops = 4;
        let mut volume = Volume::format(config).unwrap();
        let (mut live, mut counter) = (Vec::new(), 0);
        let mut cursor = DefragCursor::new();
        for op in &ops {
            apply(&mut volume, &mut live, &mut counter, op);
            Defragmenter::new()
                .defragment_step(&mut volume, &mut cursor, step_budget_kb * 1024)
                .unwrap();
            if cursor.is_done() {
                cursor.reset();
            }

            let listed: Vec<u64> = volume.iter_files().map(|file| file.id.0).collect();
            prop_assert!(listed.windows(2).all(|pair| pair[0] < pair[1]), "{listed:?}");
            prop_assert_eq!(listed.len(), volume.file_count());
            // Ids are issued densely from 1, one per file created: every one
            // of them, 0 and the next one to come is either listed or gone.
            for id in 0..=volume.stats().files_created + 1 {
                match volume.file(FileId(id)) {
                    Ok(record) => {
                        prop_assert_eq!(record.id, FileId(id));
                        prop_assert!(listed.binary_search(&id).is_ok(), "{id} is not listed");
                    }
                    Err(err) => {
                        prop_assert!(matches!(err, FsError::NoSuchFile(gone) if gone == id));
                        prop_assert!(listed.binary_search(&id).is_err(), "{id} is listed");
                    }
                }
            }
        }
    }
}

#[test]
fn file_ids_are_never_reused() {
    let mut volume = Volume::format(VolumeConfig::new(16 * MB)).unwrap();
    let mut seen = std::collections::HashSet::new();
    for round in 0..50 {
        let name = format!("f{round}");
        let receipt = volume.write_file(&name, 64 * 1024, 64 * 1024).unwrap();
        assert!(
            seen.insert(receipt.file_id),
            "FileId {:?} reused",
            receipt.file_id
        );
        volume.delete(receipt.file_id).unwrap();
    }
    assert_eq!(seen.len(), 50);
    let _ = FileId(0);
}

/// Operations for the placement proptest: the foreground workload plus
/// explicit budgeted incremental defragmentation steps.
#[derive(Debug, Clone)]
enum PlacedFsOp {
    /// Write a new object of `size` bytes (64 KB requests).
    Put { size: u64 },
    /// Safe-write the live object at this modular index.
    Replace { index: usize, size: u64 },
    /// Delete the live object at this modular index.
    Delete { index: usize },
    /// Run a manual checkpoint (the FS analogue of ghost cleanup).
    Checkpoint,
    /// Run one budgeted incremental defragmentation step.
    DefragStep { copy_budget: u64 },
}

fn arb_placed_fs_op() -> impl Strategy<Value = PlacedFsOp> {
    prop_oneof![
        4 => (1u64..2 * MB).prop_map(|size| PlacedFsOp::Put { size }),
        4 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| PlacedFsOp::Replace { index, size }),
        2 => (0usize..64).prop_map(|index| PlacedFsOp::Delete { index }),
        2 => Just(PlacedFsOp::Checkpoint),
        3 => (0u64..512 * 1024).prop_map(|copy_budget| PlacedFsOp::DefragStep { copy_budget }),
    ]
}

/// The largest free run (in clusters) inside the foreground band.
fn foreground_band_largest(volume: &Volume, boundary: u64) -> u64 {
    volume
        .free_space()
        .largest_run_in(0, boundary)
        .map_or(0, |run| run.len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under [`lor_alloc::PlacementPolicy::Banded`], an incremental
    /// defragmentation step never shrinks the foreground band's largest free
    /// run, whatever put/replace/delete/checkpoint/defrag sequence surrounds
    /// it: the defragmenter allocates only inside the maintenance band
    /// (refusing rather than spilling) and the extents it frees can only
    /// grow the foreground band.
    #[test]
    fn banded_defrag_never_shrinks_the_foreground_band(
        ops in prop::collection::vec(arb_placed_fs_op(), 1..60),
        boundary_fraction in prop_oneof![Just(0.5f64), Just(0.75), Just(0.9)],
    ) {
        let placement = lor_alloc::PlacementPolicy::banded(boundary_fraction);
        let mut config = VolumeConfig::new(VOLUME_BYTES);
        config.checkpoint_interval_ops = 0; // checkpoint only when the script says so
        config.placement = placement;
        let boundary = placement.boundary_cluster(config.total_clusters());
        let mut volume = Volume::format(config).unwrap();
        let defragmenter = Defragmenter::new();
        let mut cursor = DefragCursor::new();
        let mut live: Vec<String> = Vec::new();
        let mut next_name = 0u64;
        for op in ops {
            match op {
                PlacedFsOp::Put { size } => {
                    let name = format!("f{next_name}");
                    next_name += 1;
                    if volume.write_file(&name, size, 64 * 1024).is_ok() {
                        live.push(name);
                    }
                }
                PlacedFsOp::Replace { index, size } => {
                    if !live.is_empty() {
                        let name = live[index % live.len()].clone();
                        let _ = volume.safe_write(&name, size, 64 * 1024);
                    }
                }
                PlacedFsOp::Delete { index } => {
                    if !live.is_empty() {
                        let name = live.remove(index % live.len());
                        volume.delete_by_name(&name).unwrap();
                    }
                }
                PlacedFsOp::Checkpoint => volume.checkpoint(),
                PlacedFsOp::DefragStep { copy_budget } => {
                    if cursor.is_done() {
                        cursor.reset();
                    }
                    let before = foreground_band_largest(&volume, boundary);
                    defragmenter
                        .defragment_step(&mut volume, &mut cursor, copy_budget)
                        .unwrap();
                    let after = foreground_band_largest(&volume, boundary);
                    prop_assert!(
                        after >= before,
                        "defrag step shrank the foreground band's largest \
                         free run ({before} -> {after} clusters, boundary \
                         {boundary_fraction})"
                    );
                }
            }
        }
        // Every surviving object still reads back in full.
        for name in &live {
            let id = volume.lookup(name).unwrap();
            let record = volume.file(id).unwrap();
            let plan = volume.read_plan(id).unwrap();
            prop_assert_eq!(plan.iter().map(|r| r.len).sum::<u64>(), record.size_bytes);
        }
    }
}

/// One operation of the incremental-fragmentation equivalence workload: the
/// foreground mutation mix plus the maintenance paths (checkpoints and
/// budgeted defragmentation steps) that rewrite layouts outside the write
/// path.
#[derive(Debug, Clone)]
enum FragOp {
    Put { size: u64, chunk: u64 },
    Replace { index: usize, size: u64 },
    Delete { index: usize },
    Checkpoint,
    DefragStep { budget: u64 },
}

fn arb_frag_op() -> impl Strategy<Value = FragOp> {
    prop_oneof![
        4 => (1u64..2 * MB, prop_oneof![Just(16 * 1024u64), Just(64 * 1024), Just(256 * 1024)])
            .prop_map(|(size, chunk)| FragOp::Put { size, chunk }),
        4 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| FragOp::Replace { index, size }),
        2 => (0usize..64).prop_map(|index| FragOp::Delete { index }),
        1 => Just(FragOp::Checkpoint),
        2 => (16u64 * 1024..512 * 1024).prop_map(|budget| FragOp::DefragStep { budget }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any sequence of writes, safe writes, deletes, checkpoints and
    /// budgeted defragmentation steps, the volume's O(1)-observable
    /// [`Volume::fragmentation`] is bit-identical to
    /// [`Volume::fragmentation_rescan`], the full walk over every live file
    /// it replaced.
    #[test]
    fn incremental_fragmentation_matches_full_rescan(
        ops in prop::collection::vec(arb_frag_op(), 1..80)
    ) {
        let mut config = VolumeConfig::new(VOLUME_BYTES);
        config.checkpoint_interval_ops = 4;
        let mut volume = Volume::format(config).unwrap();
        let mut names: Vec<String> = Vec::new();
        let mut counter = 0u64;
        let mut cursor = DefragCursor::new();

        for op in ops {
            match op {
                FragOp::Put { size, chunk } => {
                    let name = format!("obj-{counter}");
                    counter += 1;
                    match volume.write_file(&name, size, chunk) {
                        Ok(_) => names.push(name),
                        Err(_) => {
                            if let Ok(id) = volume.lookup(&name) {
                                volume.delete(id).unwrap();
                            }
                        }
                    }
                }
                FragOp::Replace { index, size } => {
                    if names.is_empty() { continue; }
                    let name = names[index % names.len()].clone();
                    let _ = volume.safe_write(&name, size, 64 * 1024);
                }
                FragOp::Delete { index } => {
                    if names.is_empty() { continue; }
                    let name = names.swap_remove(index % names.len());
                    volume.delete_by_name(&name).unwrap();
                }
                FragOp::Checkpoint => volume.checkpoint(),
                FragOp::DefragStep { budget } => {
                    if cursor.is_done() {
                        cursor.reset();
                    }
                    Defragmenter::new()
                        .defragment_step(&mut volume, &mut cursor, budget)
                        .unwrap();
                }
            }
            prop_assert_eq!(volume.fragmentation(), volume.fragmentation_rescan());
        }
    }
}
