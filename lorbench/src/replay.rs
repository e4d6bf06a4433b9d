//! Replay below the store boundary: the op log a [`TimedStore`] recorded is
//! driven against a *bare* substrate (`Database` / `Volume` / `SegmentLog`)
//! built from the same configuration the store adapter builds, timing each
//! substrate call; the byte runs the substrate returns are then turned back
//! into `IoRequest`s and serviced by a bare `Disk`.  What the adapter costs
//! beyond that — key strings, the name map, receipts, the cost model — is
//! the `store` layer's self time, obtained by subtraction.
//!
//! The replay is only valid where nothing but the logged calls mutates the
//! store (the `age_*` workloads: no maintenance drive).  It proves itself by
//! ending with the live store's fragmentation summary, object count and
//! total simulated disk time.
//!
//! [`TimedStore`]: crate::timed_store::TimedStore

use std::hint::black_box;
use std::time::Instant;

use lor_core::lor_alloc::{FragmentationSummary, RunIndexMap};
use lor_core::lor_blobkit::Database;
use lor_core::lor_disksim::{AccessKind, ByteRun, Disk, DiskConfig, IoRequest};
use lor_core::lor_fskit::Volume;
use lor_core::lor_logstore::SegmentLog;
use lor_core::{
    DbStoreConfig, ExperimentConfig, FsStoreConfig, LogStoreConfig, ObjectKey, StoreKind,
};

use crate::timed_store::{LoggedOp, TraceLog};

/// Disk requests are rebuilt and serviced in chunks of this many, so the
/// replay never holds more than a chunk of run lists.
const DISK_CHUNK: usize = 4096;

/// One disk request the substrate produced: the runs, and whether the
/// adapter also asks `disksim` for the coalesced fragment count.
struct PendingIo {
    kind: AccessKind,
    runs: Vec<ByteRun>,
    coalesce: bool,
}

/// The substrate calls each store-adapter method makes, in the adapter's
/// order.  `key` is the string the adapter passes down, `number` the
/// generator's key number.
trait Substrate {
    fn put(&mut self, key: &str, number: u64, size: u64, io: &mut Vec<PendingIo>);
    fn get(&mut self, key: &str, number: u64, io: &mut Vec<PendingIo>);
    fn batch(&mut self, items: &[(&str, u64)], numbers: &[u64], io: &mut Vec<PendingIo>);
    fn size_of(&mut self, key: &str, number: u64);
    fn fragmentation(&self) -> FragmentationSummary;
    fn object_count(&self) -> usize;
}

struct DbReplay {
    db: Database,
    write_request_size: u64,
}

impl Substrate for DbReplay {
    fn put(&mut self, key: &str, _: u64, size: u64, io: &mut Vec<PendingIo>) {
        let receipt = self.db.insert(key, size).expect("replayed insert");
        io.push(PendingIo {
            kind: AccessKind::Write,
            runs: receipt.runs,
            coalesce: true,
        });
    }

    fn get(&mut self, key: &str, _: u64, io: &mut Vec<PendingIo>) {
        let record = self.db.get(key).expect("replayed get");
        black_box(record.page_count());
        let runs = record.byte_runs(self.db.config().page_size, self.db.config().base_offset);
        io.push(PendingIo {
            kind: AccessKind::Read,
            runs,
            coalesce: true,
        });
    }

    fn batch(&mut self, items: &[(&str, u64)], _: &[u64], io: &mut Vec<PendingIo>) {
        let receipts = self
            .db
            .update_batch(items, self.write_request_size)
            .expect("replayed update_batch");
        io.extend(receipts.into_iter().map(|receipt| PendingIo {
            kind: AccessKind::Write,
            runs: receipt.runs,
            coalesce: true,
        }));
    }

    fn size_of(&mut self, key: &str, _: u64) {
        black_box(self.db.get(key).expect("replayed lookup").size_bytes);
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.db.fragmentation()
    }

    fn object_count(&self) -> usize {
        self.db.object_count()
    }
}

struct FsReplay {
    volume: Volume,
    write_request_size: u64,
}

impl Substrate for FsReplay {
    fn put(&mut self, key: &str, _: u64, size: u64, io: &mut Vec<PendingIo>) {
        let receipt = self
            .volume
            .write_file(key, size, self.write_request_size)
            .expect("replayed write_file");
        black_box(
            self.volume
                .file(receipt.file_id)
                .expect("written file")
                .fragment_count(),
        );
        io.push(PendingIo {
            kind: AccessKind::Write,
            runs: receipt.runs,
            coalesce: false,
        });
    }

    fn get(&mut self, key: &str, _: u64, io: &mut Vec<PendingIo>) {
        let id = self.volume.lookup(key).expect("replayed lookup");
        let runs = self.volume.read_plan(id).expect("replayed read_plan");
        black_box(self.volume.file(id).expect("read file").size_bytes);
        io.push(PendingIo {
            kind: AccessKind::Read,
            runs,
            coalesce: true,
        });
    }

    fn batch(&mut self, items: &[(&str, u64)], _: &[u64], io: &mut Vec<PendingIo>) {
        let receipts = self
            .volume
            .safe_write_batch(items, self.write_request_size)
            .expect("replayed safe_write_batch");
        for receipt in receipts {
            if let Ok(record) = self.volume.file(receipt.file_id) {
                black_box(record.fragment_count());
            }
            io.push(PendingIo {
                kind: AccessKind::Write,
                runs: receipt.runs,
                coalesce: false,
            });
        }
    }

    fn size_of(&mut self, key: &str, _: u64) {
        let id = self.volume.lookup(key).expect("replayed lookup");
        black_box(self.volume.file(id).expect("looked-up file").size_bytes);
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.volume.fragmentation()
    }

    fn object_count(&self) -> usize {
        self.volume.file_count()
    }
}

struct LogReplay {
    log: SegmentLog,
    /// Record id per key number, assigned in put order as the adapter does.
    ids: Vec<u64>,
}

impl LogReplay {
    fn append_io(extents: &[lor_core::lor_alloc::Extent]) -> Vec<ByteRun> {
        extents
            .iter()
            .map(|extent| ByteRun::new(extent.start, extent.len))
            .collect()
    }
}

impl Substrate for LogReplay {
    fn put(&mut self, _: &str, number: u64, size: u64, io: &mut Vec<PendingIo>) {
        let id = self.ids.len() as u64 + 1;
        assert_eq!(number as usize, self.ids.len(), "puts arrive in key order");
        self.ids.push(id);
        let outcome = self.log.insert(id, size).expect("replayed insert");
        io.push(PendingIo {
            kind: AccessKind::Write,
            runs: Self::append_io(&outcome.extents),
            coalesce: false,
        });
    }

    fn get(&mut self, _: &str, number: u64, io: &mut Vec<PendingIo>) {
        let id = self.ids[number as usize];
        let runs = Self::append_io(self.log.extents_of(id).expect("replayed extents_of"));
        black_box(self.log.size_of(id).expect("replayed size_of"));
        io.push(PendingIo {
            kind: AccessKind::Read,
            runs,
            coalesce: true,
        });
    }

    fn batch(&mut self, items: &[(&str, u64)], numbers: &[u64], io: &mut Vec<PendingIo>) {
        for (&(_, size), &number) in items.iter().zip(numbers) {
            let outcome = self
                .log
                .update(self.ids[number as usize], size)
                .expect("replayed update");
            io.push(PendingIo {
                kind: AccessKind::Write,
                runs: Self::append_io(&outcome.extents),
                coalesce: false,
            });
        }
    }

    fn size_of(&mut self, _: &str, number: u64) {
        black_box(
            self.log
                .size_of(self.ids[number as usize])
                .expect("replayed size_of"),
        );
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.log.fragmentation()
    }

    fn object_count(&self) -> usize {
        self.log.object_count()
    }
}

/// Deterministic counters read off the replayed substrate (zero for the
/// substrates that were not replayed).
#[derive(Debug, Default, Clone, Copy)]
pub struct SubstrateCounts {
    pub pages_allocated: u64,
    pub ghost_cleanups: u64,
    pub forced_cleanups: u64,
    pub allocation_events: u64,
    pub appends: u64,
    pub forced_checkpoints: u64,
    pub emergency_segments_freed: u64,
    pub emergency_bytes_copied: u64,
}

/// What the replay measured.  Per-call samples are host nanoseconds.
#[derive(Debug, Default)]
pub struct ReplayReport {
    pub substrate_ns: u64,
    pub put_ns: Vec<u64>,
    pub get_ns: Vec<u64>,
    /// Per batch call: duration divided by the items in the batch.
    pub batch_item_ns: Vec<u64>,
    pub disk_build_ns: u64,
    pub disk_service_ns: u64,
    pub disk_requests: u64,
    pub disk_segments: u64,
    /// Total *simulated* disk time of the replayed requests.
    pub sim_disk_ns: u64,
    pub counts: SubstrateCounts,
    pub fragmentation: Option<FragmentationSummary>,
    pub objects: usize,
    /// The aged free-space map and the workload's write-request length in
    /// that map's units, for the `alloc` micro-kernels.
    pub free_map: RunIndexMap,
    pub request_len: u64,
}

/// Replays `log` against a bare substrate and disk for `kind`.
pub fn replay(kind: StoreKind, config: &ExperimentConfig, log: &TraceLog) -> ReplayReport {
    let mut report = ReplayReport::default();
    match kind {
        StoreKind::Database => {
            // The mapping `ExperimentConfig::build_store` applies.
            let mut store = DbStoreConfig::new(config.volume_bytes);
            store.engine.allocation_policy = config.allocation_policy;
            store.engine.placement = config.placement;
            let page_size = store.engine.page_size;
            let mut substrate = DbReplay {
                db: Database::create(store.engine).expect("replay engine config"),
                write_request_size: config.write_request_size,
            };
            drive(&mut substrate, store.disk, log, &mut report);
            let stats = substrate.db.stats();
            report.counts.pages_allocated = stats.pages_allocated;
            report.counts.ghost_cleanups = stats.ghost_cleanups;
            report.counts.forced_cleanups = stats.forced_cleanups;
            report.free_map = substrate.db.lob_unit().free_space().clone();
            report.request_len = config.write_request_size.div_ceil(page_size).max(1);
        }
        StoreKind::Filesystem => {
            let mut store = FsStoreConfig::new(config.volume_bytes);
            store.volume.allocation_policy = config.allocation_policy;
            store.volume.placement = config.placement;
            let mut substrate = FsReplay {
                volume: Volume::format(store.volume).expect("replay volume config"),
                write_request_size: config.write_request_size,
            };
            drive(&mut substrate, store.disk, log, &mut report);
            let stats = substrate.volume.stats();
            report.counts.allocation_events = stats.allocation_events;
            report.counts.appends = stats.appends;
            report.counts.forced_checkpoints = stats.forced_checkpoints;
            report.free_map = substrate.volume.free_space().clone();
            report.request_len = config
                .write_request_size
                .div_ceil(substrate.volume.cluster_size())
                .max(1);
        }
        StoreKind::LogStructured => {
            let mut store = LogStoreConfig::new(config.volume_bytes);
            store.log.placement = config.placement;
            let mut substrate = LogReplay {
                log: SegmentLog::new(store.log).expect("replay log config"),
                ids: Vec::new(),
            };
            drive(&mut substrate, store.disk, log, &mut report);
            let emergency = substrate.log.emergency_totals();
            report.counts.emergency_segments_freed = emergency.segments_freed;
            report.counts.emergency_bytes_copied = emergency.bytes_copied;
            report.free_map = substrate.log.free_map().clone();
            report.request_len = 1;
        }
    }
    report
}

fn drive(
    substrate: &mut dyn Substrate,
    disk: DiskConfig,
    log: &TraceLog,
    report: &mut ReplayReport,
) {
    let mut disk = Disk::new(disk);
    let mut pending: Vec<PendingIo> = Vec::with_capacity(DISK_CHUNK + 8);
    let mut key_buf = ObjectKey::buf();
    for op in &log.ops {
        match *op {
            LoggedOp::Put { key, size } => {
                let name = ObjectKey(key).write_into(&mut key_buf);
                let started = Instant::now();
                substrate.put(name, key, size, &mut pending);
                report.put_ns.push(started.elapsed().as_nanos() as u64);
            }
            LoggedOp::Get { key } => {
                let name = ObjectKey(key).write_into(&mut key_buf);
                let started = Instant::now();
                substrate.get(name, key, &mut pending);
                report.get_ns.push(started.elapsed().as_nanos() as u64);
            }
            LoggedOp::SafeWriteBatch { first, len } => {
                let batch = &log.batch_items[first as usize..(first + len) as usize];
                let names: Vec<String> = batch
                    .iter()
                    .map(|&(key, _)| ObjectKey(key).to_string())
                    .collect();
                let items: Vec<(&str, u64)> = names
                    .iter()
                    .zip(batch)
                    .map(|(name, &(_, size))| (name.as_str(), size))
                    .collect();
                let numbers: Vec<u64> = batch.iter().map(|&(key, _)| key).collect();
                let started = Instant::now();
                substrate.batch(&items, &numbers, &mut pending);
                let nanos = started.elapsed().as_nanos() as u64;
                report.substrate_ns += nanos;
                report.batch_item_ns.push(nanos / u64::from(len.max(1)));
            }
            LoggedOp::SizeOf { key } => {
                let name = ObjectKey(key).write_into(&mut key_buf);
                let started = Instant::now();
                substrate.size_of(name, key);
                report.substrate_ns += started.elapsed().as_nanos() as u64;
            }
        }
        if pending.len() >= DISK_CHUNK {
            service_chunk(&mut disk, &mut pending, report);
        }
    }
    service_chunk(&mut disk, &mut pending, report);
    let stats = disk.stats();
    report.disk_requests = stats.total_requests();
    report.disk_segments =
        stats.direction(AccessKind::Read).segments + stats.direction(AccessKind::Write).segments;
    report.substrate_ns += report.put_ns.iter().sum::<u64>() + report.get_ns.iter().sum::<u64>();
    report.fragmentation = Some(substrate.fragmentation());
    report.objects = substrate.object_count();
}

/// Rebuilds the chunk's `IoRequest`s (timed as one block), then services
/// them (timed as another), so no per-request clock read sits inside either.
fn service_chunk(disk: &mut Disk, pending: &mut Vec<PendingIo>, report: &mut ReplayReport) {
    let started = Instant::now();
    let requests: Vec<IoRequest> = pending
        .drain(..)
        .map(|io| {
            let request = IoRequest::new(io.kind, io.runs);
            black_box(request.total_bytes());
            if io.coalesce {
                black_box(request.coalesced().fragment_count());
            }
            request
        })
        .collect();
    report.disk_build_ns += started.elapsed().as_nanos() as u64;

    let started = Instant::now();
    let mut simulated = 0u64;
    for request in &requests {
        simulated += disk.service(request).total().as_nanos();
    }
    report.disk_service_ns += started.elapsed().as_nanos() as u64;
    report.sim_disk_ns += simulated;
}
