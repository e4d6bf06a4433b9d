//! The interposer at the `ObjectStore` trait boundary, and the constant-cost
//! `NullStore` that isolates pure `StoreServer` dispatch.
//!
//! [`TimedStore`] wraps `&mut dyn ObjectStore`, forwards every method
//! unchanged and records, in memory, one span per call that does work
//! (method, start, duration, the dispatch it belongs to) plus the op log the
//! replay below the boundary needs.  Trivial getters (`kind`, `elapsed`,
//! `write_request_size`, ...) are forwarded and only counted: timing them
//! would cost more than they do.  `StoreServer::new(&mut timed)` therefore
//! splits `server.*` time from `store.*` time and exposes every
//! `maintenance_slice`.

use std::cell::RefCell;
use std::time::Instant;

use lor_core::lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_core::lor_disksim::{ByteRun, ServiceTime, SimDuration};
use lor_core::lor_maint::{MaintIo, MaintenanceConfig, MaintenanceStats};
use lor_core::lor_obs::Obs;
use lor_core::{ObjectStore, OpReceipt, StoreError, StoreKind};

/// The trait methods that get a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Put,
    Get,
    SafeWrite,
    SafeWriteBatch,
    Delete,
    SizeOf,
    Contains,
    Fragmentation,
    MaintenanceSlice,
    Reset,
    Other,
}

impl Method {
    pub fn name(self) -> &'static str {
        match self {
            Method::Put => "put",
            Method::Get => "get",
            Method::SafeWrite => "safe_write",
            Method::SafeWriteBatch => "safe_write_batch",
            Method::Delete => "delete",
            Method::SizeOf => "size_of",
            Method::Contains => "contains",
            Method::Fragmentation => "fragmentation",
            Method::MaintenanceSlice => "maintenance_slice",
            Method::Reset => "reset_measurements",
            Method::Other => "other",
        }
    }

    /// The layer a span of this method is charged to.
    pub fn layer(self) -> &'static str {
        match self {
            Method::MaintenanceSlice => "maint",
            _ => "store",
        }
    }

    /// `true` for the calls `StoreServer::dispatch` makes, one per dispatch.
    fn is_dispatch(self) -> bool {
        matches!(
            self,
            Method::Put | Method::Get | Method::SafeWriteBatch | Method::Delete
        )
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub method: Method,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the dispatch this call is (or follows): the parent span.
    pub dispatch: u32,
    /// Safe writes in the batch; payload of a useful maintenance slice; else 0.
    pub items: u32,
}

/// One call of the op log, keyed by the generator's dense key number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedOp {
    Put {
        key: u64,
        size: u64,
    },
    Get {
        key: u64,
    },
    /// `len` items of [`TraceLog::batch_items`] starting at `first`.
    SafeWriteBatch {
        first: u32,
        len: u32,
    },
    SizeOf {
        key: u64,
    },
}

/// Everything one traced rep recorded.
#[derive(Debug, Default)]
pub struct TraceLog {
    pub spans: Vec<Span>,
    pub ops: Vec<LoggedOp>,
    pub batch_items: Vec<(u64, u64)>,
    /// Sum of the simulated disk time of every receipt, for checking the
    /// disk replay against the live run.
    pub receipt_disk_ns: u64,
    pub dispatches: u32,
    /// Forwarded getters that were counted, not timed.
    pub untimed_calls: u64,
}

impl TraceLog {
    /// Total host time inside calls of `method`.
    pub fn total_ns(&self, method: Method) -> u64 {
        self.spans_of(method).map(|span| span.dur_ns).sum()
    }

    pub fn spans_of(&self, method: Method) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |span| span.method == method)
    }

    /// Host time inside every call charged to `layer`.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| span.method.layer() == layer)
            .map(|span| span.dur_ns)
            .sum()
    }

    /// Chrome trace-event JSON of the recorded spans (`ph: "X"`, µs).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push_str(",\n");
            }
            let tid = if span.method.layer() == "maint" { 2 } else { 1 };
            out.push_str(&format!(
                "{{\"name\":\"{}.{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"dispatch\":{},\"items\":{}}}}}",
                span.method.layer(),
                span.method.name(),
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.dispatch,
                span.items,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The generator's key form is `object-<decimal>`; the op log keeps the number.
fn key_number(key: &str) -> u64 {
    key.strip_prefix("object-")
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("lorbench only drives generator keys, got {key:?}"))
}

pub struct TimedStore<'a> {
    inner: &'a mut dyn ObjectStore,
    epoch: Instant,
    log: RefCell<TraceLog>,
}

impl<'a> TimedStore<'a> {
    pub fn new(inner: &'a mut dyn ObjectStore) -> Self {
        TimedStore {
            inner,
            epoch: Instant::now(),
            log: RefCell::new(TraceLog::default()),
        }
    }

    pub fn into_log(self) -> TraceLog {
        self.log.into_inner()
    }

    fn record(log: &mut TraceLog, method: Method, start_ns: u64, dur_ns: u64, items: u32) {
        if method.is_dispatch() {
            log.dispatches += 1;
        }
        log.spans.push(Span {
            method,
            start_ns,
            dur_ns,
            dispatch: log.dispatches,
            items,
        });
    }

    /// Times `call` against the wrapped store (`&mut` flavour).
    fn timed<T>(
        &mut self,
        method: Method,
        items: u32,
        call: impl FnOnce(&mut dyn ObjectStore) -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let out = call(self.inner);
        let dur = self.epoch.elapsed() - start;
        Self::record(
            self.log.get_mut(),
            method,
            start.as_nanos() as u64,
            dur.as_nanos() as u64,
            items,
        );
        out
    }

    /// Times `call` against the wrapped store (`&self` flavour).
    fn timed_ref<T>(&self, method: Method, call: impl FnOnce(&dyn ObjectStore) -> T) -> T {
        let start = self.epoch.elapsed();
        let out = call(self.inner);
        let dur = self.epoch.elapsed() - start;
        Self::record(
            &mut self.log.borrow_mut(),
            method,
            start.as_nanos() as u64,
            dur.as_nanos() as u64,
            0,
        );
        out
    }

    fn untimed(&self) {
        self.log.borrow_mut().untimed_calls += 1;
    }

    fn note_receipt(&mut self, receipt: &Result<OpReceipt, StoreError>) {
        if let Ok(receipt) = receipt {
            self.log.get_mut().receipt_disk_ns += receipt.disk_time.total().as_nanos();
        }
    }
}

impl ObjectStore for TimedStore<'_> {
    fn kind(&self) -> StoreKind {
        self.untimed();
        self.inner.kind()
    }

    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        let receipt = self.timed(Method::Put, 0, |store| store.put(key, size_bytes));
        self.note_receipt(&receipt);
        self.log.get_mut().ops.push(LoggedOp::Put {
            key: key_number(key),
            size: size_bytes,
        });
        receipt
    }

    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        let receipt = self.timed(Method::Get, 0, |store| store.get(key));
        self.note_receipt(&receipt);
        self.log.get_mut().ops.push(LoggedOp::Get {
            key: key_number(key),
        });
        receipt
    }

    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        // `StoreServer` batches every safe write, so the replay has no case
        // for a bare one; the span still records it.
        let receipt = self.timed(Method::SafeWrite, 0, |store| {
            store.safe_write(key, size_bytes)
        });
        self.note_receipt(&receipt);
        receipt
    }

    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        let receipts = self.timed(Method::SafeWriteBatch, items.len() as u32, |store| {
            store.safe_write_batch(items)
        });
        let log = self.log.get_mut();
        if let Ok(receipts) = &receipts {
            log.receipt_disk_ns += receipts
                .iter()
                .map(|receipt| receipt.disk_time.total().as_nanos())
                .sum::<u64>();
        }
        log.ops.push(LoggedOp::SafeWriteBatch {
            first: log.batch_items.len() as u32,
            len: items.len() as u32,
        });
        log.batch_items
            .extend(items.iter().map(|(key, size)| (key_number(key), *size)));
        receipts
    }

    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.timed(Method::Delete, 0, |store| store.delete(key))
    }

    fn contains(&self, key: &str) -> bool {
        self.timed_ref(Method::Contains, |store| store.contains(key))
    }

    fn object_count(&self) -> usize {
        self.untimed();
        self.inner.object_count()
    }

    fn keys(&self) -> Vec<String> {
        self.timed_ref(Method::Other, |store| store.keys())
    }

    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        let size = self.timed_ref(Method::SizeOf, |store| store.size_of(key));
        self.log.borrow_mut().ops.push(LoggedOp::SizeOf {
            key: key_number(key),
        });
        size
    }

    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError> {
        self.timed_ref(Method::Other, |store| store.layout_of(key))
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.timed_ref(Method::Fragmentation, |store| store.fragmentation())
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.untimed();
        self.inner.data_capacity_bytes()
    }

    fn live_bytes(&self) -> u64 {
        self.timed_ref(Method::Other, |store| store.live_bytes())
    }

    fn elapsed(&self) -> SimDuration {
        self.untimed();
        self.inner.elapsed()
    }

    fn reset_measurements(&mut self) {
        self.timed(Method::Reset, 0, |store| store.reset_measurements())
    }

    fn maintenance(&mut self) -> Result<u64, StoreError> {
        self.timed(Method::Other, 0, |store| store.maintenance())
    }

    fn write_request_size(&self) -> u64 {
        self.untimed();
        self.inner.write_request_size()
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.untimed();
        self.inner.maintenance_stats()
    }

    fn maintenance_config(&self) -> Option<MaintenanceConfig> {
        self.untimed();
        self.inner.maintenance_config()
    }

    fn maintenance_slice(&mut self, budget_bytes: u64, now: SimDuration) -> MaintIo {
        let io = self.timed(Method::MaintenanceSlice, 0, |store| {
            store.maintenance_slice(budget_bytes, now)
        });
        if !io.is_none() {
            // Mark the slice just recorded as a useful one.
            self.log
                .get_mut()
                .spans
                .last_mut()
                .expect("just recorded")
                .items = 1;
        }
        io
    }

    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.timed(Method::Other, 0, |store| store.migrate_in(key, size_bytes))
    }

    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }

    fn free_space_report(&self) -> Option<FreeSpaceReport> {
        self.timed_ref(Method::Other, |store| store.free_space_report())
    }

    fn band_occupancy(&self) -> Option<BandOccupancy> {
        self.timed_ref(Method::Other, |store| store.band_occupancy())
    }
}

/// A store whose every operation costs the same simulated millisecond and
/// no host work: what is left when `StoreServer` drives it is dispatch.
#[derive(Debug, Default)]
pub struct NullStore {
    clock: SimDuration,
    pub calls: u64,
}

impl NullStore {
    const RECEIPT: OpReceipt = OpReceipt {
        payload_bytes: 1,
        transferred_bytes: 1,
        disk_time: ServiceTime {
            seek: SimDuration::ZERO,
            rotation: SimDuration::ZERO,
            transfer: SimDuration::from_millis(1),
            overhead: SimDuration::ZERO,
        },
        host_time: SimDuration::ZERO,
        fragments: 1,
    };

    fn op(&mut self, count: u64) {
        self.calls += 1;
        self.clock += Self::RECEIPT.total_time() * count;
    }
}

impl ObjectStore for NullStore {
    fn kind(&self) -> StoreKind {
        StoreKind::LogStructured
    }
    fn put(&mut self, _: &str, _: u64) -> Result<OpReceipt, StoreError> {
        self.op(1);
        Ok(Self::RECEIPT)
    }
    fn get(&mut self, _: &str) -> Result<OpReceipt, StoreError> {
        self.op(1);
        Ok(Self::RECEIPT)
    }
    fn safe_write(&mut self, _: &str, _: u64) -> Result<OpReceipt, StoreError> {
        self.op(1);
        Ok(Self::RECEIPT)
    }
    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        self.op(items.len() as u64);
        Ok(vec![Self::RECEIPT; items.len()])
    }
    fn delete(&mut self, _: &str) -> Result<OpReceipt, StoreError> {
        self.op(1);
        Ok(Self::RECEIPT)
    }
    fn contains(&self, _: &str) -> bool {
        true
    }
    fn object_count(&self) -> usize {
        0
    }
    fn keys(&self) -> Vec<String> {
        Vec::new()
    }
    fn size_of(&self, _: &str) -> Result<u64, StoreError> {
        Ok(1)
    }
    fn layout_of(&self, _: &str) -> Result<Vec<ByteRun>, StoreError> {
        Ok(Vec::new())
    }
    fn fragmentation(&self) -> FragmentationSummary {
        FragmentationSummary::from_counts(&[])
    }
    fn data_capacity_bytes(&self) -> u64 {
        0
    }
    fn live_bytes(&self) -> u64 {
        0
    }
    fn elapsed(&self) -> SimDuration {
        self.clock
    }
    fn reset_measurements(&mut self) {
        self.clock = SimDuration::ZERO;
    }
    fn maintenance(&mut self) -> Result<u64, StoreError> {
        Ok(0)
    }
    fn write_request_size(&self) -> u64 {
        64 << 10
    }
}
