//! The request/completion scheduler: multi-client queueing over one spindle.
//!
//! The serial [`ObjectStore`] interface can express *what* operations cost,
//! but not *when* clients observe those costs: every call blocks the caller,
//! so a workload of N concurrent clients — the situation whose tail latency
//! the paper's degradation story is really about — cannot be expressed at
//! all.  This module adds the missing layer.  Clients submit
//! [`StoreRequest`]s (an operation plus an arrival time); the [`StoreServer`]
//! drains them FIFO against the store's simulated disk and produces
//! [`Completion`] events that separate **queue delay** (time spent waiting
//! for the spindle) from **service time** (time the operation itself
//! needed).  Latency percentiles ([`LatencySummary`]) and queue depth
//! ([`QueueStats`]) fall out of the completion stream.
//!
//! Every run is one call, [`StoreServer::run`], over an [`Arrivals`] value:
//!
//! * **closed-loop** ([`Arrivals::Closed`]): N clients, each issuing its
//!   next request one think time after its previous completion — the
//!   web-application model.  With one client and zero think time this
//!   degenerates to exactly the old serial harness: every request starts the
//!   instant the previous one finishes, so receipts and the elapsed clock
//!   reproduce the serial path bit-for-bit (a property test asserts this).
//! * **open-loop** ([`Arrivals::Open`]): a schedule fixed up front, sorted
//!   by arrival time, independent of completions.  [`OpenLoop::schedule`]
//!   draws one as a Poisson process at a target offered load — the
//!   classical queueing-theory setup, where latency grows without bound as
//!   the offered load approaches the spindle's capacity;
//!   [`MixedOpenLoop::schedule`] merges two independent Poisson classes —
//!   reads and safe writes — into one deterministic interleave, so
//!   fragmentation growth interacts with the latency hockey stick *during*
//!   the measurement; a sharding layer partitions one aggregate schedule and
//!   hands each shard its sub-stream.
//!
//! The two differ only in *when requests arrive*; admission, batching,
//! maintenance and accounting are one event loop, so replaying a closed
//! run's arrivals as an open schedule reproduces it bit for bit (a property
//! test asserts that too).
//!
//! Safe writes that are queued together when the spindle frees up are
//! dispatched as **one batch** through [`ObjectStore::safe_write_batch`], so
//! their write requests genuinely interleave on disk — batching is decided
//! here, in one place, for every substrate.  Requests carry interned
//! [`ObjectKey`](crate::ObjectKey)s; the strings the trait speaks are written
//! at dispatch, into a stack buffer for a single operation and into the
//! server's one batch buffer for a batch, whose `String`s are rewritten in
//! place — a steady-state dispatch allocates no key
//! (`tests/alloc_budget.rs` pins the heap calls per safe write).
//!
//! The server is also where background maintenance becomes queueing-aware.
//! When the store carries a server-driven [`lor_maint::MaintenanceConfig`],
//! maintenance runs as low-priority disk time scheduled by the server:
//! budget-policy slices are placed after foreground completions, and the
//! [`lor_maint::MaintenancePolicy::IdleDetect`] policy fills observed idle
//! gaps.  Either way a foreground request pays only for the background I/O
//! it actually *overlaps* — replacing the old "all background time stalls
//! the foreground" model.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use lor_disksim::SimDuration;
use lor_maint::{
    FragObservation, FragRateEstimator, MaintenanceConfig, MaintenancePolicy, BURST_IO_PER_TICK,
    FRAG_WINDOW_TICKS, IO_UNIT_BYTES, TICK_EVERY_OPS,
};
use lor_obs::{Obs, Track};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::StoreError;
use crate::store::{ObjectStore, OpReceipt};
use crate::workload::WorkloadOp;

/// Identifier of one simulated client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClientId(pub u32);

/// One operation submitted to the store server.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRequest {
    /// The client that issued the request.
    pub client: ClientId,
    /// The operation to perform.
    pub op: WorkloadOp,
    /// Simulated time at which the request arrived at the server.
    pub arrival: SimDuration,
}

/// One completed request: the receipt plus the queueing timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The request this completion answers.
    pub request: StoreRequest,
    /// What the operation cost (exactly what the serial API returns).
    pub receipt: OpReceipt,
    /// When the spindle started serving the request (or its batch).
    pub start: SimDuration,
    /// When the request's data was fully on (or off) the disk.
    pub finish: SimDuration,
    /// Portion of the queue delay spent waiting for an overlapping
    /// background-maintenance slice to release the spindle — the
    /// maintenance-interference component of the client-observed latency.
    /// Zero when no slice overlapped the wait.
    pub maint_delay: SimDuration,
}

impl Completion {
    /// Time spent waiting for the spindle — for other clients' operations
    /// and for overlapping background maintenance I/O.
    pub fn queue_delay(&self) -> SimDuration {
        self.start.saturating_sub(self.request.arrival)
    }

    /// Client-observed latency: queue delay plus service time.
    pub fn latency(&self) -> SimDuration {
        self.finish.saturating_sub(self.request.arrival)
    }
}

/// Latency percentiles over a set of completions (client-observed latency,
/// i.e. queue delay included).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Completions summarised.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency in milliseconds.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarises a completion stream.
    pub fn of(completions: &[Completion]) -> Self {
        let mut nanos: Vec<u64> = completions.iter().map(|c| c.latency().as_nanos()).collect();
        nanos.sort_unstable();
        let Some(&max) = nanos.last() else {
            return LatencySummary::default();
        };
        let total: u64 = nanos.iter().sum();
        LatencySummary {
            count: nanos.len() as u64,
            mean_ms: total as f64 / nanos.len() as f64 / 1e6,
            p50_ms: percentile(&nanos, 0.50),
            p95_ms: percentile(&nanos, 0.95),
            p99_ms: percentile(&nanos, 0.99),
            max_ms: max as f64 / 1e6,
        }
    }
}

/// Nearest-rank percentile of a sorted latency list, in milliseconds.
fn percentile(sorted_nanos: &[u64], quantile: f64) -> f64 {
    debug_assert!(!sorted_nanos.is_empty());
    let rank = (quantile * sorted_nanos.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted_nanos.len()) - 1;
    sorted_nanos[index] as f64 / 1e6
}

/// Queue-depth accounting: one sample per dispatch (how many requests were
/// waiting when the spindle freed up).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Dispatches sampled.
    pub samples: u64,
    /// Sum of observed depths (for the mean).
    pub total_depth: u64,
    /// Deepest observed queue.
    pub max_depth: u64,
}

impl QueueStats {
    fn observe(&mut self, depth: usize) {
        self.samples += 1;
        self.total_depth += depth as u64;
        self.max_depth = self.max_depth.max(depth as u64);
    }

    /// Mean number of requests waiting at dispatch time.
    pub fn mean_depth(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_depth as f64 / self.samples as f64
        }
    }
}

/// An open-loop Poisson arrival process at a target offered load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoop {
    /// Target arrival rate in operations per simulated second.
    pub ops_per_sec: f64,
    /// RNG seed for the exponential inter-arrival draws.  A fixed seed draws
    /// the same unit-exponential sequence at every rate, so sweeping
    /// `ops_per_sec` scales one arrival pattern — which makes latency
    /// monotone in offered load by Lindley's recursion, a property the tests
    /// assert.
    pub seed: u64,
}

impl OpenLoop {
    /// The process's first `n` arrival instants after `start`.
    pub fn arrivals(&self, start: SimDuration, n: usize) -> Result<Vec<SimDuration>, StoreError> {
        if !self.ops_per_sec.is_finite() || self.ops_per_sec <= 0.0 {
            return Err(StoreError::BadConfig(
                "open-loop offered load must be positive and finite".into(),
            ));
        }
        Ok(poisson_arrivals(self.ops_per_sec, self.seed, start, n))
    }

    /// Builds the arrival schedule of `ops` starting at `start`: one request
    /// per operation at the process's successive arrival instants, client
    /// ids numbering the stream in arrival order.
    pub fn schedule(
        &self,
        start: SimDuration,
        ops: Vec<WorkloadOp>,
    ) -> Result<Vec<StoreRequest>, StoreError> {
        let arrivals = self.arrivals(start, ops.len())?;
        Ok(arrivals
            .into_iter()
            .zip(ops)
            .enumerate()
            .map(|(index, (arrival, op))| StoreRequest {
                client: ClientId(index as u32),
                op,
                arrival,
            })
            .collect())
    }
}

/// `n` Poisson arrival instants after `start`: unit-exponential gaps drawn
/// from `seed`, scaled by `1 / rate`.
fn poisson_arrivals(rate: f64, seed: u64, start: SimDuration, n: usize) -> Vec<SimDuration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = start;
    (0..n)
        .map(|_| {
            let unit: f64 = rng.gen_range(1e-12..1.0);
            at += SimDuration::from_secs_f64(-unit.ln() / rate);
            at
        })
        .collect()
}

/// A mixed open-loop arrival process: two independent Poisson streams — one
/// of reads, one of safe writes — merged into a single deterministic
/// interleave, so fragmentation growth (driven by the write class) interacts
/// with the latency hockey stick (driven by the total offered load) *during*
/// the measurement itself.
///
/// Each class draws its own unit-exponential inter-arrival pattern from a
/// seed derived from [`MixedOpenLoop::seed`], so for a fixed seed:
///
/// * the merged schedule is fully deterministic (property-tested), and
/// * sweeping one class's rate scales that class's own arrival pattern
///   without disturbing the other class's draws.
///
/// Safe writes that end up queued together when the spindle frees up still
/// dispatch as one interleaved batch ([`ObjectStore::safe_write_batch`]):
/// the batching decision lives in the dispatch path and is therefore
/// preserved across arrival-class boundaries — a read arriving *between* two
/// writes breaks the batch (they were never concurrently in flight), while
/// writes that queue back-to-back behind a slow read coalesce exactly as a
/// web server's parallel uploads would.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixedOpenLoop {
    /// Target arrival rate of the read class, operations per simulated
    /// second.  Must be positive and finite when any reads are offered.
    pub read_ops_per_sec: f64,
    /// Target arrival rate of the safe-write class, operations per simulated
    /// second.  Must be positive and finite when any writes are offered.
    pub write_ops_per_sec: f64,
    /// RNG seed; each class derives its own stream from it.
    pub seed: u64,
}

impl MixedOpenLoop {
    /// Splits the total `ops_per_sec` between the classes by `write_fraction`
    /// (clamped to `[0, 1]`) — the parameterisation the mixed load sweep
    /// uses.
    pub fn from_total(ops_per_sec: f64, write_fraction: f64, seed: u64) -> Self {
        let write_fraction = write_fraction.clamp(0.0, 1.0);
        MixedOpenLoop {
            read_ops_per_sec: ops_per_sec * (1.0 - write_fraction),
            write_ops_per_sec: ops_per_sec * write_fraction,
            seed,
        }
    }

    fn validate_rate(rate: f64, class: &str, ops: usize) -> Result<(), StoreError> {
        if ops > 0 && (!rate.is_finite() || rate <= 0.0) {
            return Err(StoreError::BadConfig(format!(
                "mixed open-loop {class} rate must be positive and finite when \
                 {class}s are offered"
            )));
        }
        Ok(())
    }

    /// Builds the merged arrival schedule starting at `start`: each class's
    /// requests arrive as an independent Poisson process at its configured
    /// rate, and the two streams are merge-sorted by arrival time (reads
    /// win exact ties, deterministically).  Client ids number the merged
    /// stream in arrival order; the class of a completion is recovered from
    /// its operation.
    pub fn schedule(
        &self,
        start: SimDuration,
        reads: Vec<WorkloadOp>,
        writes: Vec<WorkloadOp>,
    ) -> Result<Vec<StoreRequest>, StoreError> {
        Self::validate_rate(self.read_ops_per_sec, "read", reads.len())?;
        Self::validate_rate(self.write_ops_per_sec, "write", writes.len())?;

        let arrival_stream = |ops: Vec<WorkloadOp>, rate: f64, seed: u64| {
            poisson_arrivals(rate, seed, start, ops.len())
                .into_iter()
                .zip(ops)
                .collect::<Vec<_>>()
        };
        // Distinct per-class seeds (splitmix-style offset) keep the two
        // exponential patterns independent while both derive from one knob.
        let reads = arrival_stream(reads, self.read_ops_per_sec, self.seed);
        let writes = arrival_stream(
            writes,
            self.write_ops_per_sec,
            self.seed ^ 0x9E37_79B9_7F4A_7C15,
        );

        let mut merged = Vec::with_capacity(reads.len() + writes.len());
        let (mut r, mut w) = (reads.into_iter().peekable(), writes.into_iter().peekable());
        loop {
            let next = match (r.peek(), w.peek()) {
                (Some((ra, _)), Some((wa, _))) if ra <= wa => r.next(),
                (Some(_), None) => r.next(),
                (_, Some(_)) => w.next(),
                (None, None) => None,
            };
            let Some((arrival, op)) = next else { break };
            merged.push(StoreRequest {
                client: ClientId(merged.len() as u32),
                op,
                arrival,
            });
        }
        Ok(merged)
    }
}

/// When the requests of one [`StoreServer::run`] arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrivals {
    /// `clients` simulated clients (0 behaves as 1) pull operations from the
    /// shared `ops` queue in order, each issuing its next request
    /// `think_time` after its previous completion.
    ///
    /// With one client and zero think time this is exactly the serial
    /// harness; with several clients and zero think time, safe writes form
    /// batches of up to `clients` operations whose write requests interleave
    /// on disk (the `concurrency` semantics of the aging harness).
    Closed {
        /// The operations, in the order clients pick them up.
        ops: Vec<WorkloadOp>,
        /// Number of concurrent clients.
        clients: usize,
        /// Pause between a client's completion and its next request.
        think_time: SimDuration,
    },
    /// A schedule fixed up front, sorted by arrival time — built by
    /// [`OpenLoop::schedule`], [`MixedOpenLoop::schedule`], or a sharding
    /// layer that partitions one aggregate schedule across shards (each
    /// sub-stream inherits the aggregate's ordering).  The schedule only
    /// fixes *when requests arrive*, not how they are served.
    Open(Vec<StoreRequest>),
}

impl Arrivals {
    /// Number of requests the process offers.
    pub fn len(&self) -> usize {
        match self {
            Arrivals::Closed { ops, .. } => ops.len(),
            Arrivals::Open(schedule) => schedule.len(),
        }
    }

    /// Whether the process offers no request at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The arrival process behind one run, as the event loop sees it: when the
/// next request arrives, hand it over, and hear about completions.
enum Source {
    Closed {
        work: std::vec::IntoIter<WorkloadOp>,
        /// (ready-at, tiebreak sequence, client): min-heap of idle clients.
        ready: BinaryHeap<Reverse<(SimDuration, u64, u32)>>,
        seq: u64,
        think_time: SimDuration,
    },
    Open(std::vec::IntoIter<StoreRequest>),
}

impl Source {
    /// Validates `arrivals` and arms it at server time `now`.
    fn new(arrivals: Arrivals, now: SimDuration) -> Result<Self, StoreError> {
        match arrivals {
            Arrivals::Closed {
                ops,
                clients,
                think_time,
            } => {
                let clients = clients.max(1) as u32;
                Ok(Source::Closed {
                    work: ops.into_iter(),
                    ready: (0..clients)
                        .map(|client| Reverse((now, u64::from(client), client)))
                        .collect(),
                    seq: u64::from(clients),
                    think_time,
                })
            }
            Arrivals::Open(schedule) => {
                if schedule
                    .windows(2)
                    .any(|pair| pair[0].arrival > pair[1].arrival)
                {
                    return Err(StoreError::BadConfig(
                        "an open arrival schedule must be sorted by arrival time".into(),
                    ));
                }
                Ok(Source::Open(schedule.into_iter()))
            }
        }
    }

    /// The instant the next request arrives; `None` once none ever will
    /// (idle closed-loop clients stop arriving when the work runs out).
    fn next_arrival(&self) -> Option<SimDuration> {
        match self {
            Source::Closed { work, ready, .. } if !work.as_slice().is_empty() => {
                ready.peek().map(|&Reverse((at, _, _))| at)
            }
            Source::Closed { .. } => None,
            Source::Open(stream) => stream.as_slice().first().map(|request| request.arrival),
        }
    }

    /// Hands over the next request if it arrives at or before `by`.
    fn pop_by(&mut self, by: SimDuration) -> Option<StoreRequest> {
        if self.next_arrival()? > by {
            return None;
        }
        match self {
            Source::Closed { work, ready, .. } => {
                let op = work.next()?;
                let Reverse((arrival, _, client)) = ready.pop()?;
                Some(StoreRequest {
                    client: ClientId(client),
                    op,
                    arrival,
                })
            }
            Source::Open(stream) => stream.next(),
        }
    }

    /// A request finished: its closed-loop client thinks, then comes back.
    fn completed(&mut self, completion: &Completion) {
        if let Source::Closed {
            ready,
            seq,
            think_time,
            ..
        } = self
        {
            ready.push(Reverse((
                completion.finish + *think_time,
                *seq,
                completion.request.client.0,
            )));
            *seq += 1;
        }
    }
}

/// The request scheduler: one simulated spindle serving many clients.
///
/// The server borrows the store exclusively; use [`StoreServer::store`] /
/// [`StoreServer::store_mut`] for measurements between runs.  Its virtual
/// clock is decoupled from the store's own measurement clock: the store
/// clock keeps accumulating pure service time (so throughput keeps meaning
/// "bytes over storage time", as the paper measures it), while the server
/// tracks wall-clock arrival/start/finish times including queueing and
/// background overlap.
pub struct StoreServer<'a> {
    store: &'a mut dyn ObjectStore,
    /// Latest event the server has processed (virtual wall clock).
    now: SimDuration,
    /// The spindle is serving foreground work until this instant.
    busy_until: SimDuration,
    /// The spindle is serving background maintenance until this instant.
    bg_busy_until: SimDuration,
    /// Server-driven maintenance, read from the store at construction.
    maintenance: Option<MaintenanceConfig>,
    /// Fragmentation-rate estimator feeding the `Adaptive` policy's budget
    /// under the server drive (idle otherwise).
    estimator: FragRateEstimator,
    ops_since_tick: u64,
    queue: QueueStats,
    /// Observability handle; disabled ([`Obs::null`]) unless attached via
    /// [`StoreServer::set_obs`].
    obs: Obs,
    /// Sequence number of the last scheduled background slice, linking
    /// foreground spans to the slice that delayed them.
    bg_slice_seq: u64,
    /// Interval of the periodic metrics probe; zero disables probing.
    probe_every: SimDuration,
    /// Next instant the probe fires.
    next_probe: SimDuration,
    /// Key strings of the safe-write batch being dispatched.  Kept between
    /// dispatches and rewritten in place, so a steady-state batch allocates
    /// no key; only the prefix a dispatch filled is handed to the store.
    batch: Vec<(String, u64)>,
}

impl<'a> StoreServer<'a> {
    /// Wraps a store.  If the store was built with a server-driven
    /// [`MaintenanceConfig`], the server takes over the maintenance drive.
    pub fn new(store: &'a mut dyn ObjectStore) -> Self {
        let maintenance = store.maintenance_config().filter(|c| c.server_driven());
        StoreServer {
            store,
            now: SimDuration::ZERO,
            busy_until: SimDuration::ZERO,
            bg_busy_until: SimDuration::ZERO,
            maintenance,
            estimator: FragRateEstimator::new(FRAG_WINDOW_TICKS),
            ops_since_tick: 0,
            queue: QueueStats::default(),
            obs: Obs::null(),
            bg_slice_seq: 0,
            probe_every: SimDuration::ZERO,
            next_probe: SimDuration::ZERO,
            batch: Vec::new(),
        }
    }

    /// Attaches an observability handle to the server and everything below
    /// it (the store's disk model and maintenance scheduler).  The server
    /// emits one span per completion (queue/service/interference split) on
    /// the server track and one span per background slice on the background
    /// track, and samples the metrics registry every `probe_every` of
    /// simulated time (zero disables the probe).
    pub fn set_obs(&mut self, obs: Obs, probe_every: SimDuration) {
        self.store.set_obs(obs.clone());
        self.obs = obs;
        self.probe_every = probe_every;
        self.next_probe = self.now;
    }

    /// The wrapped store.
    pub fn store(&self) -> &dyn ObjectStore {
        self.store
    }

    /// Mutable access to the wrapped store (measurement resets, fixtures).
    pub fn store_mut(&mut self) -> &mut dyn ObjectStore {
        self.store
    }

    /// The server's virtual wall clock (latest processed event).
    pub fn now(&self) -> SimDuration {
        self.now
    }

    /// Queue-depth statistics accumulated since the last reset.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue
    }

    /// Clears the queue-depth statistics (the store's own measurement clock
    /// is reset separately via [`ObjectStore::reset_measurements`]).
    pub fn reset_queue_stats(&mut self) {
        self.queue = QueueStats::default();
    }

    /// First instant the spindle is free for a new foreground request.
    fn free_at(&self) -> SimDuration {
        self.busy_until.max(self.bg_busy_until)
    }

    /// Runs one arrival process to completion, handing every completion to
    /// `sink` in dispatch order — the server's only event loop.
    ///
    /// The spindle serves the head of one FIFO queue; whatever arrives
    /// while it is busy queues behind the head, safe writes that wait
    /// together leave as one batch, and an empty queue is an idle gap the
    /// gap-filling maintenance policies may use.  An unsorted
    /// [`Arrivals::Open`] schedule is refused (`BadConfig`) before anything
    /// is served.
    pub fn run(
        &mut self,
        arrivals: Arrivals,
        mut sink: impl FnMut(Completion),
    ) -> Result<(), StoreError> {
        let mut source = Source::new(arrivals, self.now)?;
        let mut waiting: VecDeque<StoreRequest> = VecDeque::new();
        loop {
            let head_arrival = match waiting.front() {
                Some(head) => head.arrival,
                None => {
                    // Nobody is waiting: the next event is the earliest
                    // arrival, and the gap until then is spindle idle time —
                    // the idle-detect policy's window.
                    let Some(next) = source.next_arrival() else {
                        return Ok(());
                    };
                    self.fill_idle_gap(next);
                    next
                }
            };
            // Everything that arrives while the spindle is still busy queues
            // behind the head request.
            let start = self.free_at().max(head_arrival);
            while let Some(request) = source.pop_by(start) {
                waiting.push_back(request);
            }
            for completion in self.dispatch(&mut waiting, start)? {
                source.completed(&completion);
                sink(completion);
            }
        }
    }

    /// [`StoreServer::run`] over [`Arrivals::Closed`], collecting the
    /// completions.
    pub fn run_closed_loop(
        &mut self,
        ops: Vec<WorkloadOp>,
        clients: usize,
        think_time: SimDuration,
    ) -> Result<Vec<Completion>, StoreError> {
        let mut completions = Vec::with_capacity(ops.len());
        let arrivals = Arrivals::Closed {
            ops,
            clients,
            think_time,
        };
        self.run(arrivals, |completion| completions.push(completion))?;
        Ok(completions)
    }

    /// [`StoreServer::run`] over `load`'s [`MixedOpenLoop::schedule`] from
    /// the server's current instant.  Streaming into `sink` lets the
    /// measurement sweeps fold completions into fixed-size histograms as
    /// they finish, so a long mixed run does not retain a completion per
    /// offered operation.
    pub fn run_mixed_open_loop_with(
        &mut self,
        reads: Vec<WorkloadOp>,
        writes: Vec<WorkloadOp>,
        load: MixedOpenLoop,
        sink: &mut dyn FnMut(Completion),
    ) -> Result<(), StoreError> {
        let schedule = load.schedule(self.now, reads, writes)?;
        self.run(Arrivals::Open(schedule), sink)
    }

    /// Serves the head of the waiting queue from instant `start` (batching
    /// queued safe writes) and returns the completions of this dispatch.
    fn dispatch(
        &mut self,
        waiting: &mut VecDeque<StoreRequest>,
        start: SimDuration,
    ) -> Result<Vec<Completion>, StoreError> {
        self.queue.observe(waiting.len());
        let Some(head) = waiting.front() else {
            return Ok(Vec::new());
        };
        // Pre-dispatch spindle state: who was holding the spindle while this
        // dispatch waited splits the queue delay between other foreground
        // work and background-maintenance interference.
        let fg_busy = self.busy_until;
        let bg_busy = self.bg_busy_until;
        // Publish the dispatch instant so the disk model's spans land on the
        // server timeline.
        self.obs.set_now(start.as_nanos());

        let clock_before = self.store.elapsed();
        // Keys travel the queueing layer as interned `ObjectKey`s; the
        // string form the `ObjectStore` trait speaks is materialised only
        // here, at the dispatch boundary: into a stack buffer, and from
        // there into the batch's reused strings.
        let mut buf = crate::workload::ObjectKey::buf();
        let receipts: Vec<OpReceipt> = match head.op {
            // Safe writes that are waiting together leave as one batch:
            // their write requests interleave on disk exactly as a web
            // server's parallel uploads do.
            WorkloadOp::SafeWrite { .. } => {
                let mut used = 0;
                for request in waiting.iter() {
                    let WorkloadOp::SafeWrite { key, size } = request.op else {
                        break;
                    };
                    if request.arrival > start {
                        break;
                    }
                    let key = key.write_into(&mut buf);
                    match self.batch.get_mut(used) {
                        Some((name, bytes)) => {
                            name.clear();
                            name.push_str(key);
                            *bytes = size;
                        }
                        None => self.batch.push((key.to_string(), size)),
                    }
                    used += 1;
                }
                // Items past `used` are left over from a longer batch.
                self.store.safe_write_batch(&self.batch[..used])?
            }
            // Everything else is served one at a time.
            WorkloadOp::Put { key, size } => {
                vec![self.store.put(key.write_into(&mut buf), size)?]
            }
            WorkloadOp::Get { key } => vec![self.store.get(key.write_into(&mut buf))?],
            WorkloadOp::Delete { key } => vec![self.store.delete(key.write_into(&mut buf))?],
        };
        // The store-clock delta covers the receipts plus anything the store
        // charged on top (a store-attached maintenance drive); the spindle
        // is ours until all of it is done.
        let service = self.store.elapsed().saturating_sub(clock_before);

        // One receipt per request served, in queue order.
        let served = receipts.len().min(waiting.len());
        let mut mutating = 0;
        let mut finish = start;
        let mut done = Vec::with_capacity(served);
        for (request, receipt) in waiting.drain(..served).zip(receipts) {
            mutating += u64::from(!matches!(request.op, WorkloadOp::Get { .. }));
            finish += receipt.total_time();
            // Of this request's wait, the stretch where only a maintenance
            // slice was holding the spindle: the overlap of its waiting
            // interval with the background-busy interval beyond the
            // foreground-busy horizon.
            let maint_delay = bg_busy
                .min(start)
                .saturating_sub(fg_busy.max(request.arrival));
            done.push(Completion {
                request,
                receipt,
                start,
                finish,
                maint_delay,
            });
        }
        self.busy_until = start + service;
        // Anything the store charged beyond the receipts (the store-attached
        // drive's "all background time stalls the foreground" interference)
        // stalls the dispatch that triggered it: extend the last completion
        // to the full clock delta so the percentile fields agree with
        // `foreground_latency_ms` instead of silently dropping the stall.
        if let Some(last) = done.last_mut() {
            last.finish = last.finish.max(self.busy_until);
        }
        self.now = self.now.max(self.free_at());
        if self.obs.enabled() {
            // The slice that (possibly) delayed this dispatch is the latest
            // scheduled one.
            let delayed_by = self.bg_slice_seq;
            for completion in &done {
                self.obs.span(
                    Track::Server,
                    completion.request.op.kind_name(),
                    completion.start.as_nanos(),
                    completion
                        .finish
                        .saturating_sub(completion.start)
                        .as_nanos(),
                    &[
                        ("client", u64::from(completion.request.client.0).into()),
                        ("bytes", completion.receipt.payload_bytes.into()),
                        ("fragments", completion.receipt.fragments.into()),
                        ("queue_ms", completion.queue_delay().as_millis_f64().into()),
                        (
                            "service_ms",
                            completion.receipt.total_time().as_millis_f64().into(),
                        ),
                        (
                            "disk_ms",
                            completion.receipt.disk_time.total().as_millis_f64().into(),
                        ),
                        (
                            "host_ms",
                            completion.receipt.host_time.as_millis_f64().into(),
                        ),
                        (
                            "maint_delay_ms",
                            completion.maint_delay.as_millis_f64().into(),
                        ),
                        ("bg_slice", delayed_by.into()),
                    ],
                );
            }
        }
        self.after_foreground(mutating);
        self.probe(waiting.len());
        Ok(done)
    }

    /// Samples the metrics registry (queue depth, fragmentation, free-space
    /// shape, band occupancy) when a probe interval has elapsed.  All
    /// sampling work is skipped while observability is disabled or the
    /// probe interval is zero.
    fn probe(&mut self, queue_depth: usize) {
        if !self.obs.enabled() || self.probe_every.is_zero() || self.now < self.next_probe {
            return;
        }
        while self.next_probe <= self.now {
            self.next_probe += self.probe_every;
        }
        let at = self.now.as_nanos();
        self.obs.gauge("queue.depth", at, queue_depth as f64);
        let frag = self.store.fragmentation();
        self.obs
            .gauge("frag.per_object", at, frag.fragments_per_object);
        self.obs
            .gauge("frag.excess", at, frag.excess_fragments() as f64);
        if let Some(report) = self.store.free_space_report() {
            self.obs.gauge("free.runs", at, report.free_runs as f64);
            self.obs
                .gauge("free.largest_run", at, report.largest_run as f64);
            self.obs
                .gauge("free.external_frag", at, report.external_fragmentation);
        }
        if let Some(bands) = self.store.band_occupancy() {
            self.obs
                .gauge("band.foreground_used", at, bands.foreground_used);
            self.obs
                .gauge("band.maintenance_used", at, bands.maintenance_used);
        }
    }

    /// Counts a scheduled background slice and records its span on the
    /// background track (the server timeline it actually occupies, as
    /// opposed to the per-task spans the scheduler stamps with its own
    /// cumulative clock).
    fn record_slice(
        &mut self,
        slice_at: SimDuration,
        io: lor_maint::MaintIo,
        budget_bytes: u64,
        trigger: &'static str,
    ) {
        self.bg_slice_seq += 1;
        if !self.obs.enabled() {
            return;
        }
        self.obs.span(
            Track::Background,
            "slice",
            slice_at.as_nanos(),
            io.time.as_nanos(),
            &[
                ("seq", self.bg_slice_seq.into()),
                ("bytes", io.bytes.into()),
                ("budget_bytes", budget_bytes.into()),
                ("trigger", trigger.into()),
            ],
        );
    }

    /// Advances the server-driven maintenance tick counter and schedules
    /// budget-policy slices right after the foreground work that triggered
    /// them.  The slice occupies the spindle from the first free instant, so
    /// only foreground requests that overlap it are delayed.
    ///
    /// Only *mutating* operations count towards a tick, matching the
    /// store-attached drive (`after_mutating_op`): a pure read pass never
    /// triggers maintenance, so read-throughput measurements don't get their
    /// layout rewritten mid-pass.
    fn after_foreground(&mut self, mutating_ops: u64) {
        let Some(config) = self.maintenance else {
            return;
        };
        self.ops_since_tick += mutating_ops;
        while self.ops_since_tick >= TICK_EVERY_OPS {
            self.ops_since_tick -= TICK_EVERY_OPS;
            let budget_bytes = config.tick_budget_bytes(&mut self.estimator, || {
                let summary = self.store.fragmentation();
                FragObservation {
                    per_object: summary.fragments_per_object,
                    excess: summary.excess_fragments(),
                }
            });
            let slice_at = self.free_at();
            if self.obs.enabled() && matches!(config.policy, MaintenancePolicy::Adaptive { .. }) {
                // This drive's estimator banked the credit, so this drive
                // samples it (the store's scheduler never sees it).
                self.obs.gauge(
                    "maint.credit_units",
                    slice_at.as_nanos(),
                    self.estimator.credit_units(),
                );
            }
            if budget_bytes == 0 {
                continue;
            }
            let io = self.store.maintenance_slice(budget_bytes, slice_at);
            if io.is_none() {
                continue;
            }
            self.bg_busy_until = slice_at + io.time;
            self.now = self.now.max(self.bg_busy_until);
            self.record_slice(slice_at, io, budget_bytes, "tick");
        }
    }

    /// Fills an observed idle gap (`free_at()` → `next_arrival`) with
    /// maintenance slices under the gap-filling policies (idle-detect and
    /// its substrate-aware refinement, which differs only in what the
    /// scheduler's task queue lets each slice release).  Slices start small
    /// and adapt to the measured background I/O rate so the gap is filled
    /// with few slices while the overrun past `next_arrival` stays bounded
    /// by one slice.
    fn fill_idle_gap(&mut self, next_arrival: SimDuration) {
        let Some(config) = self.maintenance else {
            return;
        };
        let min_idle_ms = match config.policy {
            MaintenancePolicy::IdleDetect { min_idle_ms }
            | MaintenancePolicy::SubstrateAware { min_idle_ms, .. } => min_idle_ms,
            _ => return,
        };
        let min_idle = SimDuration::from_millis_f64(min_idle_ms);
        let unit = IO_UNIT_BYTES;
        let max_budget = BURST_IO_PER_TICK * unit;
        // Probe with a few units; once a slice reveals the bytes-per-time
        // rate, aim each following slice at the remaining gap.
        let mut budget_bytes = 4 * unit;
        loop {
            let idle_from = self.free_at();
            let gap = next_arrival.saturating_sub(idle_from);
            if gap < min_idle || gap.is_zero() {
                break;
            }
            let io = self.store.maintenance_slice(budget_bytes, idle_from);
            if io.is_none() || io.time.is_zero() {
                // Nothing to do, or a free action that cannot shrink the gap
                // — either way the loop would never terminate on time.
                break;
            }
            self.bg_busy_until = idle_from + io.time;
            self.now = self.now.max(self.bg_busy_until);
            self.record_slice(idle_from, io, budget_bytes, "idle");
            if io.bytes > 0 {
                let nanos_per_byte = io.time.as_nanos() as f64 / io.bytes as f64;
                let remaining = next_arrival.saturating_sub(self.free_at());
                let fit = (remaining.as_nanos() as f64 / nanos_per_byte) as u64;
                budget_bytes = fit.clamp(unit, max_budget);
            }
        }
    }
}

impl std::fmt::Debug for StoreServer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer")
            .field("kind", &self.store.kind())
            .field("now", &self.now)
            .field("busy_until", &self.busy_until)
            .field("bg_busy_until", &self.bg_busy_until)
            .field("maintenance", &self.maintenance)
            .field("queue", &self.queue)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs_store::FsObjectStore;
    use crate::workload::ObjectKey;

    const MB: u64 = 1 << 20;

    fn puts(n: usize, size: u64) -> Vec<WorkloadOp> {
        (0..n)
            .map(|i| WorkloadOp::Put {
                key: ObjectKey(i as u64),
                size,
            })
            .collect()
    }

    fn gets(n: usize) -> Vec<WorkloadOp> {
        (0..n)
            .map(|i| WorkloadOp::Get {
                key: ObjectKey(i as u64),
            })
            .collect()
    }

    fn run_open(server: &mut StoreServer<'_>, schedule: Vec<StoreRequest>) -> Vec<Completion> {
        let mut completions = Vec::new();
        server
            .run(Arrivals::Open(schedule), |c| completions.push(c))
            .unwrap();
        completions
    }

    #[test]
    fn single_client_zero_think_reproduces_the_serial_clock() {
        let mut serial = FsObjectStore::new(256 * MB).unwrap();
        let mut serial_receipts = Vec::new();
        for i in 0..12 {
            serial_receipts.push(serial.put(&ObjectKey(i as u64).to_string(), MB).unwrap());
        }
        let serial_elapsed = serial.elapsed();

        let mut store = FsObjectStore::new(256 * MB).unwrap();
        let mut server = StoreServer::new(&mut store);
        let completions = server
            .run_closed_loop(puts(12, MB), 1, SimDuration::ZERO)
            .unwrap();
        assert_eq!(completions.len(), 12);
        let receipts: Vec<OpReceipt> = completions.iter().map(|c| c.receipt).collect();
        assert_eq!(receipts, serial_receipts);
        assert_eq!(server.store().elapsed(), serial_elapsed);
        // Serial: no queueing, every request starts at its arrival.
        for completion in &completions {
            assert_eq!(completion.queue_delay(), SimDuration::ZERO);
            assert_eq!(completion.latency(), completion.receipt.total_time());
        }
        // The virtual wall clock matches the storage clock.
        assert_eq!(server.now(), serial_elapsed);
    }

    #[test]
    fn queued_clients_observe_queue_delay() {
        let mut store = FsObjectStore::new(256 * MB).unwrap();
        let mut server = StoreServer::new(&mut store);
        server
            .run_closed_loop(puts(8, MB), 1, SimDuration::ZERO)
            .unwrap();
        // Eight clients fire reads simultaneously: all but the first wait.
        let completions = server
            .run_closed_loop(gets(8), 8, SimDuration::ZERO)
            .unwrap();
        assert_eq!(completions.len(), 8);
        let delayed = completions
            .iter()
            .filter(|c| c.queue_delay() > SimDuration::ZERO)
            .count();
        assert!(
            delayed >= 6,
            "most simultaneous requests must queue ({delayed}/8 delayed)"
        );
        let summary = LatencySummary::of(&completions);
        assert!(summary.p99_ms > summary.p50_ms, "queueing widens the tail");
        assert!(server.queue_stats().max_depth >= 7);
    }

    #[test]
    fn closed_loop_batches_concurrent_safe_writes() {
        let mut store = FsObjectStore::new(256 * MB).unwrap();
        let mut server = StoreServer::new(&mut store);
        server
            .run_closed_loop(puts(8, MB), 1, SimDuration::ZERO)
            .unwrap();
        let writes: Vec<WorkloadOp> = (0..8)
            .map(|i| WorkloadOp::SafeWrite {
                key: ObjectKey(i as u64),
                size: MB,
            })
            .collect();
        let completions = server
            .run_closed_loop(writes, 4, SimDuration::ZERO)
            .unwrap();
        assert_eq!(completions.len(), 8);
        // Two batches of four: each batch shares a start instant.
        let starts: Vec<SimDuration> = completions.iter().map(|c| c.start).collect();
        assert_eq!(starts[0], starts[1]);
        assert_eq!(starts[0], starts[3]);
        assert!(starts[4] > starts[3]);
        assert_eq!(starts[4], starts[7]);
    }

    /// The batch's key strings are reused between dispatches; only the
    /// prefix a dispatch filled may reach the store.
    #[test]
    fn a_reused_batch_buffer_never_hands_stale_items_to_the_store() {
        let safe_writes = |keys: &[u64], size: u64| -> Vec<WorkloadOp> {
            keys.iter()
                .map(|&k| WorkloadOp::SafeWrite {
                    key: ObjectKey(k),
                    size,
                })
                .collect()
        };
        let mut store = FsObjectStore::new(256 * MB).unwrap();
        let mut server = StoreServer::new(&mut store);
        server
            .run_closed_loop(puts(6, MB), 1, SimDuration::ZERO)
            .unwrap();

        // A batch of four that fails whole, leaving its items in the buffer.
        let failed =
            server.run_closed_loop(safe_writes(&[0, 1, 2, 99], 2 * MB), 4, SimDuration::ZERO);
        assert!(matches!(failed, Err(StoreError::NoSuchObject(key)) if key == "object-00000099"));
        for key in 0..6 {
            assert_eq!(server.store().size_of(&ObjectKey(key).to_string()), Ok(MB));
        }

        // The buffer still serves a good batch of the same length ...
        let done = server
            .run_closed_loop(safe_writes(&[0, 1, 2, 3], 3 * MB), 4, SimDuration::ZERO)
            .unwrap();
        assert_eq!(done.len(), 4);
        assert_eq!(done[0].start, done[3].start, "one batch");

        // ... and then a shorter one.  Its tail still names objects 2 and 3,
        // which are gone: handing it over would fail the batch.
        for key in [2, 3] {
            server
                .store_mut()
                .delete(&ObjectKey(key).to_string())
                .unwrap();
        }
        let done = server
            .run_closed_loop(safe_writes(&[4, 5], 4 * MB), 4, SimDuration::ZERO)
            .unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].start, done[1].start, "one batch");
        let sizes: Vec<u64> = [0, 1, 4, 5]
            .iter()
            .map(|&key| server.store().size_of(&ObjectKey(key).to_string()).unwrap())
            .collect();
        assert_eq!(sizes, [3 * MB, 3 * MB, 4 * MB, 4 * MB]);
        assert_eq!(server.store().object_count(), 4);
    }

    #[test]
    fn open_loop_latency_grows_with_offered_load() {
        let mut results = Vec::new();
        for ops_per_sec in [5.0, 50.0] {
            let mut store = FsObjectStore::new(256 * MB).unwrap();
            let mut server = StoreServer::new(&mut store);
            server
                .run_closed_loop(puts(16, MB), 1, SimDuration::ZERO)
                .unwrap();
            let load = OpenLoop {
                ops_per_sec,
                seed: 7,
            };
            let schedule = load.schedule(server.now(), gets(16)).unwrap();
            let completions = run_open(&mut server, schedule);
            results.push(LatencySummary::of(&completions));
        }
        assert!(
            results[1].p99_ms >= results[0].p99_ms,
            "p99 must not improve under heavier load ({:.2} vs {:.2})",
            results[1].p99_ms,
            results[0].p99_ms
        );
        assert_eq!(results[0].count, 16);
    }

    #[test]
    fn mixed_open_loop_interleaves_both_classes() {
        let mut store = FsObjectStore::new(256 * MB).unwrap();
        let mut server = StoreServer::new(&mut store);
        server
            .run_closed_loop(puts(16, MB), 1, SimDuration::ZERO)
            .unwrap();
        let writes: Vec<WorkloadOp> = (0..16)
            .map(|i| WorkloadOp::SafeWrite {
                key: ObjectKey(i as u64),
                size: MB,
            })
            .collect();
        let load = MixedOpenLoop {
            read_ops_per_sec: 20.0,
            write_ops_per_sec: 20.0,
            seed: 11,
        };
        let schedule = load.schedule(server.now(), gets(16), writes).unwrap();
        let completions = run_open(&mut server, schedule);
        assert_eq!(completions.len(), 32);
        // Completions preserve the merged arrival order.
        for pair in completions.windows(2) {
            assert!(pair[0].request.arrival <= pair[1].request.arrival);
        }
        // Both classes genuinely interleave: some read completes between two
        // writes and vice versa.
        let classes: Vec<bool> = completions
            .iter()
            .map(|c| matches!(c.request.op, WorkloadOp::SafeWrite { .. }))
            .collect();
        let switches = classes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches >= 4,
            "classes must interleave (saw {switches} switches)"
        );
        // The store served every op: all 16 objects still live.
        assert_eq!(server.store().object_count(), 16);
    }

    #[test]
    fn mixed_open_loop_batches_safe_writes_queued_together() {
        // Writes offered far faster than the spindle can serve them pile up
        // behind the head request, and consecutive queued safe writes must
        // leave as one batch even though a read class exists in the stream.
        let mut store = FsObjectStore::new(256 * MB).unwrap();
        let mut server = StoreServer::new(&mut store);
        server
            .run_closed_loop(puts(8, MB), 1, SimDuration::ZERO)
            .unwrap();
        let writes: Vec<WorkloadOp> = (0..8)
            .map(|i| WorkloadOp::SafeWrite {
                key: ObjectKey(i as u64),
                size: MB,
            })
            .collect();
        let load = MixedOpenLoop {
            read_ops_per_sec: 1.0,
            write_ops_per_sec: 10_000.0,
            seed: 3,
        };
        let schedule = load.schedule(server.now(), gets(2), writes).unwrap();
        let completions = run_open(&mut server, schedule);
        let write_starts: Vec<SimDuration> = completions
            .iter()
            .filter(|c| matches!(c.request.op, WorkloadOp::SafeWrite { .. }))
            .map(|c| c.start)
            .collect();
        assert_eq!(write_starts.len(), 8);
        let batched = write_starts
            .windows(2)
            .filter(|pair| pair[0] == pair[1])
            .count();
        assert!(
            batched >= 4,
            "queued safe writes must share batch start instants ({batched}/7 shared)"
        );
    }

    #[test]
    fn mixed_schedule_is_deterministic_and_rejects_bad_rates() {
        let load = MixedOpenLoop {
            read_ops_per_sec: 40.0,
            write_ops_per_sec: 10.0,
            seed: 99,
        };
        let a = load
            .schedule(SimDuration::ZERO, gets(20), puts(20, MB))
            .unwrap();
        let b = load
            .schedule(SimDuration::ZERO, gets(20), puts(20, MB))
            .unwrap();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Client ids number the merged stream.
        for (index, request) in a.iter().enumerate() {
            assert_eq!(request.client, ClientId(index as u32));
        }

        // A class with offered ops needs a positive finite rate...
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad_reads = MixedOpenLoop {
                read_ops_per_sec: rate,
                write_ops_per_sec: 10.0,
                seed: 1,
            };
            assert!(bad_reads
                .schedule(SimDuration::ZERO, gets(1), vec![])
                .is_err());
            let bad_writes = MixedOpenLoop {
                read_ops_per_sec: 10.0,
                write_ops_per_sec: rate,
                seed: 1,
            };
            assert!(bad_writes
                .schedule(SimDuration::ZERO, vec![], puts(1, MB))
                .is_err());
        }
        // ...but an empty class ignores its rate (a pure-read sweep).
        let read_only = MixedOpenLoop {
            read_ops_per_sec: 10.0,
            write_ops_per_sec: 0.0,
            seed: 1,
        };
        assert_eq!(
            read_only
                .schedule(SimDuration::ZERO, gets(4), vec![])
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn mixed_load_splits_by_write_fraction() {
        let load = MixedOpenLoop::from_total(100.0, 0.25, 7);
        assert!((load.read_ops_per_sec - 75.0).abs() < 1e-9);
        assert!((load.write_ops_per_sec - 25.0).abs() < 1e-9);
        let clamped = MixedOpenLoop::from_total(100.0, 1.5, 7);
        assert_eq!(clamped.read_ops_per_sec, 0.0);
        assert!((clamped.write_ops_per_sec - 100.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_rejects_bad_rates() {
        for rate in [0.0, -3.0, f64::NAN] {
            let load = OpenLoop {
                ops_per_sec: rate,
                seed: 1,
            };
            assert!(load.schedule(SimDuration::ZERO, vec![]).is_err());
        }
    }

    #[test]
    fn unsorted_open_schedule_is_refused_before_anything_runs() {
        let mut store = FsObjectStore::new(64 * MB).unwrap();
        let mut server = StoreServer::new(&mut store);
        server
            .run_closed_loop(puts(4, MB), 1, SimDuration::ZERO)
            .unwrap();
        let (now, queue) = (server.now(), server.queue_stats());
        let (elapsed, objects) = (server.store().elapsed(), server.store().object_count());

        let mut schedule = OpenLoop {
            ops_per_sec: 10.0,
            seed: 5,
        }
        .schedule(now, puts(8, MB).split_off(4))
        .unwrap();
        schedule.swap(1, 2);
        let mut served = 0;
        let outcome = server.run(Arrivals::Open(schedule), |_| served += 1);
        assert!(matches!(outcome, Err(StoreError::BadConfig(_))));
        assert_eq!(served, 0);
        assert_eq!((server.now(), server.queue_stats()), (now, queue));
        assert_eq!(server.store().elapsed(), elapsed);
        assert_eq!(server.store().object_count(), objects);
    }

    #[test]
    fn empty_arrivals_serve_nothing_and_fill_no_idle_gap() {
        let mut config = crate::fs_store::FsStoreConfig::new(256 * MB);
        config.maintenance = Some(MaintenanceConfig::idle_detect(5.0));
        let mut store = FsObjectStore::with_config(config).unwrap();
        let mut server = StoreServer::new(&mut store);
        // Interleaved safe writes leave the idle-detect drive work to do.
        server
            .run_closed_loop(puts(8, MB), 1, SimDuration::ZERO)
            .unwrap();
        let writes: Vec<WorkloadOp> = (0..8)
            .map(|i| WorkloadOp::SafeWrite {
                key: ObjectKey(i as u64),
                size: MB,
            })
            .collect();
        server
            .run_closed_loop(writes, 4, SimDuration::ZERO)
            .unwrap();
        let before = (
            server.now(),
            server.queue_stats(),
            server.store().maintenance_stats(),
        );
        for arrivals in [
            Arrivals::Open(Vec::new()),
            Arrivals::Closed {
                ops: Vec::new(),
                clients: 3,
                think_time: SimDuration::from_millis(50),
            },
        ] {
            server
                .run(arrivals, |_| panic!("nothing was offered"))
                .unwrap();
        }
        let after = (
            server.now(),
            server.queue_stats(),
            server.store().maintenance_stats(),
        );
        assert_eq!(before, after);
        // The same gap in front of a real arrival is used.
        let late = StoreRequest {
            client: ClientId(0),
            op: WorkloadOp::Get { key: ObjectKey(0) },
            arrival: server.now() + SimDuration::from_millis(50),
        };
        run_open(&mut server, vec![late]);
        assert_ne!(server.store().maintenance_stats(), before.2);
    }

    #[test]
    fn a_server_driven_adaptive_trace_samples_the_credit_it_banked() {
        use crate::fs_store::FsStoreConfig;

        let mut config = FsStoreConfig::new(128 * MB);
        config.maintenance = Some(MaintenanceConfig::adaptive(64.0).with_server_drive());
        let mut store = FsObjectStore::with_config(config).unwrap();
        let mut server = StoreServer::new(&mut store);
        let (obs, trace) = Obs::trace(1 << 16);
        server.set_obs(obs, SimDuration::ZERO);
        server
            .run_closed_loop(puts(24, MB), 1, SimDuration::ZERO)
            .unwrap();
        // Four clients' safe writes interleave and fragment the volume, so
        // the server's estimator sees a rate and banks credit.
        for round in 0..4 {
            let writes = (0..24)
                .map(|i| WorkloadOp::SafeWrite {
                    key: ObjectKey((i * 7 + round) % 24),
                    size: MB,
                })
                .collect();
            server
                .run_closed_loop(writes, 4, SimDuration::ZERO)
                .unwrap();
        }
        let stats = server.store().maintenance_stats().unwrap();
        assert!(stats.background_bytes > 0, "the adaptive budget engaged");
        let credit = trace.metric_series("maint.credit_units");
        // One sample per server tick, spending or not.
        assert_eq!(credit.len() as u64, (24 + 4 * 24) / TICK_EVERY_OPS);
        assert!(
            credit.iter().any(|&(_, units)| units > 0.0),
            "the gauge must read the estimator that banked the credit: {credit:?}"
        );
    }

    #[test]
    fn zero_clients_behave_as_one() {
        let run = |clients: usize| {
            let mut store = FsObjectStore::new(64 * MB).unwrap();
            let mut server = StoreServer::new(&mut store);
            let completions = server
                .run_closed_loop(puts(6, MB), clients, SimDuration::from_millis(1))
                .unwrap();
            (completions, server.now(), server.queue_stats())
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn one_generator_draws_every_open_loop_arrival_stream() {
        let load = OpenLoop {
            ops_per_sec: 40.0,
            seed: 7,
        };
        let start = SimDuration::from_millis(5);
        let arrivals = load.arrivals(start, 50).unwrap();
        assert!(arrivals[0] > start && arrivals.windows(2).all(|pair| pair[0] <= pair[1]));
        // A prefix of the stream is the stream of a shorter run.
        assert_eq!(load.arrivals(start, 20).unwrap(), arrivals[..20]);
        // The mixed process's read class is the same process.
        let reads = vec![WorkloadOp::Get { key: ObjectKey(0) }; 50];
        let mixed = MixedOpenLoop {
            read_ops_per_sec: load.ops_per_sec,
            write_ops_per_sec: 0.0,
            seed: load.seed,
        };
        let schedule = mixed.schedule(start, reads, Vec::new()).unwrap();
        let scheduled: Vec<SimDuration> = schedule.iter().map(|r| r.arrival).collect();
        assert_eq!(scheduled, arrivals);
    }

    #[test]
    fn latency_summary_percentiles_are_ordered() {
        let completions: Vec<Completion> = (1..=100)
            .map(|i| Completion {
                request: StoreRequest {
                    client: ClientId(0),
                    op: WorkloadOp::Get { key: ObjectKey(0) },
                    arrival: SimDuration::ZERO,
                },
                receipt: OpReceipt::default(),
                start: SimDuration::ZERO,
                finish: SimDuration::from_millis(i),
                maint_delay: SimDuration::ZERO,
            })
            .collect();
        let summary = LatencySummary::of(&completions);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50_ms, 50.0);
        assert_eq!(summary.p95_ms, 95.0);
        assert_eq!(summary.p99_ms, 99.0);
        assert_eq!(summary.max_ms, 100.0);
        assert!((summary.mean_ms - 50.5).abs() < 1e-9);
        assert_eq!(LatencySummary::of(&[]).count, 0);
    }

    #[test]
    fn queue_stats_track_mean_and_max() {
        let mut stats = QueueStats::default();
        assert_eq!(stats.mean_depth(), 0.0);
        stats.observe(1);
        stats.observe(5);
        assert_eq!(stats.samples, 2);
        assert_eq!(stats.max_depth, 5);
        assert!((stats.mean_depth() - 3.0).abs() < 1e-9);
    }
}
