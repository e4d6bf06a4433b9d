//! The sharded store: N independent shards behind one router.
//!
//! Each shard is a complete single-spindle repository — its own
//! [`ObjectStore`] (NTFS-like volume or SQL-Server-like engine), its own
//! simulated drive, and its own maintenance drive — so the fleet models N
//! small servers, not one big disk.  Workloads are generated **once** at the
//! aggregate offered load and partitioned across shards by the
//! [`Router`], which keeps every shard's sub-stream deterministic for a
//! fixed seed: the aggregate arrival pattern never depends on the shard
//! count, only its split does.  A fleet of one shard is therefore
//! bit-identical to a bare [`StoreServer`] over the same store (asserted by
//! the end-to-end tests).
//!
//! Execution is parallel by choice, never by observable effect: under
//! [`FleetParallelism::Threads`] the partitioned sub-streams drain on
//! worker threads that steal whole shard queues, and because each shard's
//! simulated clock is independent, the partitioning is done up front, and
//! completions merge by `(arrival, client)`, every mode — serial, one
//! thread per shard, or a smaller stealing pool — produces bit-identical
//! results (pinned by proptests and e2e tests on all three substrates).

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use lor_alloc::FragmentationSummary;
use lor_core::{
    Arrivals, ClientId, Completion, ExperimentConfig, FleetParallelism, ObjectKey, ObjectStore,
    OpenLoop, QueueStats, StoreError, StoreKind, StoreRequest, StoreServer, WorkloadOp,
};
use lor_disksim::SimDuration;
use lor_maint::MaintIo;
use lor_obs::{MetricSample, Obs, SpanRecord, Track};

use crate::fanout::{FanoutCompletion, FanoutPart};
use crate::rebalance::{RebalanceState, Rebalancer};
use crate::router::{Router, RouterPolicy};

/// Per-shard gauge names must be `&'static str` (the metrics registry is
/// keyed by name, not track), so each metric gets a 16-entry literal table;
/// shards beyond the table are simply not gauged.
macro_rules! shard_gauge_names {
    ($suffix:literal) => {
        [
            concat!("shard0.", $suffix),
            concat!("shard1.", $suffix),
            concat!("shard2.", $suffix),
            concat!("shard3.", $suffix),
            concat!("shard4.", $suffix),
            concat!("shard5.", $suffix),
            concat!("shard6.", $suffix),
            concat!("shard7.", $suffix),
            concat!("shard8.", $suffix),
            concat!("shard9.", $suffix),
            concat!("shard10.", $suffix),
            concat!("shard11.", $suffix),
            concat!("shard12.", $suffix),
            concat!("shard13.", $suffix),
            concat!("shard14.", $suffix),
            concat!("shard15.", $suffix),
        ]
    };
}

const GAUGE_FRAG: [&str; 16] = shard_gauge_names!("frag.per_object");
const GAUGE_QUEUE: [&str; 16] = shard_gauge_names!("queue.mean_depth");
const GAUGE_BAND_FG: [&str; 16] = shard_gauge_names!("band.foreground_used");
const GAUGE_BAND_MAINT: [&str; 16] = shard_gauge_names!("band.maintenance_used");

/// Per-shard recorder ring size used while draining one interval.  Each
/// shard's spans are spliced into the fleet recorder afterwards, which
/// applies its own (caller-chosen) bound.
const PER_SHARD_TRACE_CAPACITY: usize = 4096;

/// What draining one shard's sub-stream produced.
struct ShardRun {
    completions: Vec<Completion>,
    queue: QueueStats,
    end: SimDuration,
    /// Per-shard recorder contents (server-local timestamps), spliced
    /// into the fleet trace by the coordinator.
    spans: Vec<SpanRecord>,
    metrics: Vec<MetricSample>,
}

/// Drives one shard's sub-stream on the calling thread.  With
/// `collect_spans`, the shard's server records into a private per-shard
/// recorder whose contents are returned for splicing; the recorder is
/// detached again before returning so the store never outlives an
/// interval holding a stale handle.
fn drain_shard(
    store: &mut Box<dyn ObjectStore>,
    arrivals: Arrivals,
    collect_spans: bool,
) -> Result<ShardRun, StoreError> {
    let local = collect_spans.then(|| Obs::trace(PER_SHARD_TRACE_CAPACITY));
    let mut completions = Vec::with_capacity(arrivals.len());
    let outcome = {
        let mut server = StoreServer::new(store.as_mut());
        if let Some((obs, _)) = &local {
            server.set_obs(obs.clone(), SimDuration::ZERO);
        }
        server
            .run(arrivals, |completion| completions.push(completion))
            .map(|()| (server.queue_stats(), server.now()))
    };
    if local.is_some() {
        store.set_obs(Obs::null());
    }
    let (queue, end) = outcome?;
    let (spans, metrics) = match &local {
        Some((_, trace)) => trace.drain(),
        None => (Vec::new(), Vec::new()),
    };
    Ok(ShardRun {
        completions,
        queue,
        end,
        spans,
        metrics,
    })
}

/// Drains every non-empty sub-stream, serially or on worker threads.
///
/// Returns one slot per shard (`None` for empty streams), always in shard
/// order.  The parallel path steals whole shard queues: workers claim the
/// next undrained shard, in shard order, from one shared iterator, so
/// `Threads(n)` with `n` below the shard count keeps every worker busy while
/// preserving the one-thread-per-shard-at-a-time invariant each store
/// requires.  Because partitioning, per-shard clocks, and the post-run merge
/// are all deterministic, every mode produces bit-identical results.
fn drain_streams(
    shards: &mut [Box<dyn ObjectStore>],
    streams: Vec<Arrivals>,
    parallelism: FleetParallelism,
    collect_spans: bool,
) -> Vec<Option<Result<ShardRun, StoreError>>> {
    type Job<'a> = (usize, &'a mut Box<dyn ObjectStore>, Arrivals);
    let mut slots: Vec<Option<Result<ShardRun, StoreError>>> =
        (0..shards.len()).map(|_| None).collect();
    let jobs: Vec<Job<'_>> = shards
        .iter_mut()
        .zip(streams)
        .enumerate()
        .filter(|(_, (_, stream))| !stream.is_empty())
        .map(|(index, (store, stream))| (index, store, stream))
        .collect();
    let workers = parallelism.workers(jobs.len());
    if workers <= 1 || jobs.len() <= 1 {
        for (index, store, stream) in jobs {
            slots[index] = Some(drain_shard(store, stream, collect_spans));
        }
        return slots;
    }

    let queue = Mutex::new(jobs.into_iter());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The lock is held for this `next()` alone, which
                        // cannot panic, so even a poisoned lock guards a
                        // sound iterator.
                        let job = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((index, store, stream)) = job else {
                            break done;
                        };
                        done.push((index, drain_shard(store, stream, collect_spans)));
                    }
                })
            })
            .collect();
        for worker in workers {
            // Invariant: a worker only fails by panicking inside a store;
            // that panic is the caller's, re-raised unchanged.
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, outcome) in done {
                slots[index] = Some(outcome);
            }
        }
    });
    slots
}

/// A fleet of independent shards behind a deterministic router.
pub struct ShardedStore {
    shards: Vec<Box<dyn ObjectStore>>,
    router: Router,
    /// Where every live object actually is.  The router decides where *new*
    /// objects land; rebalancing may move them afterwards, and reads and
    /// deletes always follow the directory.  Its two writers — foreground
    /// partitioning and cross-shard migration — both run on the
    /// coordinating thread through `&mut self`, before or after a drain;
    /// worker threads only ever see their own shard's store, so a rebalance
    /// slice can never observe (or publish) a half-applied move.
    directory: HashMap<ObjectKey, u32>,
    /// How sub-streams are drained: serially or on worker threads.
    /// Simulated results are bit-identical either way.
    parallelism: FleetParallelism,
    /// What cross-shard rebalancing has done so far.
    rebalance_state: RebalanceState,
    /// Queue stats of each shard's most recent run.
    last_queue: Vec<QueueStats>,
    obs: Obs,
    /// Trace-timeline offset: each measurement interval's servers restart
    /// their wall clocks at zero, so fleet spans/gauges are shifted past
    /// everything already recorded.
    trace_offset: SimDuration,
}

impl ShardedStore {
    /// Builds a fleet of `shards` stores of the given `kind`.  The aggregate
    /// configuration is split evenly: each shard gets `volume_bytes /
    /// shards` of capacity on its own (correspondingly smaller) drive, and
    /// inherits every other knob — placement, maintenance, cost model, seed.
    pub fn new(
        kind: StoreKind,
        config: &ExperimentConfig,
        shards: u32,
        policy: RouterPolicy,
    ) -> Result<Self, StoreError> {
        let shards = shards.max(1);
        let mut per_shard = config.clone();
        per_shard.volume_bytes = config.volume_bytes / shards as u64;
        let mut stores = Vec::with_capacity(shards as usize);
        for _ in 0..shards {
            stores.push(per_shard.build_store(kind)?);
        }
        Ok(ShardedStore {
            shards: stores,
            router: Router::new(policy, shards),
            directory: HashMap::new(),
            parallelism: config.fleet_parallelism.resolved(),
            rebalance_state: RebalanceState::default(),
            last_queue: vec![QueueStats::default(); shards as usize],
            obs: Obs::null(),
            trace_offset: SimDuration::ZERO,
        })
    }

    /// Attaches an observability handle.  The fleet emits one span per shard
    /// per measurement interval on that shard's track
    /// ([`Track::Shard`]) plus per-shard fragmentation / queue-depth /
    /// band-occupancy gauges after every interval.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Overrides how the fleet drains its shards (the config's
    /// `fleet_parallelism`, as resolved against the environment, applies
    /// by default).  Simulated results are bit-identical in every mode.
    pub fn set_parallelism(&mut self, parallelism: FleetParallelism) {
        self.parallelism = parallelism;
    }

    /// How the fleet currently drains its shards.
    pub fn parallelism(&self) -> FleetParallelism {
        self.parallelism
    }

    /// Read-only access to one shard's store.
    pub fn shard(&self, index: usize) -> &dyn ObjectStore {
        self.shards[index].as_ref()
    }

    /// The routing table in effect.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Queue statistics of each shard's most recent run.
    pub fn last_queue_stats(&self) -> &[QueueStats] {
        &self.last_queue
    }

    /// Fleet-wide fragmentation (all shards' live objects together).
    pub fn fragmentation(&self) -> FragmentationSummary {
        let summaries: Vec<FragmentationSummary> = self
            .shards
            .iter()
            .map(|shard| shard.fragmentation())
            .collect();
        FragmentationSummary::merged(summaries.iter())
    }

    /// Per-shard fragmentation summaries, in shard order.
    pub fn per_shard_fragmentation(&self) -> Vec<FragmentationSummary> {
        self.shards
            .iter()
            .map(|shard| shard.fragmentation())
            .collect()
    }

    /// Fragmentation skew: the worst shard's fragments-per-object divided by
    /// the fleet mean (1.0 = perfectly even).  The rebalancer's job is to
    /// pull this back toward 1 under skewed (Zipfian) load.
    pub fn fragmentation_skew(&self) -> f64 {
        let per_shard: Vec<f64> = self
            .shards
            .iter()
            .map(|shard| shard.fragmentation().fragments_per_object)
            .filter(|fpo| *fpo > 0.0)
            .collect();
        if per_shard.is_empty() {
            return 1.0;
        }
        let max = per_shard.iter().cloned().fold(0.0f64, f64::max);
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Total live objects across the fleet.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|shard| shard.object_count()).sum()
    }

    /// Total live bytes across the fleet.
    pub fn live_bytes(&self) -> u64 {
        self.shards.iter().map(|shard| shard.live_bytes()).sum()
    }

    /// The fleet's storage clock: the busiest shard's elapsed service time
    /// (shards run in parallel — wall time is set by the slowest spindle).
    pub fn elapsed(&self) -> SimDuration {
        self.shards
            .iter()
            .map(|shard| shard.elapsed())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Resets every shard's measurement clock.
    pub fn reset_measurements(&mut self) {
        for shard in &mut self.shards {
            shard.reset_measurements();
        }
    }

    /// Routes one request, updating the directory: puts claim their routed
    /// shard, deletes release it, reads and safe writes follow the object.
    ///
    /// A `Get`/`Delete` of a key the directory has never seen is a typed
    /// miss (`StoreError::NoSuchObject`) because the directory, not the
    /// router, says where an object lives: rebalancing moves objects off
    /// their routed shard, so the router's answer is only where a *new*
    /// object lands.  A key the directory lacks is on no shard, and every
    /// shard would report the same miss — the fleet just says so up front
    /// without burning a request slot.
    fn route_request(
        router: &Router,
        directory: &mut HashMap<ObjectKey, u32>,
        op: &WorkloadOp,
    ) -> Result<u32, StoreError> {
        let miss = |key: ObjectKey| StoreError::NoSuchObject(key.to_string());
        match *op {
            WorkloadOp::Put { key, size } => {
                let shard = router.route(key, size);
                directory.insert(key, shard);
                Ok(shard)
            }
            WorkloadOp::SafeWrite { key, size } => match directory.get(&key) {
                Some(&shard) => Ok(shard),
                None => {
                    let shard = router.route(key, size);
                    directory.insert(key, shard);
                    Ok(shard)
                }
            },
            WorkloadOp::Get { key } => directory.get(&key).copied().ok_or_else(|| miss(key)),
            WorkloadOp::Delete { key } => directory.remove(&key).ok_or_else(|| miss(key)),
        }
    }

    /// Splits an aggregate stream (requests, or bare operations) into
    /// per-shard sub-streams, preserving its order within each.
    fn partition<T>(
        &mut self,
        stream: Vec<T>,
        op_of: impl Fn(&T) -> &WorkloadOp,
    ) -> Result<Vec<Vec<T>>, StoreError> {
        let mut streams: Vec<Vec<T>> = self.shards.iter().map(|_| Vec::new()).collect();
        for item in stream {
            let shard = Self::route_request(&self.router, &mut self.directory, op_of(&item))?;
            streams[shard as usize].push(item);
        }
        Ok(streams)
    }

    /// Splices one shard's interval recording into the fleet trace:
    /// spans land on that shard's track, shifted from the server-local
    /// timeline onto the fleet timeline.
    fn splice(&self, shard: usize, run: &mut ShardRun) {
        let offset = self.trace_offset.as_nanos();
        let track = Track::Shard(shard.min(u8::MAX as usize) as u8);
        for mut span in run.spans.drain(..) {
            span.track = track;
            span.start_ns = span.start_ns.saturating_add(offset);
            self.obs.record_span(span);
        }
        for mut sample in run.metrics.drain(..) {
            sample.at_ns = sample.at_ns.saturating_add(offset);
            self.obs.record_metric(sample);
        }
    }

    /// Loads `ops` serially (one client, zero think time) across the fleet —
    /// the bulk-load path.  Each shard loads its own partition exactly as a
    /// bare serial harness would; with worker threads the shards load
    /// concurrently, producing a bit-identical layout.
    pub fn load(&mut self, ops: Vec<WorkloadOp>) -> Result<usize, StoreError> {
        let applied = ops.len();
        let streams: Vec<Arrivals> = self
            .partition(ops, |op| op)?
            .into_iter()
            .map(|ops| Arrivals::Closed {
                ops,
                clients: 1,
                think_time: SimDuration::ZERO,
            })
            .collect();
        let runs = drain_streams(&mut self.shards, streams, self.parallelism, false);
        for slot in runs.into_iter().flatten() {
            slot?;
        }
        Ok(applied)
    }

    /// Drains one measurement interval's per-shard sub-streams and closes
    /// the interval: each shard's queue stats are kept, its recording is
    /// spliced into the fleet trace and handed — with the fleet recorder
    /// and the interval's trace offset — to `each` (idle shards are
    /// skipped), then the gauges are probed and the trace timeline advances
    /// past the slowest shard.
    fn drain_interval(
        &mut self,
        streams: Vec<Vec<StoreRequest>>,
        mut each: impl FnMut(&Obs, SimDuration, usize, ShardRun),
    ) -> Result<(), StoreError> {
        let runs = drain_streams(
            &mut self.shards,
            streams.into_iter().map(Arrivals::Open).collect(),
            self.parallelism,
            self.obs.enabled(),
        );
        let mut interval_end = SimDuration::ZERO;
        for (shard, slot) in runs.into_iter().enumerate() {
            self.last_queue[shard] = QueueStats::default();
            let Some(outcome) = slot else { continue };
            let mut run = outcome?;
            self.last_queue[shard] = run.queue;
            interval_end = interval_end.max(run.end);
            if self.obs.enabled() {
                self.splice(shard, &mut run);
            }
            each(&self.obs, self.trace_offset, shard, run);
        }
        self.probe(self.trace_offset + interval_end);
        self.trace_offset += interval_end;
        Ok(())
    }

    /// Runs an aggregate arrival schedule (sorted by arrival time) across
    /// the fleet: the schedule is partitioned by the router/directory and
    /// each shard's sub-stream runs as [`Arrivals::Open`] against that
    /// shard's own [`StoreServer`].  Completions are returned merged back
    /// into aggregate arrival order.
    ///
    /// Build the schedule **once**, at the aggregate offered load and from
    /// time zero — [`OpenLoop::schedule`] or
    /// [`lor_core::MixedOpenLoop::schedule`] — so the per-shard streams are
    /// deterministic for a fixed seed and the offered pattern does not
    /// depend on the shard count.
    pub fn run(&mut self, schedule: Vec<StoreRequest>) -> Result<Vec<Completion>, StoreError> {
        let mut merged: Vec<Completion> = Vec::with_capacity(schedule.len());
        let streams = self.partition(schedule, |request| &request.op)?;
        self.drain_interval(streams, |obs, offset, shard, run| {
            if obs.enabled() {
                obs.span(
                    Track::Shard(shard.min(u8::MAX as usize) as u8),
                    "interval",
                    offset.as_nanos(),
                    run.end.as_nanos(),
                    &[
                        ("requests", (run.completions.len() as u64).into()),
                        ("max_queue_depth", run.queue.max_depth.into()),
                    ],
                );
            }
            merged.extend(run.completions);
        })?;
        // Aggregate arrival order: client ids number the aggregate stream,
        // so (arrival, client) restores exactly the order the scheduler
        // offered.  For one shard this is the stream's own dispatch order.
        merged.sort_by_key(|completion| (completion.request.arrival, completion.request.client.0));
        Ok(merged)
    }

    /// [`ShardedStore::run`] with rebalancing interleaved *inside* the
    /// measurement interval: the schedule is cut into `slices` equal
    /// arrival-time windows, each window is drained across the fleet
    /// (in parallel under `FleetParallelism::Threads`), and one budgeted
    /// [`ShardedStore::run_rebalance_slice`] runs between windows — so
    /// migration I/O lands on source and destination shard clocks while
    /// foreground load is in flight, not in a quiet phase afterwards.
    /// Migrations and foreground routing alternate on the coordinating
    /// thread; queue backlog does not carry across window boundaries
    /// (each window re-opens its shard queues, as separate measurement
    /// intervals do).
    pub fn run_with_rebalance(
        &mut self,
        schedule: Vec<StoreRequest>,
        budget_bytes: u64,
        slices: u32,
    ) -> Result<Vec<Completion>, StoreError> {
        let slices = slices.max(1);
        let Some(horizon) = schedule.last().map(|request| request.arrival) else {
            return Ok(Vec::new());
        };
        let window_ns = (horizon.as_nanos() / slices as u64).max(1);
        let mut windows: Vec<Vec<StoreRequest>> = vec![Vec::new(); slices as usize];
        for request in schedule {
            let index =
                ((request.arrival.as_nanos() / window_ns) as usize).min(slices as usize - 1);
            windows[index].push(request);
        }
        let mut merged: Vec<Completion> = Vec::new();
        for (index, mut window) in windows.into_iter().enumerate() {
            if !window.is_empty() {
                // Rebase arrivals onto the window's own timeline (each
                // window is a measurement interval of its own), then
                // shift the completions back so the merged stream stays
                // on the aggregate clock.
                let base = SimDuration::from_nanos(index as u64 * window_ns);
                for request in &mut window {
                    request.arrival = request.arrival.saturating_sub(base);
                }
                let completions = self.run(window)?;
                merged.extend(completions.into_iter().map(|mut completion| {
                    completion.request.arrival += base;
                    completion.start += base;
                    completion.finish += base;
                    completion
                }));
            }
            self.run_rebalance_slice(budget_bytes);
        }
        Ok(merged)
    }

    /// Runs fan-out reads: each group of keys is one multi-object request
    /// whose sub-reads all arrive at the group's Poisson instant, routed to
    /// their shards, and the request completes when the slowest sub-read
    /// does.  `load.ops_per_sec` is the rate of *groups*.
    pub fn run_fanout_reads(
        &mut self,
        groups: Vec<Vec<ObjectKey>>,
        load: OpenLoop,
    ) -> Result<Vec<FanoutCompletion>, StoreError> {
        let arrivals = load.arrivals(SimDuration::ZERO, groups.len())?;
        let mut streams: Vec<Vec<StoreRequest>> = vec![Vec::new(); self.shards.len()];
        for (group, (keys, &at)) in groups.into_iter().zip(&arrivals).enumerate() {
            for key in keys {
                let op = WorkloadOp::Get { key };
                let shard = Self::route_request(&self.router, &mut self.directory, &op)?;
                streams[shard as usize].push(StoreRequest {
                    client: ClientId(group as u32),
                    op,
                    arrival: at,
                });
            }
        }

        let mut grouped: Vec<FanoutCompletion> = arrivals
            .iter()
            .enumerate()
            .map(|(group, &arrival)| FanoutCompletion {
                group: group as u32,
                arrival,
                parts: Vec::new(),
            })
            .collect();
        self.drain_interval(streams, |obs, offset, shard, run| {
            for completion in run.completions {
                let group = completion.request.client.0 as usize;
                if obs.enabled() {
                    obs.span(
                        Track::Shard(shard.min(u8::MAX as usize) as u8),
                        "fanout-get",
                        (offset + completion.start).as_nanos(),
                        completion
                            .finish
                            .saturating_sub(completion.start)
                            .as_nanos(),
                        &[
                            ("group", u64::from(completion.request.client.0).into()),
                            ("queue_ms", completion.queue_delay().as_millis_f64().into()),
                        ],
                    );
                }
                grouped[group].parts.push(FanoutPart {
                    shard: shard as u32,
                    completion,
                });
            }
        })?;
        Ok(grouped)
    }

    /// Runs one budgeted rebalancing slice: migrates the most-fragmented
    /// objects off the worst shard until about `budget_bytes` have been
    /// transferred (destination writes are placed as the maintenance
    /// consumer, so migration cannot crowd any shard's foreground band).
    /// Returns the background I/O the migration performed; its time has
    /// already been charged to the source and destination shards' clocks.
    pub fn run_rebalance_slice(&mut self, budget_bytes: u64) -> MaintIo {
        Rebalancer {
            shards: &mut self.shards,
            directory: &mut self.directory,
            state: &mut self.rebalance_state,
        }
        .migrate_step(budget_bytes)
    }

    /// Objects migrated between shards so far.
    pub fn objects_migrated(&self) -> u64 {
        self.rebalance_state.objects_moved
    }

    /// Migrations refused because the destination's maintenance band could
    /// not hold the object (the placement guarantee holding).
    pub fn migration_refusals(&self) -> u64 {
        self.rebalance_state.refusals
    }

    /// Samples per-shard gauges onto the fleet trace timeline.
    fn probe(&mut self, at: SimDuration) {
        if !self.obs.enabled() {
            return;
        }
        let at_ns = at.as_nanos();
        for (index, shard) in self.shards.iter().enumerate().take(GAUGE_FRAG.len()) {
            self.obs.gauge(
                GAUGE_FRAG[index],
                at_ns,
                shard.fragmentation().fragments_per_object,
            );
            self.obs.gauge(
                GAUGE_QUEUE[index],
                at_ns,
                self.last_queue[index].mean_depth(),
            );
            if let Some(bands) = shard.band_occupancy() {
                self.obs
                    .gauge(GAUGE_BAND_FG[index], at_ns, bands.foreground_used);
                self.obs
                    .gauge(GAUGE_BAND_MAINT[index], at_ns, bands.maintenance_used);
            }
        }
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("router", &self.router.policy())
            .field("objects", &self.directory.len())
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lor_core::SizeDistribution;

    /// One slice on a two-shard fleet whose shard 0 was fragmented by an
    /// interleaved batch rewrite: what it migrates and the I/O it reports
    /// are pinned to the values recorded before the fleet called the
    /// migration step directly.
    #[test]
    fn rebalance_slice_migrates_off_the_fragmented_shard() {
        const SIZE: u64 = 4 << 20;
        let mut config = ExperimentConfig::paper_default(SizeDistribution::Constant(SIZE));
        config.volume_bytes = 512 << 20;
        let policy = RouterPolicy::ConsistentHash { vnodes: 8 };
        let mut fleet =
            ShardedStore::new(StoreKind::Filesystem, &config, 2, policy).expect("fleet");
        let keys: Vec<ObjectKey> = (0..12).map(ObjectKey).collect();
        let puts = keys.iter().map(|&key| WorkloadOp::Put { key, size: SIZE });
        fleet.load(puts.collect()).expect("bulk load");
        // Every shard-0 object is rewritten in one batch (all requests are
        // waiting at time zero), which interleaves their appends; shard 1
        // stays contiguous.
        let rewrite: Vec<StoreRequest> = keys
            .iter()
            .filter(|&&key| fleet.router().route(key, SIZE) == 0)
            .enumerate()
            .map(|(client, &key)| StoreRequest {
                client: ClientId(client as u32),
                op: WorkloadOp::SafeWrite { key, size: SIZE },
                arrival: SimDuration::ZERO,
            })
            .collect();
        fleet.run(rewrite).expect("batch rewrite");
        let fpo: Vec<f64> = fleet
            .per_shard_fragmentation()
            .iter()
            .map(|summary| summary.fragments_per_object)
            .collect();
        assert!(
            fpo[0] > fpo[1] + 1.0,
            "fixture must skew the fleet: {fpo:?}"
        );

        let io = fleet.run_rebalance_slice(16 << 20);
        assert_eq!(
            (
                fleet.objects_migrated(),
                fleet.migration_refusals(),
                io.bytes
            ),
            (2, 0, 16 << 20)
        );
        assert_eq!(io.time, SimDuration::from_nanos(535_794_239));
        // A zero budget moves nothing.
        assert!(fleet.run_rebalance_slice(0).is_none());
        assert_eq!(fleet.objects_migrated(), 2);
    }
}
