//! The discrete-event maintenance scheduler.

use lor_disksim::{SimClock, SimDuration};
use lor_obs::{Obs, Track};

use crate::config::{
    MaintenanceConfig, MaintenancePolicy, CHECKPOINT_EVERY_TICKS, GHOST_CLEANUP_EVERY_TICKS,
    TICK_EVERY_OPS,
};
use crate::task::{MaintIo, MaintTarget, TaskKind};

/// The task queue, in the order each tick runs it: checkpoint flush, then
/// ghost cleanup, then incremental defragmentation (cleanup before
/// defragmentation matters — reclaimed space is what gives the defragmenter
/// contiguous runs to move objects into).
const QUEUE: [TaskKind; 3] = [
    TaskKind::Checkpoint,
    TaskKind::GhostCleanup,
    TaskKind::Defrag,
];

/// Tracks how long the store's ghost backlog has been outstanding, for the
/// `SubstrateAware` policy's deferred release.
///
/// The database's eager-cleanup pathology (recorded in EXPERIMENTS.md) is
/// that releasing ghost pages *as they appear* feeds the engine's
/// lowest-first reuse and interleaves objects.  The fix is hysteresis: hold
/// the backlog until it has aged `defer` of **simulated time**, then drain it
/// in bulk and re-arm.  While draining, release stays allowed until the
/// backlog is empty, so a bulk drop is not cut off halfway.  The age is
/// simulated time, not ticks (see [`MaintenancePolicy::SubstrateAware`]).
#[derive(Debug, Default, Clone, Copy)]
struct BacklogClock {
    /// Simulated instant at which the current backlog was first observed.
    since: Option<SimDuration>,
    /// A drain is in progress: keep releasing until the backlog empties.
    draining: bool,
}

impl BacklogClock {
    /// Observes the backlog at simulated instant `now` and decides whether
    /// ghost release is allowed: `backlog_bytes == 0` resets the clock
    /// (nothing to release); otherwise release unlocks once the backlog is
    /// `defer` old and stays unlocked until it drains.
    fn release_allowed(
        &mut self,
        now: SimDuration,
        backlog_bytes: u64,
        defer: SimDuration,
    ) -> bool {
        if backlog_bytes == 0 {
            self.since = None;
            self.draining = false;
            return true;
        }
        let since = *self.since.get_or_insert(now);
        if self.draining || now.saturating_sub(since) >= defer {
            self.draining = true;
            return true;
        }
        false
    }
}

/// Per-task accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TaskStats {
    /// Times the task ran and performed work.
    pub runs: u64,
    /// Background bytes the task transferred.
    pub io_bytes: u64,
    /// Background time the task consumed.
    pub busy: SimDuration,
}

/// Everything the scheduler has done so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Foreground operations observed.
    pub foreground_ops: u64,
    /// Scheduler ticks elapsed.
    pub ticks: u64,
    /// Total background bytes transferred across all tasks.
    pub background_bytes: u64,
    /// Total background time, i.e. the foreground interference inflicted.
    pub background_time: SimDuration,
    /// Checkpoint-flush accounting.
    pub checkpoint: TaskStats,
    /// Ghost-cleanup accounting.
    pub ghost_cleanup: TaskStats,
    /// Incremental-defragmentation accounting.
    pub defrag: TaskStats,
}

impl MaintenanceStats {
    /// The accounting bucket for a task kind.
    pub fn task(&self, kind: TaskKind) -> &TaskStats {
        match kind {
            TaskKind::Checkpoint => &self.checkpoint,
            TaskKind::GhostCleanup => &self.ghost_cleanup,
            TaskKind::Defrag => &self.defrag,
        }
    }

    fn task_mut(&mut self, kind: TaskKind) -> &mut TaskStats {
        match kind {
            TaskKind::Checkpoint => &mut self.checkpoint,
            TaskKind::GhostCleanup => &mut self.ghost_cleanup,
            TaskKind::Defrag => &mut self.defrag,
        }
    }
}

/// The clock-driven background maintenance scheduler.
///
/// The scheduler observes every foreground operation (advancing its own
/// simulated clock by the operation's duration), and every
/// [`TICK_EVERY_OPS`] operations it takes a *tick*: the
/// [`crate::MaintenancePolicy`] converts the store's state into a background I/O
/// budget, and the task queue spends that budget in order.  All background
/// time is returned to the caller as foreground interference — the simulated
/// disk is a single spindle, so a foreground operation issued while
/// maintenance I/O is in flight waits for it.
pub struct MaintenanceScheduler {
    config: MaintenanceConfig,
    /// [`MaintenanceConfig::server_driven`], resolved once at construction.
    server_driven: bool,
    clock: SimClock,
    ops_since_tick: u64,
    stats: MaintenanceStats,
    /// Backlog-age hysteresis for the `SubstrateAware` policy's deferred
    /// ghost release.
    ghost_clock: BacklogClock,
    /// Observability handle (inert by default).  Per-task spans go on the
    /// maintenance track, stamped with this scheduler's own clock — which
    /// [`MaintenanceScheduler::run_budgeted_slice`] keeps aligned with the
    /// driving server's timeline and never rewinds.
    obs: Obs,
}

impl std::fmt::Debug for MaintenanceScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceScheduler")
            .field("config", &self.config)
            .field("clock", &self.clock)
            .field("ops_since_tick", &self.ops_since_tick)
            .field("stats", &self.stats)
            .finish()
    }
}

impl MaintenanceScheduler {
    /// Creates a scheduler over the task queue: checkpoint flush, ghost
    /// cleanup, incremental defragmentation, in that order each tick.
    pub fn new(config: MaintenanceConfig) -> Self {
        MaintenanceScheduler {
            server_driven: config.server_driven(),
            config,
            clock: SimClock::new(),
            ops_since_tick: 0,
            stats: MaintenanceStats::default(),
            ghost_clock: BacklogClock::default(),
            obs: Obs::null(),
        }
    }

    /// Attaches an observability handle.  Each queue run emits a budget
    /// gauge and each task run a span; tracing never changes what the queue
    /// does.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MaintenanceConfig {
        &self.config
    }

    /// Whether the request scheduler owns the drive (it then calls
    /// [`MaintenanceScheduler::run_budgeted_slice`]; the store-attached drive
    /// calls [`MaintenanceScheduler::on_foreground_op`]).
    pub fn server_driven(&self) -> bool {
        self.server_driven
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MaintenanceStats {
        &self.stats
    }

    /// The scheduler's simulated clock: total foreground plus background time
    /// it has observed.
    pub fn now(&self) -> SimDuration {
        self.clock.now()
    }

    /// Observes one completed foreground operation of duration `op_time` and,
    /// when a tick is due, runs the task queue.  Returns the background time
    /// spent during this call — the interference the caller must charge to
    /// the foreground clock.
    pub fn on_foreground_op(
        &mut self,
        op_time: SimDuration,
        target: &mut dyn MaintTarget,
    ) -> SimDuration {
        self.clock.advance(op_time);
        self.stats.foreground_ops += 1;
        self.ops_since_tick += 1;
        if self.ops_since_tick < TICK_EVERY_OPS {
            return SimDuration::ZERO;
        }
        self.ops_since_tick = 0;
        self.run_tick(target)
    }

    /// Runs one tick: asks the policy for a budget and spends it on the
    /// queue.  Returns the background time consumed.
    fn run_tick(&mut self, target: &mut dyn MaintTarget) -> SimDuration {
        self.stats.ticks += 1;

        // The policy-to-budget mapping is shared with the request
        // scheduler's drive (`MaintenanceConfig::tick_budget_bytes`).  Idle
        // detection (and its substrate-aware refinement) needs a request
        // scheduler to observe gaps; the serial store-attached drive has
        // none, so those policies grant nothing here (the server drives
        // them via `run_budgeted_slice`).
        let budget_bytes = self
            .config
            .tick_budget_bytes(|| target.fragments_per_object());
        if budget_bytes == 0 {
            return SimDuration::ZERO;
        }
        self.run_queue(target, budget_bytes).time
    }

    /// Runs the task queue once with an explicit byte budget, bypassing the
    /// policy — the entry point for an external (request-scheduler) drive,
    /// which decides *when* maintenance runs and how much it may spend, while
    /// the task queue still decides *what* runs.  `now` is the caller's
    /// simulated clock at the slice; the scheduler's own clock is advanced to
    /// it (never backwards) so time-based policy state — the ghost-backlog
    /// deferral — ages with the workload rather than with the slice rate.
    /// Returns the background I/O performed; the caller owns the
    /// interference model, so nothing is charged anywhere else.
    pub fn run_budgeted_slice(
        &mut self,
        target: &mut dyn MaintTarget,
        budget_bytes: u64,
        now: SimDuration,
    ) -> MaintIo {
        self.stats.ticks += 1;
        self.clock.advance(now.saturating_sub(self.clock.now()));
        if budget_bytes == 0 {
            return MaintIo::NONE;
        }
        self.run_queue(target, budget_bytes)
    }

    /// Whether ghost release is allowed at this instant.  Always true except
    /// under [`MaintenancePolicy::SubstrateAware`], where a non-empty ghost
    /// backlog is held until it has aged `defer_ghost_ms` of simulated time
    /// and is then drained in bulk — the hysteresis that kills the recorded
    /// eager-cleanup pathology.
    fn ghost_release_allowed(&mut self, target: &dyn MaintTarget) -> bool {
        let MaintenancePolicy::SubstrateAware { defer_ghost_ms, .. } = self.config.policy else {
            return true;
        };
        self.ghost_clock.release_allowed(
            self.clock.now(),
            target.reclaimable_bytes(),
            SimDuration::from_millis_f64(defer_ghost_ms),
        )
    }

    /// Spends `budget_bytes` on the task queue in order and accounts the I/O.
    ///
    /// Checkpoint and ghost cleanup run on their tick cadences
    /// (cleanup only while there is something to reclaim and release is
    /// allowed); defragmentation runs every time, on whatever budget the
    /// earlier entries left over.
    fn run_queue(&mut self, target: &mut dyn MaintTarget, mut budget_bytes: u64) -> MaintIo {
        let mut total = MaintIo::NONE;
        let ghost_allowed = self.ghost_release_allowed(target);
        if self.obs.enabled() {
            let at = self.clock.now().as_nanos();
            self.obs
                .gauge("maint.budget_bytes", at, budget_bytes as f64);
            self.obs.counter("maint.ticks", at, self.stats.ticks as f64);
        }
        let checkpoint_due = self.stats.ticks.is_multiple_of(CHECKPOINT_EVERY_TICKS);
        let cleanup_due =
            ghost_allowed && self.stats.ticks.is_multiple_of(GHOST_CLEANUP_EVERY_TICKS);
        for kind in QUEUE {
            if budget_bytes == 0 {
                break;
            }
            let budget_before = budget_bytes;
            let io = match kind {
                TaskKind::Checkpoint if checkpoint_due => target.checkpoint(),
                TaskKind::GhostCleanup if cleanup_due && target.reclaimable_bytes() > 0 => {
                    target.ghost_cleanup(budget_bytes)
                }
                TaskKind::Defrag => target.defragment_step(budget_bytes),
                TaskKind::Checkpoint | TaskKind::GhostCleanup => continue,
            };
            if io.is_none() {
                continue;
            }
            budget_bytes = budget_bytes.saturating_sub(io.bytes);
            let entry = self.stats.task_mut(kind);
            entry.runs += 1;
            entry.io_bytes += io.bytes;
            entry.busy += io.time;
            let task_runs = entry.runs;
            self.stats.background_bytes += io.bytes;
            self.stats.background_time += io.time;
            if self.obs.enabled() {
                // Tasks tile the slice in queue order: each span starts
                // where the background time accumulated so far ends.
                let start = (self.clock.now() + total.time).as_nanos();
                self.obs.span(
                    Track::Maintenance,
                    kind.name(),
                    start,
                    io.time.as_nanos(),
                    &[
                        ("bytes", io.bytes.into()),
                        ("budget_bytes", budget_before.into()),
                        ("run", task_runs.into()),
                        ("tick", self.stats.ticks.into()),
                    ],
                );
            }
            total = total.combined(&io);
        }
        // Re-observe the backlog after the queue ran: a drain that empties
        // the backlog on this very tick must re-arm the deferral clock now,
        // not when some later slice happens to observe zero — otherwise the
        // lingering draining flag releases the *next* backlog with no hold.
        let _ = self.ghost_release_allowed(target);
        self.clock.advance(total.time);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A target whose fragmentation grows by 0.1 per foreground op and whose
    /// maintenance actions have simple deterministic effects.
    struct FakeStore {
        ghost_bytes: u64,
        frags: f64,
        cleanups: u64,
        checkpoints: u64,
        defrag_steps: u64,
        last_defrag_budget: u64,
    }

    impl FakeStore {
        fn new() -> Self {
            FakeStore {
                ghost_bytes: 0,
                frags: 1.0,
                cleanups: 0,
                checkpoints: 0,
                defrag_steps: 0,
                last_defrag_budget: 0,
            }
        }

        fn dirty(&mut self) {
            self.ghost_bytes += 8192;
            self.frags += 0.1;
        }
    }

    impl MaintTarget for FakeStore {
        fn reclaimable_bytes(&self) -> u64 {
            self.ghost_bytes
        }
        fn fragments_per_object(&self) -> f64 {
            self.frags
        }
        fn ghost_cleanup(&mut self, _budget_bytes: u64) -> MaintIo {
            self.cleanups += 1;
            let bytes = 4096;
            self.ghost_bytes = 0;
            MaintIo::new(bytes, SimDuration::from_millis(2))
        }
        fn checkpoint(&mut self) -> MaintIo {
            self.checkpoints += 1;
            MaintIo::new(4096, SimDuration::from_millis(1))
        }
        fn defragment_step(&mut self, budget_bytes: u64) -> MaintIo {
            self.defrag_steps += 1;
            self.last_defrag_budget = budget_bytes;
            if self.frags <= 1.0 {
                return MaintIo::NONE;
            }
            self.frags = (self.frags - 1.0).max(1.0);
            MaintIo::new(budget_bytes.min(1 << 20), SimDuration::from_millis(10))
        }
    }

    /// Runs one budgeted slice on which every queue entry is on cadence:
    /// zero-budget slices (which tick the cadence, catch the clock up to
    /// `now` and do nothing else) step the tick counter to the next multiple
    /// of the ghost-cleanup cadence — itself a multiple of the checkpoint
    /// cadence — first.
    fn due_slice(
        scheduler: &mut MaintenanceScheduler,
        store: &mut FakeStore,
        now: SimDuration,
    ) -> MaintIo {
        while !(scheduler.stats().ticks + 1).is_multiple_of(GHOST_CLEANUP_EVERY_TICKS) {
            scheduler.run_budgeted_slice(store, 0, now);
        }
        scheduler.run_budgeted_slice(store, 1 << 20, now)
    }

    fn drive(scheduler: &mut MaintenanceScheduler, store: &mut FakeStore, ops: u64) -> SimDuration {
        let mut interference = SimDuration::ZERO;
        for _ in 0..ops {
            store.dirty();
            interference += scheduler.on_foreground_op(SimDuration::from_millis(5), store);
        }
        interference
    }

    #[test]
    fn idle_policy_never_interferes() {
        let mut store = FakeStore::new();
        let mut scheduler = MaintenanceScheduler::new(MaintenanceConfig::idle());
        let interference = drive(&mut scheduler, &mut store, 100);
        assert_eq!(interference, SimDuration::ZERO);
        assert_eq!(store.cleanups + store.checkpoints + store.defrag_steps, 0);
        assert_eq!(scheduler.stats().background_bytes, 0);
        // Ticks still elapse and the clock still follows the foreground.
        assert_eq!(scheduler.stats().ticks, 100 / 8);
        assert_eq!(scheduler.now(), SimDuration::from_millis(500));
        assert_eq!(scheduler.stats().foreground_ops, 100);
    }

    #[test]
    fn zero_budget_behaves_like_idle() {
        let mut store = FakeStore::new();
        let mut scheduler = MaintenanceScheduler::new(MaintenanceConfig::fixed_budget(0));
        assert_eq!(drive(&mut scheduler, &mut store, 64), SimDuration::ZERO);
        assert_eq!(store.defrag_steps, 0);
    }

    #[test]
    fn fixed_budget_runs_the_queue_and_charges_interference() {
        let mut store = FakeStore::new();
        let mut scheduler = MaintenanceScheduler::new(MaintenanceConfig::fixed_budget(16));
        let interference = drive(&mut scheduler, &mut store, 64);
        assert!(interference > SimDuration::ZERO);
        let stats = scheduler.stats();
        assert_eq!(stats.ticks, 8);
        // Defrag runs every tick; checkpoint every 2 ticks, cleanup every 8.
        assert_eq!(store.defrag_steps, 8);
        assert_eq!(store.checkpoints, 4);
        assert_eq!(store.cleanups, 1);
        assert_eq!(stats.defrag.runs, 8);
        assert_eq!(stats.checkpoint.runs, 4);
        assert_eq!(stats.ghost_cleanup.runs, 1);
        assert_eq!(stats.background_time, interference);
        assert!(stats.background_bytes > 0);
        // The scheduler clock includes foreground and background time.
        assert_eq!(
            scheduler.now(),
            SimDuration::from_millis(64 * 5) + interference
        );
        // Earlier queue entries consume budget before defrag sees it.
        assert!(store.last_defrag_budget < 16 * 64 * 1024);

        // The same cadences under an external drive: checkpoints land on
        // the even slices only; cleanup, due on slices 8 and 16, still waits
        // for something to reclaim; defrag never skips a slice.
        let mut scheduler = MaintenanceScheduler::new(MaintenanceConfig::fixed_budget(16));
        let mut store = FakeStore::new();
        let mut checkpoint_ticks = Vec::new();
        for tick in 1..=16u64 {
            store.ghost_bytes = if tick > 8 { 4096 } else { 0 };
            let before = store.checkpoints;
            scheduler.run_budgeted_slice(&mut store, 1 << 20, SimDuration::from_millis(tick));
            if store.checkpoints > before {
                checkpoint_ticks.push(tick);
            }
        }
        assert_eq!(checkpoint_ticks, [2, 4, 6, 8, 10, 12, 14, 16]);
        assert_eq!(store.cleanups, 1);
        assert_eq!(store.defrag_steps, 16);
        assert_eq!(
            QUEUE.map(|kind| kind.name()),
            ["checkpoint", "ghost-cleanup", "defrag"]
        );
    }

    #[test]
    fn threshold_policy_engages_only_above_the_threshold() {
        let mut store = FakeStore::new();
        let mut scheduler = MaintenanceScheduler::new(MaintenanceConfig::threshold(2.0));
        // 8 ops push frags to 1.8: below threshold, first tick does nothing.
        drive(&mut scheduler, &mut store, 8);
        assert_eq!(store.defrag_steps, 0);
        // 8 more push frags to 2.6: the next tick bursts and repairs, and
        // the serial drive charges the burst to the foreground.
        let burst = drive(&mut scheduler, &mut store, 8);
        assert!(burst > SimDuration::ZERO, "a burst interferes");
        assert_eq!(store.defrag_steps, 1);
        assert!(store.frags <= 2.0);
        // Back under the threshold: quiescent again.
        let quiet = drive(&mut scheduler, &mut store, 2);
        assert_eq!(quiet, SimDuration::ZERO);
    }

    #[test]
    fn idle_detect_never_runs_under_the_serial_drive() {
        let mut store = FakeStore::new();
        let mut scheduler = MaintenanceScheduler::new(MaintenanceConfig::idle_detect(1.0));
        let interference = drive(&mut scheduler, &mut store, 64);
        assert_eq!(interference, SimDuration::ZERO);
        assert_eq!(store.cleanups + store.checkpoints + store.defrag_steps, 0);
    }

    #[test]
    fn ghost_backlog_clock_defers_then_drains() {
        let ms = SimDuration::from_millis;
        let mut clock = BacklogClock::default();
        // No backlog: release trivially allowed.
        assert!(clock.release_allowed(ms(1), 0, ms(4)));
        // Backlog appears at 2 ms: held until it is 4 ms old.
        assert!(!clock.release_allowed(ms(2), 4096, ms(4)));
        assert!(!clock.release_allowed(ms(4), 4096, ms(4)));
        assert!(
            clock.release_allowed(ms(6), 4096, ms(4)),
            "aged past the threshold"
        );
        // Draining: stays allowed even though the age test alone would hold.
        assert!(clock.release_allowed(ms(7), 1024, ms(100)));
        // Backlog empties: clock re-arms.
        assert!(clock.release_allowed(ms(8), 0, ms(4)));
        assert!(!clock.release_allowed(ms(9), 4096, ms(4)), "re-armed hold");
    }

    #[test]
    fn substrate_aware_defers_ghost_release_on_eager_reuse_substrates() {
        let ms = SimDuration::from_millis;
        // The deferral is simulated time, not ticks: a 30 ms hold releases
        // after 30 ms of workload clock however many slices ran meanwhile.
        let config = MaintenanceConfig::substrate_aware(5.0, 30.0);

        // A ghost backlog is held until it is 30 ms old.
        let mut store = FakeStore::new();
        store.ghost_bytes = 64 * 1024;
        let mut scheduler = MaintenanceScheduler::new(config);
        for (slice, now) in [ms(10), ms(20), ms(30)].into_iter().enumerate() {
            due_slice(&mut scheduler, &mut store, now);
            assert_eq!(
                store.cleanups, 0,
                "slice {slice}: ghost release must be deferred while young"
            );
            assert!(
                store.checkpoints > slice as u64,
                "slice {slice}: checkpoints still run in every gap"
            );
        }
        // First observed at 10 ms; at 45 ms the backlog is 35 ms old.
        due_slice(&mut scheduler, &mut store, ms(45));
        assert_eq!(store.cleanups, 1, "aged backlog drains in bulk");
        assert_eq!(store.reclaimable_bytes(), 0);
        // The drain completed on that slice, so the clock re-arms
        // immediately: a fresh backlog must be held for the full deferral
        // again, even though no intervening slice observed the empty state.
        store.ghost_bytes = 64 * 1024;
        for now in [ms(50), ms(60), ms(75)] {
            due_slice(&mut scheduler, &mut store, now);
            assert_eq!(
                store.cleanups, 1,
                "re-armed hold at {now}: the new backlog must be deferred"
            );
        }
        due_slice(&mut scheduler, &mut store, ms(85));
        assert_eq!(store.cleanups, 2, "the re-aged backlog drains again");

        // No ghost backlog (the volume, the log): nothing is held, the
        // first gap checkpoints, and cleanup is never asked for.
        let mut store = FakeStore::new();
        let mut scheduler = MaintenanceScheduler::new(config);
        due_slice(&mut scheduler, &mut store, ms(1));
        assert_eq!(store.checkpoints, 1, "the first gap checkpoints");
        assert_eq!(store.cleanups, 0, "no backlog, no cleanup");
    }

    #[test]
    fn slice_rate_does_not_change_the_deferral_span() {
        // Scale-invariance: densely and sparsely sliced drives release the
        // backlog at the same simulated instant.
        let ms = SimDuration::from_millis;
        let config = MaintenanceConfig::substrate_aware(5.0, 100.0);
        let mut release_instants = Vec::new();
        for step_ms in [5u64, 50] {
            let mut store = FakeStore::new();
            store.ghost_bytes = 64 * 1024;
            let mut scheduler = MaintenanceScheduler::new(config);
            let mut now = SimDuration::ZERO;
            while store.cleanups == 0 {
                now += ms(step_ms);
                due_slice(&mut scheduler, &mut store, now);
                assert!(now < ms(1000), "the hold must release eventually");
            }
            release_instants.push(now.as_millis_f64());
        }
        // 5 ms slices release at 105 ms (first observation at 5 ms + 100 ms
        // hold); 50 ms slices at 150 ms (observed at 50 ms).  Both spans are
        // the configured 100 ms from first observation, tick counts be
        // damned (21 slices vs 3).
        assert_eq!(release_instants, vec![105.0, 150.0]);
    }

    #[test]
    fn budgeted_slices_bypass_the_policy() {
        let mut store = FakeStore::new();
        // Idle would never grant a budget; the external drive spends one
        // anyway.
        let mut scheduler = MaintenanceScheduler::new(MaintenanceConfig::idle());
        for _ in 0..16 {
            store.dirty();
        }
        let io = scheduler.run_budgeted_slice(&mut store, 1 << 20, SimDuration::from_millis(5));
        assert!(!io.is_none(), "the slice must perform work");
        assert_eq!(scheduler.stats().background_bytes, io.bytes);
        assert_eq!(scheduler.stats().background_time, io.time);
        assert_eq!(scheduler.stats().ticks, 1);
        // The scheduler clock caught up to the drive's and added the
        // background time on top.
        assert_eq!(scheduler.now(), SimDuration::from_millis(5) + io.time);
        // A zero budget ticks the queue cadence but does nothing.
        assert!(scheduler
            .run_budgeted_slice(&mut store, 0, SimDuration::from_millis(6))
            .is_none());
        assert_eq!(scheduler.stats().ticks, 2);
    }
}
