//! Property tests for the `Adaptive` policy's budget estimator: for *any*
//! observation sequence the estimated fragmentation rate is non-negative,
//! and on a frag-stable store it is exactly zero — so `Adaptive` degenerates
//! to `Idle` when nothing fragments.

use lor_disksim::SimDuration;
use lor_maint::{
    FragObservation, FragRateEstimator, MaintIo, MaintTarget, MaintenanceConfig,
    MaintenanceScheduler, BURST_IO_PER_TICK, FRAG_WINDOW_TICKS, IO_UNIT_BYTES,
};

/// A fragmentation observation of a synthetic 100-object store.
fn observed(per_object: f64) -> FragObservation {
    FragObservation {
        per_object,
        excess: ((per_object - 1.0).max(0.0) * 100.0) as u64,
    }
}
use proptest::prelude::*;

/// A target whose fragmentation level replays a scripted sequence and whose
/// maintenance actions cost deterministic time.
struct ScriptedTarget {
    frags: f64,
    actions: u64,
}

impl MaintTarget for ScriptedTarget {
    fn reclaimable_bytes(&self) -> u64 {
        0
    }
    fn fragments_per_object(&self) -> f64 {
        self.frags
    }
    fn excess_fragments(&self) -> u64 {
        ((self.frags - 1.0).max(0.0) * 100.0) as u64
    }
    fn ghost_cleanup(&mut self, _budget_bytes: u64) -> MaintIo {
        self.actions += 1;
        MaintIo::new(4096, SimDuration::from_millis(1))
    }
    fn checkpoint(&mut self) -> MaintIo {
        self.actions += 1;
        MaintIo::new(4096, SimDuration::from_millis(1))
    }
    fn defragment_step(&mut self, budget_bytes: u64) -> MaintIo {
        self.actions += 1;
        MaintIo::new(budget_bytes.min(1 << 20), SimDuration::from_millis(5))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The estimated rate is non-negative for any observation sequence —
    /// including wildly oscillating and improving (decreasing) ones — and
    /// the derived adaptive budget therefore never underflows.
    #[test]
    fn estimated_rate_is_never_negative(
        window in 2u64..12,
        observations in prop::collection::vec(0u32..50_000, 1..60),
        gain in 1u32..100_000,
    ) {
        let mut estimator = FragRateEstimator::new(window);
        let config = MaintenanceConfig::adaptive(f64::from(gain));
        for &raw in &observations {
            // Map the raw draw onto a plausible frags/object range [1, 51).
            let frags = 1.0 + f64::from(raw) / 1000.0;
            estimator.observe(frags);
            prop_assert!(
                estimator.rate_per_tick() >= 0.0,
                "rate went negative: {}",
                estimator.rate_per_tick()
            );
        }
        // The same invariant through the policy's budget mapping: feeding
        // the whole sequence tick-by-tick never panics and every budget is
        // a finite, representable byte count.
        let mut estimator = FragRateEstimator::new(FRAG_WINDOW_TICKS);
        for &raw in &observations {
            let frags = 1.0 + f64::from(raw) / 1000.0;
            let budget = config.tick_budget_bytes(&mut estimator, || observed(frags));
            // One tick may spend the whole anti-windup bank (2 × burst).
            prop_assert!(budget <= 2 * BURST_IO_PER_TICK * IO_UNIT_BYTES);
        }
    }

    /// A frag-stable store reads as rate zero once the window has slid past
    /// any earlier history, whatever that history was.
    #[test]
    fn stable_stores_read_as_rate_zero(
        window in 2u64..12,
        history in prop::collection::vec(0u32..50_000, 0..20),
        level in 0u32..50_000,
    ) {
        let mut estimator = FragRateEstimator::new(window);
        for &raw in &history {
            estimator.observe(1.0 + f64::from(raw) / 1000.0);
        }
        let stable = 1.0 + f64::from(level) / 1000.0;
        // One full window of identical observations flushes the history.
        for _ in 0..window {
            estimator.observe(stable);
        }
        prop_assert_eq!(estimator.rate_per_tick(), 0.0);
    }

    /// Scheduler-level degeneration: under `Adaptive`, a store whose
    /// fragmentation never moves gets *zero* background work and zero
    /// foreground interference — indistinguishable from `Idle` — for any
    /// gain and any op count.
    #[test]
    fn adaptive_degenerates_to_idle_on_a_stable_store(
        gain in 1u32..1_000_000,
        level in 0u32..50_000,
        ops in 1usize..200,
    ) {
        let mut target = ScriptedTarget {
            frags: 1.0 + f64::from(level) / 1000.0,
            actions: 0,
        };
        let mut adaptive =
            MaintenanceScheduler::new(MaintenanceConfig::adaptive(f64::from(gain)));
        let mut idle = MaintenanceScheduler::new(MaintenanceConfig::idle());
        let mut adaptive_interference = SimDuration::ZERO;
        let mut idle_interference = SimDuration::ZERO;
        for _ in 0..ops {
            adaptive_interference +=
                adaptive.on_foreground_op(SimDuration::from_millis(5), &mut target);
            idle_interference +=
                idle.on_foreground_op(SimDuration::from_millis(5), &mut target);
        }
        prop_assert_eq!(adaptive_interference, SimDuration::ZERO);
        prop_assert_eq!(adaptive_interference, idle_interference);
        prop_assert_eq!(target.actions, 0, "no task may run on a stable store");
        prop_assert_eq!(adaptive.stats().background_bytes, 0);
        prop_assert_eq!(adaptive.now(), idle.now());
    }

    /// The moment fragmentation starts growing the adaptive budget engages,
    /// and once it stops the budget decays back to zero within one window —
    /// the "spend only while degrading" shape the frontier scenario records.
    #[test]
    fn adaptive_engages_on_growth_and_decays_on_plateau(
        growth_per_tick in 100u32..5_000,
        growth_ticks in 2u64..10,
    ) {
        let config = MaintenanceConfig::adaptive(1024.0);
        let mut estimator = FragRateEstimator::new(FRAG_WINDOW_TICKS);
        let step = f64::from(growth_per_tick) / 1000.0;
        let mut frags = 1.0;
        let mut engaged = false;
        for _ in 0..growth_ticks {
            frags += step;
            let current = frags;
            if config.tick_budget_bytes(&mut estimator, || observed(current)) > 0 {
                engaged = true;
            }
        }
        prop_assert!(engaged, "a growing store must receive budget");
        // Plateau: the banked credit from the growth phase drains (in
        // bounded time — at least one burst per spending tick), after which
        // the budget is exactly zero and stays there.
        let current = frags;
        let mut drained = false;
        for _ in 0..400 {
            // Budget 0 means the bank is below one spending chunk, and rate
            // 0 means nothing more accrues — together the stable fixpoint.
            if config.tick_budget_bytes(&mut estimator, || observed(current)) == 0
                && estimator.rate_per_tick() == 0.0
            {
                drained = true;
                break;
            }
        }
        prop_assert!(drained, "plateaued stores must drain their repair debt");
        for _ in 0..FRAG_WINDOW_TICKS {
            prop_assert_eq!(
                config.tick_budget_bytes(&mut estimator, || observed(current)),
                0,
                "a drained, stable store must stop paying for good"
            );
        }
    }
}
