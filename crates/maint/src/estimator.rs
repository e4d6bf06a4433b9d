//! The windowed fragmentation-rate estimator behind the `Adaptive` policy.

use std::collections::VecDeque;

use lor_disksim::SimDuration;

/// One observation of a store's fragmentation state — the product of a
/// single O(objects) extent walk, carrying both views the policies need:
/// the paper's per-object mean (threshold policies) and the excess fragment
/// count (rate estimation; its per-tick derivative is the workload's per-op
/// damage, independent of population size, and zero while objects are
/// merely being created contiguously).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragObservation {
    /// Mean fragments per live object.
    pub per_object: f64,
    /// Fragments above the contiguous minimum (total minus object count).
    pub excess: u64,
}

/// Estimates the *rate* of fragmentation growth from per-tick observations
/// of the store's **excess** fragment count
/// ([`FragObservation::excess`]).
///
/// The estimator keeps a sliding window of the most recent observations and
/// reports the mean first difference across the window — a smoothed
/// derivative in excess fragments per tick.  Two properties make it safe to
/// feed a budget controller (both property-tested):
///
/// * the estimate is **never negative** — a store whose layout is improving
///   (defragmentation outpacing the workload) reads as rate 0, so the
///   controller cannot be driven to a negative budget; and
/// * the estimate is **exactly zero on a frag-stable store** — if every
///   observation in the window is equal, the rate is 0 and an
///   [`crate::MaintenancePolicy::Adaptive`] policy degenerates to
///   [`crate::MaintenancePolicy::Idle`], spending nothing while nothing
///   fragments.
#[derive(Debug, Clone)]
pub struct FragRateEstimator {
    window: VecDeque<f64>,
    capacity: usize,
    credit_units: f64,
}

impl FragRateEstimator {
    /// An estimator averaging the derivative over the last `window_ticks`
    /// observations (at least 2: a derivative needs two points).
    pub fn new(window_ticks: u64) -> Self {
        FragRateEstimator {
            window: VecDeque::new(),
            capacity: (window_ticks.max(2)) as usize,
            credit_units: 0.0,
        }
    }

    /// Records one per-tick observation of the store's excess fragment
    /// count.  Non-finite observations are ignored (the store's summary can
    /// produce NaN transiently on an empty store).
    pub fn observe(&mut self, excess_fragments: f64) {
        if !excess_fragments.is_finite() {
            return;
        }
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(excess_fragments);
    }

    /// The estimated fragmentation growth rate, in excess fragments per
    /// tick: the windowed mean first difference, clamped at zero.  Returns 0
    /// until two observations have been recorded.
    pub fn rate_per_tick(&self) -> f64 {
        if self.window.len() < 2 {
            return 0.0;
        }
        let first = *self.window.front().expect("len >= 2");
        let last = *self.window.back().expect("len >= 2");
        let span = (self.window.len() - 1) as f64;
        ((last - first) / span).max(0.0)
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// `true` if no observations have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Forgets all observations and accumulated spending credit
    /// (measurement-phase resets).
    pub fn reset(&mut self) {
        self.window.clear();
        self.credit_units = 0.0;
    }

    /// Accrues `units` of background-I/O spending credit, saturating the
    /// bank at `cap_units` (the adaptive policy's integrator; non-finite and
    /// negative accruals are ignored).  The cap is anti-windup: a long
    /// degradation burst must not bank unbounded repair debt, or the policy
    /// keeps paying background I/O long after the store has stabilised and
    /// falls off the fixed-budget latency frontier.
    pub fn accrue_credit(&mut self, units: f64, cap_units: f64) {
        if units.is_finite() && units > 0.0 {
            self.credit_units = (self.credit_units + units).min(cap_units.max(1.0));
        }
    }

    /// Accumulated, not-yet-spent credit in I/O units.
    pub fn credit_units(&self) -> f64 {
        self.credit_units
    }

    /// Withdraws up to `max_units` of accumulated credit **if** at least
    /// `chunk_units` have accrued, returning the whole units withdrawn
    /// (0 otherwise).  Spending in chunks rather than dribbling one unit per
    /// tick is what keeps the adaptive policy's per-byte positioning
    /// overhead comparable to a fixed budget's.
    pub fn take_credit(&mut self, chunk_units: f64, max_units: u64) -> u64 {
        if self.credit_units < chunk_units.max(1.0) {
            return 0;
        }
        let take = self.credit_units.floor().min(max_units.max(1) as f64);
        self.credit_units -= take;
        take as u64
    }
}

/// Tracks how long the store's ghost backlog has been outstanding, for the
/// `SubstrateAware` policy's deferred release.
///
/// The database's eager-cleanup pathology (recorded in EXPERIMENTS.md) is
/// that releasing ghost pages *as they appear* feeds the engine's
/// lowest-first reuse and interleaves objects.  The fix is hysteresis: hold
/// the backlog until it has aged `defer` of **simulated time**, then drain it
/// in bulk and re-arm.  While draining, release stays allowed until the
/// backlog is empty, so a bulk drop is not cut off halfway.
///
/// The deferral is measured on the scheduler's simulated clock rather than
/// in scheduler ticks: the tick rate scales with the request rate under the
/// gap-filling drive, so a tick-counted hold meant a different simulated
/// span at every load, while a time-counted hold is scale-invariant.
#[derive(Debug, Default, Clone, Copy)]
pub struct GhostBacklogClock {
    /// Simulated instant at which the current backlog was first observed.
    since: Option<SimDuration>,
    /// A drain is in progress: keep releasing until the backlog empties.
    draining: bool,
}

impl GhostBacklogClock {
    /// A clock with no backlog observed.
    pub fn new() -> Self {
        GhostBacklogClock::default()
    }

    /// Observes the backlog at simulated instant `now` and decides whether
    /// ghost release is allowed: `backlog_bytes == 0` resets the clock
    /// (nothing to release); otherwise release unlocks once the backlog is
    /// `defer` old and stays unlocked until it drains.
    pub fn release_allowed(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_needs_two_points_and_tracks_growth() {
        let mut est = FragRateEstimator::new(4);
        assert!(est.is_empty());
        assert_eq!(est.rate_per_tick(), 0.0);
        est.observe(1.0);
        assert_eq!(est.rate_per_tick(), 0.0, "one point has no derivative");
        est.observe(2.0);
        assert!((est.rate_per_tick() - 1.0).abs() < 1e-12);
        est.observe(3.0);
        est.observe(4.0);
        assert!((est.rate_per_tick() - 1.0).abs() < 1e-12);
        assert_eq!(est.len(), 4);
        // The window slides: a plateau eventually reads as rate 0.
        for _ in 0..4 {
            est.observe(4.0);
        }
        assert_eq!(est.rate_per_tick(), 0.0);
        est.reset();
        assert!(est.is_empty());
    }

    #[test]
    fn improving_layouts_clamp_to_zero() {
        let mut est = FragRateEstimator::new(3);
        est.observe(5.0);
        est.observe(3.0);
        est.observe(1.0);
        assert_eq!(est.rate_per_tick(), 0.0, "negative derivatives clamp");
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut est = FragRateEstimator::new(3);
        est.observe(f64::NAN);
        est.observe(f64::INFINITY);
        assert!(est.is_empty());
        est.observe(1.0);
        est.observe(2.0);
        assert!(est.rate_per_tick() > 0.0);
    }

    #[test]
    fn credit_accrues_and_spends_in_chunks() {
        let mut est = FragRateEstimator::new(4);
        assert_eq!(est.credit_units(), 0.0);
        // Nothing to withdraw below the chunk threshold.
        est.accrue_credit(3.0, 1024.0);
        assert_eq!(est.take_credit(8.0, 512), 0);
        assert_eq!(est.credit_units(), 3.0);
        // Crossing the threshold releases the accumulated (whole) units.
        est.accrue_credit(6.5, 1024.0);
        assert_eq!(est.take_credit(8.0, 512), 9);
        assert!((est.credit_units() - 0.5).abs() < 1e-12);
        // The anti-windup cap saturates the bank.
        est.accrue_credit(5000.0, 1024.0);
        assert_eq!(est.credit_units(), 1024.0);
        // The per-withdrawal cap binds; the remainder stays banked.
        assert_eq!(est.take_credit(8.0, 512), 512);
        assert_eq!(est.credit_units(), 512.0);
        // Bad accruals are ignored.
        est.accrue_credit(f64::NAN, 1024.0);
        est.accrue_credit(-5.0, 1024.0);
        assert_eq!(est.credit_units(), 512.0);
        // Resets clear the bank.
        est.reset();
        assert_eq!(est.credit_units(), 0.0);
    }

    #[test]
    fn ghost_backlog_clock_defers_then_drains() {
        let ms = SimDuration::from_millis;
        let mut clock = GhostBacklogClock::new();
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
}
