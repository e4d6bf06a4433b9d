//! The ghost-backlog clock behind the `SubstrateAware` policy's deferred
//! release.

use lor_disksim::SimDuration;

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
