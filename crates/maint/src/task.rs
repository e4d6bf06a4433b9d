//! The target abstraction, the background-I/O record and the task kinds.

use lor_disksim::SimDuration;

/// Background I/O performed by one maintenance action.
///
/// The *target* produces these, because only the target knows its disk
/// geometry: the scheduler itself never guesses mechanical costs, it only
/// budgets bytes and accumulates time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintIo {
    /// Bytes physically transferred by the action (reads plus writes).
    pub bytes: u64,
    /// Mechanical plus host time the action consumed.
    pub time: SimDuration,
}

impl MaintIo {
    /// The no-work value.
    pub const NONE: MaintIo = MaintIo {
        bytes: 0,
        time: SimDuration::ZERO,
    };

    /// Creates a record of `bytes` transferred in `time`.
    pub fn new(bytes: u64, time: SimDuration) -> Self {
        MaintIo { bytes, time }
    }

    /// `true` if the action did nothing.
    pub fn is_none(&self) -> bool {
        self.bytes == 0 && self.time.is_zero()
    }

    /// Component-wise sum.
    pub fn combined(&self, other: &MaintIo) -> MaintIo {
        MaintIo {
            bytes: self.bytes + other.bytes,
            time: self.time + other.time,
        }
    }
}

/// How a substrate reacts to having its reclaimed space released eagerly —
/// the distinction the [`crate::MaintenancePolicy::SubstrateAware`] policy
/// keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintSubstrate {
    /// Deferred-reuse substrates (the NTFS-like volume): freed space is
    /// quarantined until a checkpoint anyway, so eager release is harmless
    /// and gap-filling maintenance may run everything.
    DeferredReuse,
    /// Eager-reuse substrates (the SQL-Server-like engine's lowest-first
    /// page reuse): releasing ghost space the moment it appears feeds the
    /// allocator low-offset holes and *accelerates* interleaving — the
    /// recorded eager-cleanup pathology.  Ghost release should be deferred
    /// and batched.
    EagerReuse,
    /// Append-only log substrates: there is no ghost backlog to release at
    /// all — dead bytes come back one whole segment at a time through the
    /// cleaner, so **cleaning is the only reclamation** and
    /// [`MaintTarget::ghost_cleanup`] is always a no-op.
    LogStructured,
}

/// What a storage substrate must expose to be maintained by the scheduler.
///
/// `lor-core` implements this once, generically, for its `Store` over any of
/// the three substrates (the NTFS-like volume, the SQL-Server-like engine,
/// the segment log): the substrate reports what each duty moved through its
/// native mechanism and the store costs that I/O with its own disk model.
pub trait MaintTarget {
    /// How this substrate reacts to eager space release.  Defaults to
    /// [`MaintSubstrate::DeferredReuse`] (no pathology, nothing to defer);
    /// substrates whose allocator immediately recycles freed space should
    /// override this so the [`crate::MaintenancePolicy::SubstrateAware`]
    /// policy can hold their ghost backlog.
    fn substrate(&self) -> MaintSubstrate {
        MaintSubstrate::DeferredReuse
    }

    /// Bytes of space that a cleanup pass could make reusable (ghost pages
    /// for the database, pending-free clusters for the filesystem).
    fn reclaimable_bytes(&self) -> u64;

    /// Current mean fragments per live object (the paper's headline metric),
    /// consulted by threshold policies.
    fn fragments_per_object(&self) -> f64;

    /// Reclaims ghost space (the database's asynchronous ghost cleanup; a
    /// no-op for substrates whose reclamation happens at checkpoint),
    /// transferring at most about `budget_bytes` of background I/O — a large
    /// backlog is drained over several budgeted passes.
    fn ghost_cleanup(&mut self, budget_bytes: u64) -> MaintIo;

    /// Flushes the log / checkpoints, making deferred-freed space reusable.
    ///
    /// A log force is atomic, so this action is exempt from per-tick
    /// budgeting; its cost is bounded by the checkpoint cadence (only the
    /// work deferred since the previous checkpoint is released).
    fn checkpoint(&mut self) -> MaintIo;

    /// Runs one bounded increment of defragmentation, transferring at most
    /// about `budget_bytes` of background I/O.  Returns [`MaintIo::NONE`]
    /// when the layout is already as good as the substrate can make it.
    fn defragment_step(&mut self, budget_bytes: u64) -> MaintIo;
}

/// The maintenance duties of the scheduler's queue, in queue order (used to
/// attribute statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Log flush / checkpoint, releasing deferred frees.
    Checkpoint,
    /// Ghost-page reclamation.
    GhostCleanup,
    /// Incremental defragmentation.
    Defrag,
}

impl TaskKind {
    /// Short, stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Checkpoint => "checkpoint",
            TaskKind::GhostCleanup => "ghost-cleanup",
            TaskKind::Defrag => "defrag",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maint_io_combines_and_detects_no_work() {
        let a = MaintIo::new(100, SimDuration::from_millis(1));
        let b = MaintIo::new(50, SimDuration::from_millis(2));
        let c = a.combined(&b);
        assert_eq!(c.bytes, 150);
        assert_eq!(c.time, SimDuration::from_millis(3));
        assert!(MaintIo::NONE.is_none());
        assert!(!a.is_none());
    }
}
