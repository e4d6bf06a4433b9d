//! An append-only, segment-based log substrate for large objects.
//!
//! The paper brackets the design space with an update-in-place filesystem
//! (`lor-fskit`) and a page-oriented database (`lor-blobkit`).  This crate
//! adds the third classic point: a log-structured store in the style of
//! Rosenblum & Ousterhout's LFS.  The volume is carved into fixed-size
//! **segments**; every write — insert, update, or cleaner copy — appends
//! head-first into an open segment, and an update simply *deadens* the old
//! version's extents where they lie.  Nothing is ever overwritten in place,
//! so free space only ever comes back one whole segment at a time:
//! **cleaning is the only reclamation**.
//!
//! The cleaner picks victim segments by Rosenblum's cost-benefit score
//! (`free · age / (1 + utilization)`, [`CleanerSelector::CostBenefit`]) or by
//! plain lowest utilization ([`CleanerSelector::Greedy`]), and copies the
//! survivors out through the allocator's *maintenance* placement consumer, so
//! `Banded` and `Reserve` placement policies from `lor-alloc` constrain the
//! cleaner exactly as they constrain the other substrates' defragmenters.
//! An allocation-pressure emergency path (the log would otherwise wedge when
//! the free pool runs dry) vacates the single best victim through the
//! *foreground* head instead — survivors interleave with incoming writes,
//! which is precisely how an uncleaned log accretes fragmentation with age.
//!
//! Finding that victim is what an aged log does most — every append that
//! meets a dry free pool asks for one — so the log keeps a **summary** over
//! fixed blocks of segments (per block, the least `live` and the oldest
//! `youngest_seq` among its cleanable segments) and scores only the blocks
//! whose bound could hold the winner.  The summary is exact, the victim is
//! the full scan's victim for every input, and the worst case is the scan
//! plus one bound per block; the argument is in `log.rs`'s module docs, the
//! check in [`SegmentLog::verify`], which recomputes every invariant the log
//! caches and which debug builds run after every vacate, rewrite and failed
//! append.
//!
//! The crate is deliberately substrate-only: it does no I/O costing and knows
//! nothing about disks or clocks.  `lor-core` wraps a [`SegmentLog`] into an
//! `ObjectStore` and charges the simulated drive for every append, read span,
//! and cleaner copy.

mod config;
mod log;

pub use config::{CleanerSelector, LogConfig, DEFAULT_SEGMENT_BYTES, MIN_SEGMENT_BYTES};
pub use log::{AppendOutcome, CleanReport, LogError, SegmentLog, SegmentStats, Selection};
