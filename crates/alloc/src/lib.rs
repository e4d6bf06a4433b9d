//! # lor-alloc — extent and free-space allocation substrate
//!
//! The filesystem simulator (`lor-fskit`) and the database storage engine
//! (`lor-blobkit`) both need to place variable-sized allocations onto a flat
//! cluster space and to measure how fragmented the result is.  This crate
//! provides that shared substrate:
//!
//! * [`Extent`] and helpers over extent lists ([`ExtentListExt`]).
//! * Free-space structures: the run-indexed [`RunIndexMap`] (memory is
//!   proportional to fragmentation, not volume size) and the exhaustive
//!   [`BitmapMap`] oracle used in tests.
//! * Allocation policies, kept separate from the mechanism as the malloc
//!   survey the paper cites recommends: the classic fits
//!   ([`FitPolicy`] / [`PolicyAllocator`]) and the NTFS-style
//!   [`RunCacheAllocator`].
//! * The substrate-independent policy knobs — [`AllocationPolicy`] (which
//!   free run a request is carved from) and [`PlacementPolicy`] (which
//!   *region* of the space each consumer may draw from, separating
//!   foreground writes from maintenance relocation) — and the
//!   policy-selected allocator ([`SelectableAllocator`]) through which both
//!   the filesystem and database substrates expose those knobs to
//!   experiments.
//! * Fragmentation metrics: [`FragmentationSummary`] (fragments per object,
//!   the paper's y-axis) and [`FreeSpaceReport`] (free-run histogram,
//!   external fragmentation).
//!
//! ## Example
//!
//! ```
//! use lor_alloc::{AllocRequest, Allocator, ExtentListExt, RunCacheAllocator};
//!
//! let mut allocator = RunCacheAllocator::new(10_000);
//!
//! // Appending in write-request-sized chunks with an extension hint keeps a
//! // file contiguous — exactly what NTFS does for detected sequential appends.
//! let mut file = allocator.allocate(&AllocRequest::best_effort(16)).unwrap();
//! for _ in 0..3 {
//!     let hint = file.last().unwrap().end();
//!     file.extend(allocator.allocate(&AllocRequest::best_effort(16).with_hint(hint)).unwrap());
//! }
//! assert_eq!(file.fragment_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod extent;
mod freespace;
mod metrics;
mod placement;
mod policy;
mod runcache;
mod select;
mod tracker;

pub use error::AllocError;
pub use extent::{Extent, ExtentListExt};
pub use freespace::{BitmapMap, FreeSpace, RunIndexMap};
pub use metrics::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
pub use placement::{PlacementConsumer, PlacementPolicy};
pub use policy::{
    AllocRequest, AllocationPolicy, Allocator, Contiguity, FitPicker, FitPolicy, PolicyAllocator,
};
pub use runcache::RunCacheAllocator;
pub use select::SelectableAllocator;
pub use tracker::{CountMultiset, FragmentationTracker};
