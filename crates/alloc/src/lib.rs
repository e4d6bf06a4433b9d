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
//! * One cluster allocator, [`SelectableAllocator`]: a free-space map and
//!   the one loop that carves runs off it until a request is met (or rolls
//!   back).  Policy is kept separate from that mechanism, as the malloc
//!   survey the paper cites recommends — it only answers *which run next*:
//!   the NTFS-style run cache (extension, outer band, largest run) or one of
//!   the classic fits ([`FitPolicy`], applied through [`FitPicker`], which
//!   `lor-blobkit` also uses at extent and page granularity).
//! * The substrate-independent policy knobs — [`AllocationPolicy`] (which
//!   free run a request is carved from) and [`PlacementPolicy`] (which
//!   *region* of the space each consumer may draw from, separating
//!   foreground writes from maintenance relocation) — through which both the
//!   filesystem and database substrates expose those choices to experiments.
//! * Fragmentation metrics: [`FragmentationSummary`] (fragments per object,
//!   the paper's y-axis) and [`FreeSpaceReport`] (free-run histogram,
//!   external fragmentation).
//! * [`IdTable`]: the record table of both substrates — a slab of records
//!   found through a windowed direct index by their ascending, never-reused
//!   ids, iterated in id order.
//!
//! ## Example
//!
//! ```
//! use lor_alloc::{
//!     AllocRequest, AllocationPolicy, Extent, ExtentListExt, PlacementConsumer,
//!     SelectableAllocator,
//! };
//!
//! // `Native` is the NTFS-style run cache; `Fit(..)` swaps the pick, nothing else.
//! let mut allocator = SelectableAllocator::new(AllocationPolicy::Native, 10_000);
//!
//! // Appending in write-request-sized chunks with an extension hint keeps a
//! // file contiguous — exactly what NTFS does for detected sequential appends.
//! let mut file: Vec<Extent> = Vec::new();
//! for _ in 0..4 {
//!     let mut request = AllocRequest::best_effort(16);
//!     request.hint = file.last().map(|last| last.end());
//!     allocator
//!         .allocate_into(&request, PlacementConsumer::Foreground, &mut file)
//!         .unwrap();
//! }
//! assert_eq!(file.fragment_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod extent;
mod freespace;
mod idtable;
mod metrics;
mod placement;
mod policy;
mod runcache;
mod select;
mod tracker;

pub use error::AllocError;
pub use extent::{Extent, ExtentListExt};
pub use freespace::{BitmapMap, FreeSpace, RunIndexMap};
pub use idtable::IdTable;
pub use metrics::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
pub use placement::{PlacementConsumer, PlacementPolicy};
pub use policy::{AllocRequest, AllocationPolicy, Contiguity, FitPicker, FitPolicy};
pub use select::SelectableAllocator;
pub use tracker::{CountMultiset, FragmentationTracker};
