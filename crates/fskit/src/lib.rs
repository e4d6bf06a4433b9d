//! # lor-fskit — an NTFS-like filesystem simulator
//!
//! One of the two storage substrates measured by the CIDR 2007 paper is NTFS
//! holding one file per application object, updated with safe writes.  This
//! crate reproduces the allocation behaviour the paper attributes to NTFS,
//! without reproducing NTFS itself:
//!
//! * extent-based files whose space is allocated **as data is appended**, in
//!   write-request-sized chunks, before the final size is known;
//! * a run-cache allocation policy that prefers the outer band and large free
//!   runs, extends detected sequential appends, and fragments files only as a
//!   last resort;
//! * deletion that defers reuse of freed space until the transaction log
//!   commits ([`Volume::checkpoint`]);
//! * safe writes (temporary file + atomic replace), the update protocol the
//!   paper's workload uses;
//! * an online per-file [`Defragmenter`], driven in bounded steps;
//! * the paper's proposed interface extension — declaring an object's final
//!   size at creation ([`Volume::write_file_preallocated`]).
//!
//! ## Example
//!
//! ```
//! use lor_fskit::{Volume, VolumeConfig};
//!
//! let mut volume = Volume::format(VolumeConfig::new(256 << 20)).unwrap();
//! let receipt = volume.write_file("photo-0001.jpg", 1 << 20, 64 << 10).unwrap();
//!
//! // On a clean volume sequential appends stay contiguous.
//! assert_eq!(volume.file(receipt.file_id).unwrap().fragment_count(), 1);
//!
//! // Overwrite it atomically, as the paper's workload does.
//! volume.safe_write("photo-0001.jpg", 1 << 20, 64 << 10).unwrap();
//! assert_eq!(volume.file_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod defrag;
mod error;
mod file;
mod volume;

pub use defrag::{DefragCursor, DefragReport, Defragmenter};
pub use error::FsError;
pub use file::{FileId, FileRecord};
pub use volume::{Volume, VolumeConfig, VolumeStats, WriteReceipt};
