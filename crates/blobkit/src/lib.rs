//! # lor-blobkit — a SQL-Server-like BLOB storage engine simulator
//!
//! The second storage substrate measured by the CIDR 2007 paper is SQL Server
//! 2005 storing application objects as out-of-row BLOBs in bulk-logged mode.
//! This crate reproduces the storage-engine mechanics the paper holds
//! responsible for the database's fragmentation behaviour:
//!
//! * an 8 KB-page / 64 KB-extent data file with GAM/IAM-style space
//!   management ([`Gam`], [`AllocationUnit`]);
//! * out-of-row BLOB storage as ordered leaf-page layouts ([`BlobRecord`],
//!   the Exodus-style design the paper cites), kept as maximal page runs
//!   (`lor-alloc`'s [`RunList`](lor_alloc::RunList), the layout the
//!   volume's files keep too) — the unit every layer below the key-value
//!   API moves.  A run is stored in 8 bytes, a 32-bit page number and a
//!   32-bit length, in the layouts and in the ghost backlog alike: these
//!   are the structures that grow with fragmentation, and [`EngineConfig`]
//!   refuses a data file of more than 2³² − 1 pages (32 TiB of 8 KB pages,
//!   88 times the paper's 400 GB disk), so no run can be truncated;
//! * a clustered metadata table whose rows stay small and cached;
//! * wholesale-replacement updates whose old versions become ghosts, cleaned
//!   up asynchronously, after which their pages — reused lowest-first —
//!   gradually interleave objects and drive the near-linear growth of
//!   fragments per object the paper measures (Figure 2);
//! * the recommended defragmentation procedure: copying the table into a new
//!   filegroup ([`Database::rebuild_into_new_filegroup`]).
//!
//! ## Example
//!
//! ```
//! use lor_blobkit::{Database, EngineConfig};
//!
//! let mut db = Database::create(EngineConfig::new(256 << 20)).unwrap();
//! db.insert("photo-0001", 1 << 20).unwrap();
//!
//! // A bulk-loaded BLOB is laid out contiguously...
//! assert_eq!(db.get("photo-0001").unwrap().fragment_count(), 1);
//!
//! // ...and wholesale replacement is the BLOB analogue of a safe write.
//! db.update("photo-0001", 1 << 20).unwrap();
//! assert_eq!(db.object_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod allocation;
mod blob;
mod engine;
mod error;
mod page;

pub use allocation::{AllocationUnit, Gam};
pub use blob::{BlobId, BlobRecord};
pub use engine::{CompactReport, Database, DbWriteReceipt, EngineConfig, EngineStats};
pub use error::DbError;
pub use page::{ExtentId, PageId, PageKind, PAGES_PER_EXTENT};
