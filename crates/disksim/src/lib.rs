//! # lor-disksim — a deterministic rotating-disk service-time model
//!
//! This crate is the hardware substrate of the CIDR 2007 *Fragmentation in
//! Large Object Repositories* reproduction.  The paper measured NTFS and SQL
//! Server on one 2005-era 400 GB 7200 rpm SATA drive (Table 1); here the drive
//! is replaced by a model of that one drive — its geometry, zone table, seek
//! curve and overheads are constants, and a [`DiskConfig`] chooses only how
//! much of it to use — that charges, per I/O request:
//!
//! * a **seek** whose duration follows a piecewise (√distance, then linear)
//!   curve over model cylinders,
//! * an expected **rotational latency** of half a revolution for any
//!   non-sequential access,
//! * a **media transfer** time determined by the zoned-bit-recording zone the
//!   data lives in (outer zones are faster), and
//! * fixed **command overheads** per request and per discontiguous segment.
//!
//! Because fragmentation costs are precisely "extra seeks plus lost
//! sequential bandwidth", this cost structure is all the paper's experiments
//! need from the hardware; absolute numbers differ from the authors' testbed
//! but the relative behaviour (who wins, where curves cross) is preserved.
//!
//! ## Example
//!
//! ```
//! use lor_disksim::{Disk, DiskConfig, IoRequest, ByteRun};
//!
//! // A 40 GB slice of the paper's 400 GB drive.
//! let mut disk = Disk::new(DiskConfig::seagate_400gb_2005().scaled(40_000_000_000));
//!
//! // A contiguous 1 MB object: one positioning delay, then streaming.
//! let contiguous = disk.estimate(&IoRequest::read(0, 1 << 20));
//!
//! // The same object split into four scattered fragments.
//! let fragmented = disk.estimate(&IoRequest::read_runs([
//!     ByteRun::new(0, 256 << 10),
//!     ByteRun::new(10_000_000_000, 256 << 10),
//!     ByteRun::new(20_000_000_000, 256 << 10),
//!     ByteRun::new(30_000_000_000, 256 << 10),
//! ]));
//!
//! assert!(fragmented.total() > contiguous.total());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod disk;
mod memo;
mod request;
mod stats;
mod time;

pub use config::DiskConfig;
pub use disk::{Disk, Served, ServiceTime};
pub use request::{merged, AccessKind, ByteRun, IoRequest};
pub use stats::{DirectionStats, DiskStats};
pub use time::{throughput_bytes_per_sec, throughput_mb_per_sec, SimClock, SimDuration};
