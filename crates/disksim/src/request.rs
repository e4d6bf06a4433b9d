//! I/O request descriptions handed to the disk model.
//!
//! Upper layers (the filesystem and database simulators) describe each
//! operation as a list of physically contiguous byte runs ([`ByteRun`]).  A
//! fragmented object therefore naturally turns into a multi-segment request,
//! and the disk model charges one mechanical positioning delay per
//! discontiguity.

use serde::{Deserialize, Serialize};

/// Whether a request reads or writes the media.
///
/// The mechanical cost model is symmetric; the distinction exists so that
/// statistics can be reported separately and so future extensions (e.g. write
/// caching) have a place to hook in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Data is read from the platters.
    Read,
    /// Data is written to the platters.
    Write,
}

impl AccessKind {
    /// Lowercase label used in statistics and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }
}

/// A physically contiguous run of bytes on the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ByteRun {
    /// Byte offset of the first byte of the run.
    pub offset: u64,
    /// Length of the run in bytes.
    pub len: u64,
}

impl ByteRun {
    /// Creates a run covering `len` bytes starting at `offset`.
    pub const fn new(offset: u64, len: u64) -> Self {
        ByteRun { offset, len }
    }

    /// Byte offset one past the end of the run.
    pub const fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// `true` if the run covers no bytes.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `other` begins exactly where `self` ends.
    pub const fn is_followed_by(&self, other: &ByteRun) -> bool {
        self.end() == other.offset
    }
}

/// One I/O operation: an access kind plus the physical runs it touches, in
/// the order the host will transfer them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRequest {
    /// Read or write.
    pub kind: AccessKind,
    /// Physical byte runs in transfer order.  Empty runs are permitted and
    /// ignored by the disk model.
    pub segments: Vec<ByteRun>,
}

impl IoRequest {
    /// Creates a request from explicit segments.
    pub fn new(kind: AccessKind, segments: Vec<ByteRun>) -> Self {
        IoRequest { kind, segments }
    }

    /// Creates a single-segment read.
    pub fn read(offset: u64, len: u64) -> Self {
        IoRequest {
            kind: AccessKind::Read,
            segments: vec![ByteRun::new(offset, len)],
        }
    }

    /// Creates a single-segment write.
    pub fn write(offset: u64, len: u64) -> Self {
        IoRequest {
            kind: AccessKind::Write,
            segments: vec![ByteRun::new(offset, len)],
        }
    }

    /// Creates a multi-segment read over the given runs.
    pub fn read_runs(runs: impl IntoIterator<Item = ByteRun>) -> Self {
        IoRequest {
            kind: AccessKind::Read,
            segments: runs.into_iter().collect(),
        }
    }

    /// Creates a multi-segment write over the given runs.
    pub fn write_runs(runs: impl IntoIterator<Item = ByteRun>) -> Self {
        IoRequest {
            kind: AccessKind::Write,
            segments: runs.into_iter().collect(),
        }
    }

    /// Total number of bytes transferred by the request.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Number of non-empty segments.
    pub fn fragment_count(&self) -> usize {
        self.segments.iter().filter(|s| !s.is_empty()).count()
    }

    /// The segments the disk sees — what [`IoRequest::coalesced`] lists:
    /// empty runs dropped, a run that begins where its predecessor ends
    /// folded into it — formed on the fly, so costing or counting them
    /// copies nothing.
    pub fn merged_segments(&self) -> impl Iterator<Item = ByteRun> + '_ {
        let mut runs = self
            .segments
            .iter()
            .filter(|run| !run.is_empty())
            .peekable();
        std::iter::from_fn(move || {
            let mut segment = *runs.next()?;
            while let Some(run) = runs.next_if(|run| segment.is_followed_by(run)) {
                segment.len += run.len;
            }
            Some(segment)
        })
    }

    /// `true` if the request transfers no bytes.
    pub fn is_empty(&self) -> bool {
        self.total_bytes() == 0
    }

    /// Merges physically adjacent segments, preserving transfer order.
    ///
    /// The simulators build requests extent-by-extent; when two extents happen
    /// to be adjacent on disk the transfer is mechanically one sequential run,
    /// so collapsing them gives the disk model an accurate picture.
    pub fn coalesced(&self) -> IoRequest {
        let mut segments: Vec<ByteRun> = Vec::with_capacity(self.segments.len());
        for run in self.segments.iter().filter(|r| !r.is_empty()) {
            match segments.last_mut() {
                Some(last) if last.is_followed_by(run) => last.len += run.len,
                _ => segments.push(*run),
            }
        }
        IoRequest {
            kind: self.kind,
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_run_basics() {
        let run = ByteRun::new(100, 50);
        assert_eq!(run.end(), 150);
        assert!(!run.is_empty());
        assert!(run.is_followed_by(&ByteRun::new(150, 10)));
        assert!(!run.is_followed_by(&ByteRun::new(151, 10)));
        assert!(ByteRun::new(5, 0).is_empty());
    }

    #[test]
    fn request_totals_and_fragments() {
        let req = IoRequest::read_runs([
            ByteRun::new(0, 4096),
            ByteRun::new(8192, 4096),
            ByteRun::new(0, 0),
        ]);
        assert_eq!(req.total_bytes(), 8192);
        assert_eq!(req.fragment_count(), 2);
        assert!(!req.is_empty());
        assert!(IoRequest::read_runs([]).is_empty());
    }

    #[test]
    fn coalescing_merges_adjacent_runs_only() {
        let req = IoRequest::write_runs([
            ByteRun::new(0, 10),
            ByteRun::new(10, 10),
            ByteRun::new(30, 10),
            ByteRun::new(40, 0),
            ByteRun::new(40, 5),
        ]);
        let merged = req.coalesced();
        // The empty run is dropped, so (30, 10) and (40, 5) are physically
        // adjacent and merge as well.
        assert_eq!(
            merged.segments,
            vec![ByteRun::new(0, 20), ByteRun::new(30, 15)]
        );
        assert_eq!(merged.total_bytes(), req.total_bytes());
        assert_eq!(merged.kind, AccessKind::Write);
        assert_eq!(req.merged_segments().collect::<Vec<_>>(), merged.segments);
    }

    #[test]
    fn coalescing_does_not_reorder() {
        // Out-of-order (backwards) runs must not be merged even if adjacent in
        // address space, because the head really has to move back.
        let req = IoRequest::read_runs([ByteRun::new(100, 10), ByteRun::new(0, 10)]);
        let merged = req.coalesced();
        assert_eq!(merged.segments.len(), 2);
    }
}
