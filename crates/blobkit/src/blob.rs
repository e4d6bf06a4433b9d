//! BLOB records: the layout of each stored object.
//!
//! SQL Server stores large out-of-row values as a tree of text/image pages
//! (the Exodus design the paper cites).  For fragmentation purposes what
//! matters is *where the object's bytes sit on disk, in logical order*; the
//! tree's interior nodes are small and cached.  The engine allocates, frees
//! and reads in runs of physically consecutive pages, so that is how a
//! record keeps its layout: as a [`RunList`], the maximal page runs in
//! logical order, rather than one entry per 8 KB page.  A 1 MB object is 130
//! pages but — even badly aged — a few dozen runs, and every question the
//! engine asks of a layout is a question about runs: the fragment count is
//! the number of runs, a read or write receipt is one byte run per page run,
//! ghosting or freeing a version hands the runs over as they are.  A run is
//! stored in 8 bytes, not as a 16-byte [`Extent`] ([`RunList`]).

use lor_alloc::{Extent, Name, RunList};
use lor_disksim::ByteRun;

use crate::page::{self, PageId};

/// Identifier of a stored BLOB.  Never reused within the lifetime of an
/// engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobId(pub u64);

impl From<u64> for BlobId {
    fn from(number: u64) -> Self {
        BlobId(number)
    }
}

impl From<BlobId> for u64 {
    fn from(id: BlobId) -> u64 {
        id.0
    }
}

impl std::fmt::Display for BlobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blob#{}", self.0)
    }
}

/// One stored object: its key, logical size, and leaf page layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobRecord {
    /// Stable identifier.
    pub id: BlobId,
    /// Application key (the metadata table's clustered-index key).  Its
    /// bytes live in the record itself unless it is longer than
    /// [`Name::INLINE`].
    pub key: Name,
    /// Logical size in bytes.
    pub size_bytes: u64,
    /// Leaf pages in logical order, as maximal physical runs.
    layout: RunList,
    /// The fragment count the engine's compaction-candidate index holds
    /// this record under (0 or 1: it holds no entry).  Behind the layout's
    /// own count while the record is `stale`.
    pub(crate) indexed: u64,
    /// `true` while the record's id sits on the engine's stale list, waiting
    /// for a compactor to bring `indexed` up to date.
    pub(crate) stale: bool,
}

impl BlobRecord {
    /// Creates a record for a freshly inserted object.
    pub fn new(id: BlobId, key: impl Into<Name>, size_bytes: u64, layout: RunList) -> Self {
        BlobRecord {
            id,
            key: key.into(),
            size_bytes,
            layout,
            indexed: 0,
            stale: false,
        }
    }

    /// Installs a new version's layout, returning the one it replaces.  The
    /// engine builds a version in a reused buffer and installs an exact-size
    /// copy of it, so a stored layout holds no spare capacity for the life
    /// of the version.
    pub(crate) fn replace_layout(&mut self, layout: RunList) -> RunList {
        std::mem::replace(&mut self.layout, layout)
    }

    /// The object's leaf pages as physically contiguous runs, in logical
    /// order.
    pub fn layout(&self) -> &RunList {
        &self.layout
    }

    /// The page runs of [`BlobRecord::layout`], in logical order.
    #[inline]
    pub fn runs(&self) -> impl ExactSizeIterator<Item = Extent> + Clone + '_ {
        self.layout.runs()
    }

    /// The leaf pages in logical order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        page::pages(&self.layout)
    }

    /// Number of physically discontiguous page runs (1 = contiguous).
    #[inline]
    pub fn fragment_count(&self) -> usize {
        self.layout.fragment_count()
    }

    /// Number of leaf pages.
    #[inline]
    pub fn page_count(&self) -> u64 {
        self.layout.units()
    }

    /// The byte runs a sequential scan of the object's leaf pages touches.
    ///
    /// Whole pages are transferred (the engine reads pages, not payload
    /// bytes), so the total transferred exceeds `size_bytes` by the page
    /// header/packing overhead — one of the streaming-rate disadvantages the
    /// folklore attributes to databases.
    pub fn byte_runs(&self, page_size: u64, base_offset: u64) -> Vec<ByteRun> {
        page::byte_runs(&self.layout, page_size, base_offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layout of `runs`, appended in order.
    fn layout(runs: &[Extent]) -> RunList {
        runs.iter().copied().collect()
    }

    #[test]
    fn fragment_and_page_counts() {
        let record = BlobRecord::new(
            BlobId(1),
            "k",
            100,
            layout(&[Extent::new(10, 2), Extent::new(20, 3)]),
        );
        assert_eq!(
            record.runs().collect::<Vec<_>>(),
            [Extent::new(10, 2), Extent::new(20, 3)]
        );
        assert_eq!(record.pages().count(), 5);
        assert_eq!(record.page_count(), 5);
        assert_eq!(record.fragment_count(), 2);
        assert_eq!(BlobId(1).to_string(), "blob#1");
    }

    #[test]
    fn byte_runs_cover_whole_pages() {
        let record = BlobRecord::new(
            BlobId(1),
            "k",
            10_000,
            layout(&[Extent::new(2, 2), Extent::new(9, 1)]),
        );
        let runs = record.byte_runs(8192, 1_000_000);
        assert_eq!(
            runs,
            vec![
                ByteRun::new(1_000_000 + 2 * 8192, 2 * 8192),
                ByteRun::new(1_000_000 + 9 * 8192, 8192)
            ]
        );
        let transferred: u64 = runs.iter().map(|r| r.len).sum();
        assert!(
            transferred >= record.size_bytes,
            "page reads cover at least the payload"
        );
    }

    #[test]
    fn empty_blob_has_no_runs() {
        let record = BlobRecord::new(BlobId(1), "k", 0, RunList::new());
        assert_eq!(record.fragment_count(), 0);
        assert!(record.byte_runs(8192, 0).is_empty());
    }
}
