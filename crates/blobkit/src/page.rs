//! Pages and extents: the database engine's units of space.
//!
//! Following SQL Server's layout, the data file is an array of 8 KB pages
//! grouped into extents of 8 pages (64 KB).  BLOB data lives on dedicated
//! LOB pages whose payload is slightly smaller than the page (headers,
//! record overhead), which is one of the reasons a database BLOB occupies a
//! little more disk than the same object stored as a file.
//!
//! Pages and extents are the units of *addressing*; the unit the engine
//! stores and moves is the **run** of consecutive pages ([`PageRuns`]).

use lor_alloc::Extent;
use lor_disksim::ByteRun;
use serde::{Deserialize, Serialize};

/// Pages per extent (SQL Server: 8).
pub const PAGES_PER_EXTENT: u64 = 8;

/// Identifier of a page within the data file (zero-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(pub u64);

impl PageId {
    /// The extent this page belongs to.
    pub const fn extent(self) -> ExtentId {
        ExtentId(self.0 / PAGES_PER_EXTENT)
    }

    /// Position of the page within its extent (`0..PAGES_PER_EXTENT`).
    pub const fn slot_in_extent(self) -> u64 {
        self.0 % PAGES_PER_EXTENT
    }

    /// `true` if `other` is the page physically following `self`.
    pub const fn is_followed_by(self, other: PageId) -> bool {
        other.0 == self.0 + 1
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page:{}", self.0)
    }
}

/// Identifier of an extent (group of [`PAGES_PER_EXTENT`] pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ExtentId(pub u64);

impl ExtentId {
    /// First page of the extent.
    pub const fn first_page(self) -> PageId {
        PageId(self.0 * PAGES_PER_EXTENT)
    }

    /// Iterator over the pages of the extent.
    pub fn pages(self) -> impl Iterator<Item = PageId> {
        (0..PAGES_PER_EXTENT).map(move |slot| PageId(self.0 * PAGES_PER_EXTENT + slot))
    }
}

impl std::fmt::Display for ExtentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "extent:{}", self.0)
    }
}

/// What a page is used for.  Only the distinctions the experiments need are
/// modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageKind {
    /// Out-of-row BLOB data (SQL Server `LOB_DATA`).
    LobData,
    /// Clustered-index rows of the metadata table (`IN_ROW_DATA`).
    RowData,
    /// Allocation metadata (GAM/IAM), charged to the engine itself.
    AllocationMap,
}

/// A BLOB's physical layout: its pages as contiguous runs, in logical order.
///
/// Appending merges a run into its predecessor when it begins exactly where
/// the predecessor ends, so the list always holds the *maximal* runs a scan
/// of the object's pages in logical order would find: the number of runs is
/// the object's fragment count, and each run is one disk transfer.  Only
/// forward adjacency merges — a run that physically precedes its logical
/// predecessor is a seek, hence a fragment of its own.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageRuns {
    /// Non-empty runs in page units; no run starts where the previous ends.
    runs: Vec<Extent>,
    /// Total pages covered (the sum of the run lengths).
    pages: u64,
}

impl PageRuns {
    /// An empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// The layout of `pages` taken in logical order.
    pub fn from_pages(pages: impl IntoIterator<Item = PageId>) -> Self {
        let mut layout = PageRuns::new();
        for page in pages {
            layout.push(Extent::new(page.0, 1));
        }
        layout
    }

    /// Appends a run of pages at the logical end of the layout.
    pub fn push(&mut self, run: Extent) {
        if run.is_empty() {
            return;
        }
        self.pages += run.len;
        match self.runs.last_mut() {
            Some(last) if last.is_followed_by(&run) => last.len += run.len,
            _ => self.runs.push(run),
        }
    }

    /// Gives back the spare capacity appends left behind; a committed layout
    /// never grows again.
    pub fn shrink_to_fit(&mut self) {
        self.runs.shrink_to_fit();
    }

    /// The runs in logical order.
    pub fn runs(&self) -> &[Extent] {
        &self.runs
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Number of physically discontiguous runs — the database-side
    /// equivalent of a file's fragment count (0 = empty, 1 = contiguous).
    pub fn fragment_count(&self) -> usize {
        self.runs.len()
    }

    /// `true` if the layout covers no pages.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The pages in logical order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.runs
            .iter()
            .flat_map(|run| (run.start..run.end()).map(PageId))
    }

    /// The byte runs a sequential scan of the layout touches: one per page
    /// run, whole pages, for a data file starting at `base_offset`.
    pub fn byte_runs(&self, page_size: u64, base_offset: u64) -> Vec<ByteRun> {
        self.runs
            .iter()
            .map(|run| ByteRun::new(base_offset + run.start * page_size, run.len * page_size))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_extent_mapping() {
        assert_eq!(PageId(0).extent(), ExtentId(0));
        assert_eq!(PageId(7).extent(), ExtentId(0));
        assert_eq!(PageId(8).extent(), ExtentId(1));
        assert_eq!(PageId(17).slot_in_extent(), 1);
        assert_eq!(ExtentId(2).first_page(), PageId(16));
        let pages: Vec<PageId> = ExtentId(1).pages().collect();
        assert_eq!(pages.len(), PAGES_PER_EXTENT as usize);
        assert_eq!(pages[0], PageId(8));
        assert_eq!(pages[7], PageId(15));
    }

    #[test]
    fn adjacency() {
        assert!(PageId(5).is_followed_by(PageId(6)));
        assert!(!PageId(5).is_followed_by(PageId(7)));
        assert!(!PageId(5).is_followed_by(PageId(5)));
    }

    fn fragments_of(pages: &[u64]) -> usize {
        PageRuns::from_pages(pages.iter().copied().map(PageId)).fragment_count()
    }

    #[test]
    fn fragment_counting() {
        assert_eq!(fragments_of(&[]), 0);
        assert_eq!(fragments_of(&[3]), 1);
        assert_eq!(fragments_of(&[3, 4, 5]), 1);
        assert_eq!(fragments_of(&[3, 5, 6]), 2);
        assert_eq!(fragments_of(&[9, 3, 4]), 2);
        // Backward adjacency is a seek, not a continuation.
        assert_eq!(fragments_of(&[4, 3]), 2);
    }

    #[test]
    fn run_grouping() {
        let pages = [3, 4, 10, 11, 12, 2].map(PageId);
        let layout = PageRuns::from_pages(pages);
        assert_eq!(
            layout.runs(),
            [Extent::new(3, 2), Extent::new(10, 3), Extent::new(2, 1)]
        );
        assert_eq!(layout.page_count(), 6);
        assert_eq!(layout.pages().collect::<Vec<_>>(), pages);
        assert!(PageRuns::new().is_empty());
    }

    #[test]
    fn appended_runs_merge_only_with_their_logical_predecessor() {
        let mut layout = PageRuns::new();
        layout.push(Extent::new(8, 4));
        layout.push(Extent::new(12, 0));
        layout.push(Extent::new(12, 2));
        layout.push(Extent::new(20, 1));
        layout.push(Extent::new(14, 1));
        assert_eq!(
            layout.runs(),
            [Extent::new(8, 6), Extent::new(20, 1), Extent::new(14, 1)]
        );
        assert_eq!(layout.page_count(), 8);
        assert_eq!(
            layout.byte_runs(8192, 100),
            vec![
                ByteRun::new(100 + 8 * 8192, 6 * 8192),
                ByteRun::new(100 + 20 * 8192, 8192),
                ByteRun::new(100 + 14 * 8192, 8192)
            ]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(PageId(4).to_string(), "page:4");
        assert_eq!(ExtentId(9).to_string(), "extent:9");
    }
}
