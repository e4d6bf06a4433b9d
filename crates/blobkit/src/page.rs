//! Pages and extents: the database engine's units of space.
//!
//! Following SQL Server's layout, the data file is an array of 8 KB pages
//! grouped into extents of 8 pages (64 KB).  BLOB data lives on dedicated
//! LOB pages whose payload is slightly smaller than the page (headers,
//! record overhead), which is one of the reasons a database BLOB occupies a
//! little more disk than the same object stored as a file.
//!
//! Pages and extents are the units of *addressing*; the unit the engine
//! stores and moves is the **run** of consecutive pages, and a layout is a
//! [`RunList`] of them, 8 bytes a run, as a file's is.  [`PageId`] and
//! [`ExtentId`] stay 64-bit: they name pages, they are not stored per
//! fragment.

use lor_alloc::RunList;
use lor_disksim::ByteRun;

/// Pages per extent (SQL Server: 8).
pub const PAGES_PER_EXTENT: u64 = 8;

/// Identifier of a page within the data file (zero-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Out-of-row BLOB data (SQL Server `LOB_DATA`).
    LobData,
    /// Clustered-index rows of the metadata table (`IN_ROW_DATA`).
    RowData,
    /// Allocation metadata (GAM/IAM), charged to the engine itself.
    AllocationMap,
}

/// The pages of `layout` in logical order.
pub(crate) fn pages(layout: &RunList) -> impl Iterator<Item = PageId> + '_ {
    layout
        .runs()
        .flat_map(|run| (run.start..run.end()).map(PageId))
}

/// The byte runs a sequential scan of `layout` touches: one per page run,
/// whole pages, for a data file starting at `base_offset`.  Every read plan
/// and write receipt is one, made and dropped per operation; a capacity of
/// a power of two, at least 16 runs, keeps them to a few heap block sizes
/// as objects gain fragments (EXPERIMENTS.md,
/// "Peak RSS and the BLOB engine's run lists").
pub(crate) fn byte_runs(layout: &RunList, page_size: u64, base_offset: u64) -> Vec<ByteRun> {
    let mut runs = Vec::with_capacity(layout.fragment_count().next_power_of_two().max(16));
    runs.extend(
        layout
            .runs()
            .map(|run| ByteRun::new(base_offset + run.start * page_size, run.len * page_size)),
    );
    runs
}

#[cfg(test)]
mod tests {
    use lor_alloc::{Extent, PackedRun};

    use super::*;

    const MAX_PAGES: u64 = RunList::MAX_UNITS;

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

    /// The layout of `pages` taken in logical order, one page at a time.
    fn layout_of(pages: &[u64]) -> RunList {
        pages.iter().map(|&page| Extent::new(page, 1)).collect()
    }

    fn fragments_of(pages: &[u64]) -> usize {
        layout_of(pages).fragment_count()
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
        let pages = [3, 4, 10, 11, 12, 2];
        let layout = layout_of(&pages);
        assert_eq!(
            layout.runs().collect::<Vec<_>>(),
            [Extent::new(3, 2), Extent::new(10, 3), Extent::new(2, 1)]
        );
        assert_eq!(layout.units(), 6);
        assert_eq!(super::pages(&layout).collect::<Vec<_>>(), pages.map(PageId));
        assert!(RunList::new().is_empty());
    }

    #[test]
    fn appended_runs_merge_only_with_their_logical_predecessor() {
        let mut layout = RunList::new();
        layout.push(Extent::new(8, 4));
        layout.push(Extent::new(12, 0));
        layout.push(Extent::new(12, 2));
        layout.push(Extent::new(20, 1));
        layout.push(Extent::new(14, 1));
        assert_eq!(
            layout.runs().collect::<Vec<_>>(),
            [Extent::new(8, 6), Extent::new(20, 1), Extent::new(14, 1)]
        );
        assert_eq!(layout.units(), 8);
        assert_eq!(
            byte_runs(&layout, 8192, 100),
            vec![
                ByteRun::new(100 + 8 * 8192, 6 * 8192),
                ByteRun::new(100 + 20 * 8192, 8192),
                ByteRun::new(100 + 14 * 8192, 8192)
            ]
        );
    }

    #[test]
    fn run_lists_come_in_power_of_two_capacities_of_at_least_16() {
        let every_other = |runs: u64| layout_of(&(0..runs).map(|i| 2 * i).collect::<Vec<_>>());
        for (runs, capacity) in [(0, 16), (1, 16), (16, 16), (17, 32), (33, 64)] {
            let list = byte_runs(&every_other(runs), 8192, 0);
            assert_eq!((list.len(), list.capacity()), (runs as usize, capacity));
        }
    }

    #[test]
    fn runs_at_the_32_bit_edge_round_trip_and_merge_forward_only() {
        let last = MAX_PAGES - 1;
        assert_eq!(fragments_of(&[last - 1, last]), 1);
        assert_eq!(fragments_of(&[last, last - 1]), 2);
        let layout = layout_of(&[last - 1, last]);
        assert_eq!(
            layout.runs().collect::<Vec<_>>(),
            [Extent::new(last - 1, 2)]
        );
        assert_eq!(layout.runs().len(), 1);
        let layout = layout_of(&[0, last, last - 1]);
        assert_eq!(
            layout.runs().collect::<Vec<_>>(),
            [
                Extent::new(0, 1),
                Extent::new(last, 1),
                Extent::new(last - 1, 1)
            ]
        );
        assert_eq!(pages(&layout).last(), Some(PageId(last - 1)));
        assert_eq!(
            byte_runs(&layout, 8192, 0)[1],
            ByteRun::new(last * 8192, 8192)
        );
        // A run covering the whole bound packs and unpacks unchanged.
        let whole = Extent::new(0, MAX_PAGES);
        assert_eq!(PackedRun::new(whole).extent(), whole);
    }

    #[test]
    #[should_panic(expected = "ends past unit")]
    fn a_run_past_the_32_bit_edge_is_refused() {
        RunList::new().push(Extent::new(MAX_PAGES, 1));
    }

    #[test]
    fn packed_runs_order_by_start() {
        let mut runs = [
            Extent::new(9, 1),
            Extent::new(2, 7),
            Extent::new(MAX_PAGES - 1, 1),
        ];
        let mut packed = runs.map(PackedRun::new);
        runs.sort_unstable_by_key(|run| run.start);
        packed.sort_unstable();
        assert_eq!(packed.map(PackedRun::extent), runs);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PageId(4).to_string(), "page:4");
        assert_eq!(ExtentId(9).to_string(), "extent:9");
    }
}
