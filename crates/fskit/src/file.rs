//! File records: the layout and logical size of each file.

use lor_alloc::{Name, RunList};
use lor_disksim::ByteRun;

/// Identifier of a file on a [`crate::Volume`].  Analogous to an MFT record
/// number: never reused within the lifetime of a volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl From<u64> for FileId {
    fn from(number: u64) -> Self {
        FileId(number)
    }
}

impl From<FileId> for u64 {
    fn from(id: FileId) -> u64 {
        id.0
    }
}

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Metadata and layout of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecord {
    /// Stable identifier.
    pub id: FileId,
    /// Name within the volume's single flat directory; empty for the
    /// temporary of a safe write in flight.  Its bytes live in the record
    /// itself unless it is longer than [`Name::INLINE`].
    pub name: Name,
    /// Logical size in bytes.
    pub size_bytes: u64,
    /// The file's clusters as maximal runs in logical order: `lor-alloc`'s
    /// stored layout, the one a BLOB keeps too, 8 bytes a run.  Changed
    /// only by the volume, which keeps its trackers in step.
    pub(crate) layout: RunList,
}

impl FileRecord {
    /// Creates an empty file record.
    pub fn new(id: FileId, name: impl Into<Name>) -> Self {
        FileRecord {
            id,
            name: name.into(),
            size_bytes: 0,
            layout: RunList::new(),
        }
    }

    /// The file's clusters as maximal physical runs, in logical order.
    pub fn layout(&self) -> &RunList {
        &self.layout
    }

    /// Number of clusters currently allocated to the file.
    #[inline]
    pub fn allocated_clusters(&self) -> u64 {
        self.layout.units()
    }

    /// Number of physically discontiguous fragments ("1" means contiguous,
    /// matching the paper's definition: *contiguous objects have 1 fragment*).
    #[inline]
    pub fn fragment_count(&self) -> usize {
        self.layout.fragment_count()
    }

    /// The cluster just past the file's last allocated cluster, used as the
    /// extension hint for the next append.  `None` for an empty file.
    pub fn extension_hint(&self) -> Option<u64> {
        self.layout.last().map(|run| run.end())
    }

    /// The byte runs a sequential read of the whole file touches, given the
    /// volume's cluster size.  The final extent is clipped to the logical file
    /// size (the tail of the last cluster holds no file data).
    pub fn byte_runs(&self, cluster_size: u64) -> Vec<ByteRun> {
        let mut remaining = self.size_bytes;
        let mut runs = Vec::with_capacity(self.layout.fragment_count());
        for extent in self.layout.runs() {
            if remaining == 0 {
                break;
            }
            let extent_bytes = extent.len * cluster_size;
            let take = extent_bytes.min(remaining);
            runs.push(ByteRun::new(extent.start * cluster_size, take));
            remaining -= take;
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use lor_alloc::Extent;

    use super::*;

    #[test]
    fn new_record_is_empty() {
        let record = FileRecord::new(FileId(7), "photo.jpg");
        assert_eq!(record.size_bytes, 0);
        assert_eq!(record.allocated_clusters(), 0);
        assert_eq!(record.fragment_count(), 0);
        assert_eq!(record.extension_hint(), None);
        assert!(record.byte_runs(4096).is_empty());
        assert_eq!(FileId(7).to_string(), "file#7");
    }

    #[test]
    fn appended_extents_merge_into_the_last_run() {
        let mut record = FileRecord::new(FileId(1), "a");
        record.layout.push(Extent::new(10, 4));
        record.layout.push(Extent::new(14, 4));
        record
            .layout
            .extend([Extent::new(30, 4), Extent::new(34, 2)]);
        assert_eq!(
            record.layout().runs().collect::<Vec<_>>(),
            [Extent::new(10, 8), Extent::new(30, 6)]
        );
        assert_eq!(record.fragment_count(), 2);
        assert_eq!(record.allocated_clusters(), 14);
        assert_eq!(record.extension_hint(), Some(36));
    }

    #[test]
    fn byte_runs_clip_to_logical_size() {
        let mut record = FileRecord::new(FileId(1), "a");
        record
            .layout
            .extend([Extent::new(0, 2), Extent::new(10, 2)]);
        record.size_bytes = 3 * 4096 + 100; // last cluster only partially used
        let runs = record.byte_runs(4096);
        assert_eq!(runs, vec![ByteRun::new(0, 8192), ByteRun::new(40960, 4196)]);
        assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), record.size_bytes);
    }

    #[test]
    fn byte_runs_stop_when_size_is_reached() {
        let mut record = FileRecord::new(FileId(1), "a");
        record
            .layout
            .extend([Extent::new(0, 2), Extent::new(10, 2)]);
        record.size_bytes = 4096; // only the first cluster holds data
        let runs = record.byte_runs(4096);
        assert_eq!(runs, vec![ByteRun::new(0, 4096)]);
    }
}
