//! Error types shared by every allocator.

use std::fmt;

/// Errors returned by allocation and free operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The request asked for zero clusters.
    EmptyRequest,
    /// Not enough free clusters remain on the volume to satisfy the request,
    /// even when fragmenting it.
    OutOfSpace {
        /// Clusters requested.
        requested: u64,
        /// Clusters currently free.
        available: u64,
    },
    /// The request required a single contiguous run and no free run was large
    /// enough, although enough total free space exists.
    NoContiguousRun {
        /// Clusters requested.
        requested: u64,
        /// Largest free run available.
        largest_run: u64,
    },
    /// An attempt was made to free clusters that were not allocated (double
    /// free or free of a never-allocated range).
    NotAllocated {
        /// Start of the offending range.
        start: u64,
        /// Length of the offending range.
        len: u64,
    },
    /// A run of a batch release starts below the run before it (a batch
    /// must be ascending by start).
    UnsortedBatch {
        /// Start of the offending run.
        start: u64,
        /// Length of the offending run.
        len: u64,
    },
    /// An extent lies outside the volume.
    OutOfBounds {
        /// Start of the offending range.
        start: u64,
        /// Length of the offending range.
        len: u64,
        /// Total clusters on the volume.
        total: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::EmptyRequest => write!(f, "allocation request for zero clusters"),
            AllocError::OutOfSpace {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of space: requested {requested} clusters, {available} free"
                )
            }
            AllocError::NoContiguousRun {
                requested,
                largest_run,
            } => write!(
                f,
                "no contiguous run of {requested} clusters (largest free run is {largest_run})"
            ),
            AllocError::NotAllocated { start, len } => {
                write!(f, "free of unallocated range [{start}, {})", start + len)
            }
            AllocError::UnsortedBatch { start, len } => write!(
                f,
                "batch run [{start}, {}) starts below the run before it",
                start + len
            ),
            AllocError::OutOfBounds { start, len, total } => {
                write!(
                    f,
                    "range [{start}, {}) lies outside the {total}-cluster volume",
                    start + len
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let messages = [
            AllocError::EmptyRequest.to_string(),
            AllocError::OutOfSpace {
                requested: 10,
                available: 5,
            }
            .to_string(),
            AllocError::NoContiguousRun {
                requested: 10,
                largest_run: 4,
            }
            .to_string(),
            AllocError::NotAllocated { start: 3, len: 2 }.to_string(),
            AllocError::OutOfBounds {
                start: 90,
                len: 20,
                total: 100,
            }
            .to_string(),
            AllocError::UnsortedBatch { start: 7, len: 1 }.to_string(),
        ];
        assert!(messages[1].contains("requested 10"));
        assert!(messages[2].contains("largest free run is 4"));
        assert!(messages[3].contains("[3, 5)"));
        assert!(messages[4].contains("100-cluster"));
        assert!(messages[5].contains("[7, 8) starts below"));
    }
}
