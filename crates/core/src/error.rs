//! Error type shared by every object store.

use std::fmt;

use lor_blobkit::DbError;
use lor_fskit::FsError;
use lor_logstore::LogError;

/// Errors returned by object stores and the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No object with the given key exists.
    NoSuchObject(String),
    /// An object with the given key already exists.
    ObjectExists(String),
    /// The store ran out of space.
    OutOfSpace(String),
    /// The underlying filesystem simulator reported an error.
    Filesystem(String),
    /// The underlying database engine reported an error.
    Database(String),
    /// The experiment or store configuration is unusable.
    BadConfig(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchObject(key) => write!(f, "no object with key {key:?}"),
            StoreError::ObjectExists(key) => write!(f, "object {key:?} already exists"),
            StoreError::OutOfSpace(detail) => write!(f, "out of space: {detail}"),
            StoreError::Filesystem(detail) => write!(f, "filesystem error: {detail}"),
            StoreError::Database(detail) => write!(f, "database error: {detail}"),
            StoreError::BadConfig(detail) => write!(f, "bad configuration: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<FsError> for StoreError {
    fn from(err: FsError) -> Self {
        match err {
            FsError::NoSuchName(name) => StoreError::NoSuchObject(name),
            FsError::NameExists(name) => StoreError::ObjectExists(name),
            FsError::Alloc(inner) => StoreError::OutOfSpace(inner.to_string()),
            other => StoreError::Filesystem(other.to_string()),
        }
    }
}

impl From<DbError> for StoreError {
    fn from(err: DbError) -> Self {
        match err {
            DbError::NoSuchKey(key) => StoreError::NoSuchObject(key),
            DbError::NoSuchBlob(id) => StoreError::NoSuchObject(format!("blob {id}")),
            DbError::KeyExists(key) => StoreError::ObjectExists(key),
            DbError::OutOfSpace { .. } => StoreError::OutOfSpace(err.to_string()),
            other => StoreError::Database(other.to_string()),
        }
    }
}

/// The log knows objects by id only; where the store has the key at hand it
/// substitutes it (see `log_store.rs`), and an id with no name (a cleaner
/// failure, or an insert out of order, which the store never makes) is
/// reported as the id.
impl From<LogError> for StoreError {
    fn from(err: LogError) -> Self {
        match err {
            LogError::NoSuchObject(id) => StoreError::NoSuchObject(format!("log object {id}")),
            LogError::IdOutOfOrder(id) => StoreError::ObjectExists(format!("log object {id}")),
            LogError::OutOfSpace => StoreError::OutOfSpace(err.to_string()),
            LogError::BadConfig(_) => StoreError::BadConfig(err.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lor_alloc::AllocError;

    #[test]
    fn conversions_preserve_the_key() {
        let err: StoreError = FsError::NoSuchName("a".into()).into();
        assert_eq!(err, StoreError::NoSuchObject("a".into()));
        let err: StoreError = DbError::KeyExists("b".into()).into();
        assert_eq!(err, StoreError::ObjectExists("b".into()));
    }

    #[test]
    fn space_errors_map_to_out_of_space() {
        let err: StoreError = FsError::Alloc(AllocError::OutOfSpace {
            requested: 5,
            available: 1,
        })
        .into();
        assert!(matches!(err, StoreError::OutOfSpace(_)));
        let err: StoreError = DbError::OutOfSpace {
            requested_pages: 5,
            free_pages: 1,
        }
        .into();
        assert!(matches!(err, StoreError::OutOfSpace(_)));
    }

    #[test]
    fn log_errors_never_surface_as_filesystem_errors() {
        // A cleaner failure names no key: the id stands in for it.
        assert_eq!(
            StoreError::from(LogError::NoSuchObject(7)),
            StoreError::NoSuchObject("log object 7".into())
        );
        assert_eq!(
            StoreError::from(LogError::IdOutOfOrder(7)),
            StoreError::ObjectExists("log object 7".into())
        );
        for err in [
            LogError::OutOfSpace,
            LogError::BadConfig("segment too small"),
        ] {
            let mapped = StoreError::from(err);
            assert!(matches!(
                mapped,
                StoreError::OutOfSpace(_) | StoreError::BadConfig(_)
            ));
            assert!(!mapped.to_string().contains("filesystem"));
        }
    }

    #[test]
    fn display_is_informative() {
        assert!(StoreError::BadConfig("volume too small".into())
            .to_string()
            .contains("volume too small"));
        assert!(StoreError::Filesystem("x".into())
            .to_string()
            .contains("filesystem"));
        assert!(StoreError::Database("x".into())
            .to_string()
            .contains("database"));
    }
}
