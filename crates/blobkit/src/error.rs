//! Database engine error type.

use std::fmt;

/// Errors returned by the BLOB storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// An object with this key already exists.
    KeyExists(String),
    /// No object with this key exists.
    NoSuchKey(String),
    /// No live object has this id (deleted, or never stored).
    NoSuchBlob(u64),
    /// The data file has no free pages left (even after ghost cleanup).
    OutOfSpace {
        /// Pages requested.
        requested_pages: u64,
        /// Pages currently free (including unassigned extents).
        free_pages: u64,
    },
    /// The engine configuration is unusable.
    BadConfig(&'static str),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::KeyExists(key) => write!(f, "an object with key {key:?} already exists"),
            DbError::NoSuchKey(key) => write!(f, "no object with key {key:?}"),
            DbError::NoSuchBlob(id) => write!(f, "no object with id {id}"),
            DbError::OutOfSpace {
                requested_pages,
                free_pages,
            } => {
                write!(
                    f,
                    "data file out of space: requested {requested_pages} pages, {free_pages} free"
                )
            }
            DbError::BadConfig(what) => write!(f, "bad engine configuration: {what}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_identify_the_problem() {
        assert!(DbError::KeyExists("k".into())
            .to_string()
            .contains("already exists"));
        assert!(DbError::NoSuchKey("k".into())
            .to_string()
            .contains("no object"));
        assert!(DbError::OutOfSpace {
            requested_pages: 9,
            free_pages: 1
        }
        .to_string()
        .contains("9 pages"));
        assert!(DbError::BadConfig("x").to_string().contains("x"));
    }
}
