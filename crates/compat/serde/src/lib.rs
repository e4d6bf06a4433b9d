//! Offline stub of `serde`.
//!
//! No source file of the workspace uses serde (its JSON is hand-rolled in
//! `lor_obs::json`); the stub stays while the `lor-*` manifests still list
//! it.  It provides the two trait names and re-exports the no-op derive
//! macros from the sibling `serde_derive` stub.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker trait standing in for `serde::Deserialize`.
pub trait Deserialize {}
