//! Offline stub of `serde_derive`.
//!
//! The build environment for this repository has no access to a crate
//! registry, so the real `serde` cannot be vendored.  Nothing in the
//! workspace derives or calls serde (the JSON it writes is hand-rolled in
//! `lor_obs::json`), so the derives expand to nothing; the stub stays only
//! while the `lor-*` manifests still list `serde`.

use proc_macro::TokenStream;

/// No-op stand-in for `serde_derive::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op stand-in for `serde_derive::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
