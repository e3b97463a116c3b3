//! Offline facade for the `serde` crate.
//!
//! This workspace builds in environments with no crates.io access, and no
//! workspace type derives or uses these traits: the store and spec layers
//! encode JSON by hand (`wsync_core::json`). The facade provides marker
//! traits and re-exports the no-op derives from the sibling `serde_derive`
//! stub; it stays a dependency of `wsync-core`, `wsync-radio` and
//! `wsync-stats` only because `e2e-bench/Cargo.lock` pins it.

#![forbid(unsafe_code)]

// The derive macros live in the macro namespace, the traits below in the
// type namespace, so `use serde::{Serialize, Deserialize}` imports both —
// exactly like the real crate with its `derive` feature enabled.
pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize`.
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize<'de>`.
pub trait Deserialize<'de> {}
