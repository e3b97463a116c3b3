//! End-to-end benchmark of the wireless-sync workspace.
//!
//! One binary (`e2e-bench`) runs one workload per invocation against the
//! repository's public API: the `wsync-core` library (spec decoding,
//! `Sim`, the result store, the sweep runner and the lease fabric) and an
//! in-process `wsync-serve` [`Server`](wsync_serve::Server) bound to
//! loopback. See `README.md` in this directory for the workloads, the
//! metrics and the predictions each per-layer metric carries.
//!
//! * [`gen`] — the seeded input generator: every input the programs under
//!   test see is derived from the workload seed.
//! * [`client`] — the loopback HTTP client and the failure tally.
//! * [`openloop`] — the open-loop request schedule and its lateness
//!   accounting.
//! * [`trace`] — in-memory spans around calls into each layer.
//! * [`workloads`] — `sweep-grid`, `serve-mix` and `large-n`.
//! * [`clock`] — the benchmark's only wall-clock reads.

#![forbid(unsafe_code)]

pub mod client;
pub mod clock;
pub mod gen;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
