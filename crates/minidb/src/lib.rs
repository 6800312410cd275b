//! A Sqlite3 stand-in for the Figure 1 / Figure 8 experiments: an
//! embedded table store with write-ahead journaling over the
//! [`services::fs`] file system server.
//!
//! What matters for the reproduction is not SQL but the *IPC pattern*
//! Sqlite3 generates on a microkernel: every committed write turns into
//! journaled block writes against the FS server (which turns each into
//! block-server IPCs), while reads are served from an in-memory page
//! cache when hot (which is why YCSB-C barely improves under XPC, §5.4).
//!
//! The store is log-structured: rows append to a table file; an in-memory
//! index maps keys to (offset, length). Updates append new versions.

#![forbid(unsafe_code)]

pub mod db;
pub mod driver;

pub use db::MiniDb;
pub use driver::{load, run_loaded, run_workload, YcsbResult};
pub use ycsb::rng;
