//! YCSB core workloads for the Figure 1 / Figure 8 experiments.
//!
//! Implements the standard six core workloads with the standard request
//! distributions:
//!
//! | Workload | Mix | Distribution |
//! |---|---|---|
//! | A | 50% read / 50% update | zipfian |
//! | B | 95% read / 5% update | zipfian |
//! | C | 100% read | zipfian |
//! | D | 95% read / 5% insert | latest |
//! | E | 95% scan / 5% insert | zipfian (scan length uniform <= 100) |
//! | F | 50% read / 50% read-modify-write | zipfian |
//!
//! Deterministic given a seed, so every figure regenerates bit-for-bit.

#![forbid(unsafe_code)]

mod check;
pub mod generator;
pub mod rng;
pub mod workload;

pub use check::check;
pub use generator::{LatestGen, ScrambledZipfian, UniformGen, ZipfianGen};
pub use rng::{stream_seed, Rng, SplitMix64, Xoshiro256StarStar};
pub use workload::{Op, Workload, WorkloadSpec};
