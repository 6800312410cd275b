//! Per-layer probes: fixed work pushed through each layer's public
//! functions and timed from outside. Every probe runs in every traced
//! run, whatever the workload, so each traced run reports every
//! per-layer metric. Host timings are medians of [`REPS`] repetitions
//! after one unmeasured one; simulated statistics (`sim` in
//! [`crate::metrics::PER_LAYER`]) come from fixed work and repeat
//! exactly for a given seed.

use crate::harness::median_seconds;
use crate::metrics::Metrics;

mod bench;
mod engine;
mod kernels;
mod rv64;
mod services;
mod simos;
mod verify;
mod xpc;

/// Timed repetitions per probe.
const REPS: usize = 5;

/// Median host nanoseconds per operation of `f`, which does `ops`.
fn ns_per_op(ops: u64, f: impl FnMut()) -> f64 {
    median_seconds(REPS, f) * 1e9 / ops as f64
}

/// Operations per median host second of `f`, which does `ops`.
fn per_second(ops: u64, f: impl FnMut()) -> f64 {
    ops as f64 / median_seconds(REPS, f)
}

/// Run every layer's probes, recording into `m`.
pub fn run_all(seed: u64, m: &mut Metrics) {
    rv64::run(seed, m);
    engine::run(m);
    xpc::run(m);
    kernels::run(m);
    simos::run(seed, m);
    services::run(seed, m);
    verify::run(m);
    bench::run(m);
}
