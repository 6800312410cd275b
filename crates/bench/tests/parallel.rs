//! Differential tests for the sweep pool: every pool-driven experiment
//! must render — table and JSON section alike — byte-identically for
//! worker counts 1, 2, and 8. The single-worker run takes the plain
//! serial code path (`simos::par::map_cells_on` loops in-order on the
//! calling thread), so it is the oracle the parallel runs are diffed
//! against, the same pinning pattern as the load driver's linear-scan
//! oracle tests.
//!
//! `with_threads` pins the worker count via a *thread-local* override,
//! so these tests cannot race each other under the parallel test
//! harness. The once-per-pass hand-off slots (`xpc_bench::experiments`)
//! are thread-local for the same reason: where a closure below calls
//! `run()` and then `json_section()`, the section renders the grid that
//! `run()` computed at that worker count.

use simos::par::with_threads;
use xpc_bench::{experiments, sweep};

/// The parallel worker counts diffed against the 1-worker oracle: one
/// below the typical cell count and one above several grids' axes (8
/// exceeds e.g. the admission sweep's 3 cells, exercising the
/// workers-capped-to-cells path).
const WORKER_COUNTS: [usize; 2] = [2, 8];

fn assert_worker_count_invariant(label: &str, produce: impl Fn() -> String) {
    let oracle = with_threads(1, &produce);
    assert!(!oracle.is_empty(), "{label}: empty oracle output");
    for workers in WORKER_COUNTS {
        let got = with_threads(workers, &produce);
        assert_eq!(got, oracle, "{label} diverges at {workers} workers");
    }
}

#[test]
fn scale_grid_is_worker_count_invariant() {
    assert_worker_count_invariant("scale", || {
        format!(
            "{}\n{}",
            experiments::scale::run().render(),
            experiments::scale::json_section()
        )
    });
}

#[test]
fn pipeline_grid_is_worker_count_invariant() {
    assert_worker_count_invariant("pipeline", || {
        format!(
            "{}\n{}",
            experiments::pipeline::run().render(),
            experiments::pipeline::json_section()
        )
    });
}

#[test]
fn numa_grid_is_worker_count_invariant() {
    // json_section covers both the hop cells and the load grid; render
    // covers the table path.
    assert_worker_count_invariant("numa", || {
        format!(
            "{}\n{}",
            experiments::numa::run().render(),
            experiments::numa::json_section()
        )
    });
}

#[test]
fn serve_grids_are_worker_count_invariant() {
    // Cold, json_section computes all four serve views (knee, admission,
    // bursty, autoscale) including their calibration phases; after a
    // run() it computes bursty + autoscale and formats the knee +
    // admission views run() parked.
    assert_worker_count_invariant("serve json (cold)", experiments::serve::json_section);
    assert_worker_count_invariant("serve render + json", || {
        format!(
            "{}\n{}",
            experiments::serve::run().render(),
            experiments::serve::json_section()
        )
    });
}

#[test]
fn fuse_grids_are_worker_count_invariant() {
    assert_worker_count_invariant("fuse json (cold)", experiments::fuse::json_section);
    assert_worker_count_invariant("fuse render + json", || {
        format!(
            "{}\n{}",
            experiments::fuse::run().render(),
            experiments::fuse::json_section()
        )
    });
}

#[test]
fn harden_rows_are_worker_count_invariant() {
    assert_worker_count_invariant("harden", || {
        format!(
            "{}\n{}",
            experiments::harden::run().render(),
            experiments::harden::json_section()
        )
    });
}

#[test]
fn service_curves_are_worker_count_invariant() {
    // fs, tcp and http curves: one world per (system, size) cell.
    assert_worker_count_invariant("fig7ab / fig7c / fig8c", || {
        format!(
            "{}\n{}\n{}",
            experiments::fig7::fig7ab().render(),
            experiments::fig7::fig7c().render(),
            experiments::fig8::fig8c().render()
        )
    });
}

#[test]
fn fig1b_is_worker_count_invariant_cold_and_handed_off() {
    // Cold, fig1b runs YCSB-E itself (serially); after fig1a it prints
    // the E cell a pool worker ran.
    assert_worker_count_invariant("fig1b (cold)", || experiments::fig1::fig1b().render());
    assert_worker_count_invariant("fig1a + fig1b", || {
        format!(
            "{}\n{}",
            experiments::fig1::fig1a().render(),
            experiments::fig1::fig1b().render()
        )
    });
}

#[test]
fn storage_grids_are_worker_count_invariant() {
    // The minidb -> fs -> blockdev grids: one world per cell.
    assert_worker_count_invariant("storage", || {
        format!(
            "{}\n{}",
            experiments::fig1::fig1a().render(),
            experiments::fig8::fig8ab().render()
        )
    });
}

#[test]
fn verify_rows_are_worker_count_invariant() {
    assert_worker_count_invariant("verify", || {
        format!(
            "{}\n{}",
            experiments::verify::run().render(),
            experiments::verify::json_section()
        )
    });
}

#[test]
fn roster_sweep_is_worker_count_invariant() {
    assert_worker_count_invariant("roster sweep", || {
        sweep::json_dump(&sweep::roster_sweep(), &[], &[])
    });
}
