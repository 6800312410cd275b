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
//! harness. The hand-off slot (`xpc_bench::experiments`) is thread-local
//! for the same reason: where a closure below calls `run()` and then
//! `json_section()`, the section renders the grid that `run()` computed
//! at that worker count.

use simos::par::with_threads;
use xpc_bench::experiments::{
    self, fuse, harden, numa, pipeline, scale, serve, verify, Experiment,
};
use xpc_bench::sweep;

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

/// `E`'s table and its JSON section rendered from the grid the table
/// computed.
fn assert_grid_invariant<E: Experiment>(label: &str) {
    assert_worker_count_invariant(label, || {
        let table = experiments::run::<E>().render();
        format!("{table}\n{}", experiments::json_section::<E>())
    });
}

#[test]
fn scale_grid_is_worker_count_invariant() {
    assert_grid_invariant::<scale::Scale>("scale");
}

#[test]
fn pipeline_grid_is_worker_count_invariant() {
    assert_grid_invariant::<pipeline::Pipeline>("pipeline");
}

#[test]
fn numa_grid_is_worker_count_invariant() {
    // The JSON section covers the hop cells and the load grid; the
    // table covers the load grid's table path.
    assert_grid_invariant::<numa::Numa>("numa");
}

#[test]
fn serve_grids_are_worker_count_invariant() {
    // Cold, json_section computes all four serve views (knee, admission,
    // bursty, autoscale) including their calibration phases; after a
    // run() it formats the views run() computed and parked.
    assert_worker_count_invariant("serve json (cold)", serve::json_section);
    assert_grid_invariant::<serve::Serve>("serve render + json");
}

#[test]
fn fuse_grids_are_worker_count_invariant() {
    assert_worker_count_invariant("fuse json (cold)", fuse::json_section);
    assert_grid_invariant::<fuse::Fuse>("fuse render + json");
}

#[test]
fn harden_rows_are_worker_count_invariant() {
    assert_grid_invariant::<harden::Harden>("harden");
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
    assert_grid_invariant::<verify::Verify>("verify");
}

#[test]
fn roster_sweep_is_worker_count_invariant() {
    assert_worker_count_invariant("roster sweep", || {
        sweep::json_dump(&sweep::roster_sweep(), &[], &[])
    });
}
