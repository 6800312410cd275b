//! Whole-document check of the once-per-pass hand-off: the
//! `BENCH_figures.json` document assembled after running all 24 registry
//! entries (every grid section handed off by its `run()`) must equal the
//! one assembled cold (every section computed by its `json_section()`).
//! The per-module tests pin each slot; this pins the document the
//! `figures` binary and `benchmark/` build from them.

use xpc_bench::{experiments, sweep};

/// The `figures --json --no-simspeed` tail, in the binary's order.
fn document() -> String {
    let fig5: Vec<(String, kernels::Invocation)> = experiments::fig5::invocations()
        .into_iter()
        .map(|(name, inv)| (name.to_string(), inv))
        .collect();
    let raw = [
        ("scale", experiments::scale::json_section()),
        ("pipeline", experiments::pipeline::json_section()),
        ("ablations", experiments::ablations::json_section()),
        ("numa", experiments::numa::json_section()),
        ("verify", experiments::verify::json_section()),
        ("serve", experiments::serve::json_section()),
        ("fuse", experiments::fuse::json_section()),
        ("harden", experiments::harden::json_section()),
    ];
    sweep::json_dump(&sweep::roster_sweep(), &[("fig5", fig5)], &raw)
}

#[test]
fn the_document_after_a_full_pass_equals_the_cold_one() {
    let cold = document();
    for (_, run) in experiments::all() {
        run();
    }
    let handed_off = document();
    if handed_off != cold {
        for (i, (h, c)) in handed_off.lines().zip(cold.lines()).enumerate() {
            assert_eq!(h, c, "documents diverge at line {}", i + 1);
        }
        panic!("documents differ in length");
    }
}
