//! Snapshot test: the committed `figures/golden_harden.json` must match
//! the `"harden"` JSON section produced in-process today. The section
//! is analytic (hardened one-way invocations priced by the cost model —
//! no wall clock anywhere), so any drift is a real pricing change, not
//! noise.
//!
//! To refresh after an intentional change, write the output of
//! `experiments::harden::json_section()` back to the file (or regenerate
//! `BENCH_figures.json` with `figures --json` and copy the section).

mod common;

use xpc_bench::experiments;

#[test]
fn harden_section_matches_the_committed_golden() {
    let golden = include_str!("../../../figures/golden_harden.json");
    let fresh = experiments::harden::json_section();
    common::assert_same_lines("figures/golden_harden.json", golden, &fresh);
}

#[test]
fn harden_snapshot_none_rows_pay_zero_tax() {
    // Belt and braces on the committed artifact itself: the unhardened
    // rows must price exactly like the pre-hardening model (tax 0), and
    // every mitigation set must appear for every mechanism.
    let golden = include_str!("../../../figures/golden_harden.json");
    let mut none_rows = 0;
    for line in golden.lines() {
        if line.contains("\"set\": \"none\"") {
            assert!(
                line.contains("\"tax_cycles\": 0") && line.contains("\"scrub_cycles\": 0"),
                "unhardened row pays a tax: {line}"
            );
            none_rows += 1;
        }
    }
    assert_eq!(none_rows, 4 * 5, "4 mechanisms x 5 sizes of none rows");
    for set in ["epochs", "scrub", "flow", "all"] {
        for sys in ["Zircon", "Zircon-XPC", "seL4-onecopy", "seL4-XPC"] {
            assert!(
                golden
                    .lines()
                    .any(|l| l.contains(&format!("\"system\": \"{sys}\""))
                        && l.contains(&format!("\"set\": \"{set}\""))),
                "snapshot is missing {sys} x {set}"
            );
        }
    }
}
