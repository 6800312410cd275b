//! Snapshot test: the committed `figures/golden_serve.json` must match
//! the `"serve"` JSON section produced in-process today. The section is
//! fully deterministic (virtual time only), so any drift is a real model
//! change, not noise.
//!
//! To refresh after an intentional change, write the output of
//! `experiments::serve::json_section()` back to the file (or regenerate
//! `BENCH_figures.json` with `figures --json` and copy the section).

mod common;

use xpc_bench::experiments;

#[test]
fn serve_section_matches_the_committed_golden() {
    let golden = include_str!("../../../figures/golden_serve.json");
    let fresh = experiments::serve::json_section();
    common::assert_same_lines("figures/golden_serve.json", golden, &fresh);
}

#[test]
fn serve_section_conserves_arrivals_in_the_committed_snapshot() {
    // Belt and braces on the committed artifact itself: every knee cell
    // in the snapshot must satisfy admitted + shed == offered.
    let golden = include_str!("../../../figures/golden_serve.json");
    let mut cells = 0;
    for line in golden.lines() {
        let grab = |key: &str| -> Option<u64> {
            let at = line.find(key)?;
            let rest = &line[at + key.len()..];
            let digits: String = rest
                .chars()
                .skip_while(|c| !c.is_ascii_digit())
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        };
        if let (Some(offered), Some(admitted), Some(shed)) = (
            grab("\"offered\":"),
            grab("\"admitted\":"),
            grab("\"shed\":"),
        ) {
            assert_eq!(admitted + shed, offered, "snapshot line: {line}");
            cells += 1;
        }
    }
    assert!(
        cells >= 48,
        "expected a full knee grid, found {cells} cells"
    );
}
