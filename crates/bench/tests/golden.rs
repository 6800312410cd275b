//! Snapshot test: the committed `figures/golden.txt` must match what the
//! `figures` renderer produces in-process today, so any figure regression
//! fails `cargo test` instead of silently rotting the checked-in output.
//!
//! To refresh after an intentional model change:
//!
//! ```text
//! cargo run --release -p xpc-bench --bin figures -- all > figures/golden.txt
//! ```

mod common;

use xpc_bench::experiments;

fn render_all() -> String {
    experiments::all()
        .into_iter()
        .map(|(_, run)| format!("{}\n", run().render()))
        .collect()
}

#[test]
fn figures_match_the_committed_golden() {
    let golden = include_str!("../../../figures/golden.txt");
    let fresh = render_all();
    common::assert_same_lines("figures/golden.txt", golden, &fresh);
}
