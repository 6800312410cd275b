//! The one snapshot test. The committed `BENCH_figures.json` and
//! `figures/golden.txt` are what the experiments produce today, at 1, 2
//! and 8 sweep-pool workers, with every JSON section computed cold and
//! again handed the grid its table computed. A table is its experiment's
//! view rendered through its layout, and a section is that view without
//! its view-only leaves, so both files print one value per experiment.
//! Every view is virtual time only, so any drift is a real model change,
//! not noise. The schema the
//! document's readers rely on is checked on its `Value` tree (what each
//! section's cells hold is checked by that experiment's
//! `json_section_is_shaped`).
//!
//! To refresh both files after an intentional model change:
//!
//! ```text
//! cargo run --release -p xpc-bench --bin figures -- --threads 1 --json all > figures/golden.txt
//! ```

mod claims;
use simos::par::with_threads;
use xpc_bench::experiments;
use xpc_bench::json::Value;

const DOCUMENT: &str = include_str!("../../../BENCH_figures.json");
const REPORTS: &str = include_str!("../../../figures/golden.txt");

/// The top-level key a `BENCH_figures.json` line opens, if it opens one.
fn json_section(line: &str) -> Option<&str> {
    line.strip_prefix("  \"")?.split('"').next()
}

/// The id of the report an `== id — caption ==` line opens.
fn report_section(line: &str) -> Option<&str> {
    line.strip_prefix("== ")?.split(" — ").next()
}

/// Assert `fresh == committed`, naming the file, the section (as
/// `section_of` reads it off the committed lines) and the line of the
/// first difference rather than printing both documents.
fn assert_snapshot(file: &str, committed: &str, fresh: &str, section_of: fn(&str) -> Option<&str>) {
    let want: Vec<&str> = committed.lines().collect();
    let got: Vec<&str> = fresh.lines().collect();
    let mut section = "(none)";
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if let Some(opened) = w.and_then(|l| section_of(l)) {
            section = opened;
        }
        assert!(
            w == g,
            "{file}: section {section}, line {}:\n  committed: {}\n  fresh:     {}",
            i + 1,
            w.unwrap_or(&"(end of file)"),
            g.unwrap_or(&"(end of file)")
        );
    }
    assert!(committed == fresh, "{file} differs in its line endings");
}

#[test]
fn both_views_match_the_committed_snapshots_at_1_2_and_8_workers() {
    for workers in [1, 2, 8] {
        with_threads(workers, || {
            let cold = experiments::json_document();
            let file = format!("BENCH_figures.json (cold, workers: {workers})");
            assert_snapshot(&file, DOCUMENT, &cold, json_section);

            let reports: String = experiments::all()
                .into_iter()
                .map(|(_, run)| format!("{}\n", run().render()))
                .collect();
            let file = format!("figures/golden.txt (workers: {workers})");
            assert_snapshot(&file, REPORTS, &reports, report_section);

            let handed_off = experiments::json_document();
            let file = format!("BENCH_figures.json (handed off, workers: {workers})");
            assert_snapshot(&file, DOCUMENT, &handed_off, json_section);
        });
    }
}

/// The cells of the grid at `path` (`/`-separated keys).
fn grid<'a>(doc: &'a Value, path: &str) -> &'a [Value] {
    let found = path.split('/').try_fold(doc, |v, key| v.get(key));
    match found {
        Some(Value::Array(cells)) => cells,
        other => panic!("{path} is not an array: {other:?}"),
    }
}

fn any(cells: &[Value], key: &str, want: impl Into<Value>) -> bool {
    let want = want.into();
    cells.iter().any(|c| c.get(key) == Some(&want))
}

/// Every array of objects in the tree is a grid: each cell has its first
/// cell's keys, in order.
fn assert_uniform(path: &str, v: &Value) {
    let keys = |v: &Value| match v {
        Value::Object(fields) => Some(fields.iter().map(|(k, _)| *k).collect::<Vec<_>>()),
        _ => None,
    };
    match v {
        Value::Array(items) => {
            if let Some(first) = items.first().and_then(keys) {
                for item in items {
                    assert_eq!(keys(item).as_ref(), Some(&first), "{path}: {item:?}");
                }
            }
            items.iter().for_each(|item| assert_uniform(path, item));
        }
        Value::Object(fields) => {
            for (k, v) in fields {
                assert_uniform(&format!("{path}/{k}"), v);
            }
        }
        _ => {}
    }
}

#[test]
fn the_document_has_every_section_in_its_schema() {
    let sections = experiments::json_sections();
    let keys: Vec<&str> = sections.iter().map(|(k, _)| *k).collect();
    let want = "systems fig5 scale pipeline ablations numa verify serve fuse harden \
                fig1a fig1b table1 fig6 table3 fig7ab fig7c fig8ab fig8c fig9a fig9b \
                table4 table5 table6 table7";
    assert_eq!(keys.join(" "), want);
    let doc = Value::Object(sections);
    assert_uniform("", &doc);
    claims::check(|key| doc.get(key).expect("a section"), None);
    for (path, len, key) in [
        ("systems", 12, "points"),
        ("fig5", 5, "invocation"),
        ("scale", 4 * 4, "cross_core_fraction"),
        ("pipeline", 4 * 3 * 3, "engine_cache"),
        ("ablations/engine_cache_batching", 3, "per_call_cycles"),
        ("numa/hops", 12, "remote_shard_miss"),
        ("numa/load", 4 * 2 * 2, "queue_fraction"),
        ("verify", 9 + 3 + 12, "verdict"),
        ("serve/knee", 4 * 2 * 6, "p99_us"),
        ("serve/admission", 3, "shed_rate"),
        ("serve/bursty", 4 * 2, "process"),
        ("serve/autoscale", 2, "controller"),
        ("fuse/grid", 4 * 6 * 2, "crossings"),
        ("fuse/knee", 4 * 6, "capacity_period_cycles"),
        ("harden", 4 * 5 * 5, "scrub_cycles"),
        ("fig1a/workloads", 6, "ipc_fraction"),
        ("fig1b/cdf", 8, "cdf"),
        ("table1", 2, "invocation"),
        ("fig6/sizes", 11, "xpc_cross_core"),
        ("table3", 3, "paper"),
        ("fig7ab/read", 4, "sel4_xpc_mb_s"),
        ("fig7ab/write", 4, "sel4_xpc_mb_s"),
        ("fig7c/buffers", 6, "speedup"),
        ("fig8ab/workloads", 6, "sel4_xpc_vs_twocopy"),
        ("fig8c/sizes", 4, "zircon_xpc_ops_per_s"),
        ("fig9a/sizes", 5, "speedup"),
        ("fig9b/sizes", 8, "ashmem_xpc_us"),
        ("table4", 7, "paper"),
        ("table5", 2, "call"),
        ("table6/published", 7, "cost_fraction"),
        ("table7", 6, "copies"),
    ] {
        let cells = grid(&doc, path);
        assert_eq!(cells.len(), len, "{path}");
        assert!(cells[0].get(key).is_some(), "{path} has no {key}");
    }

    let systems = grid(&doc, "systems");
    assert!(any(systems, "name", "seL4-onecopy"));
    let points = grid(&systems[0], "points");
    assert!(points
        .iter()
        .any(|p| p.get("phases").and_then(|ph| ph.get("trap")).is_some()));
}
