//! The `BENCH_figures.json` document: the same bytes whether each section
//! was handed its grid by a `run()` or computed its own, and the schema
//! its readers rely on, checked on the `Value` tree (what each section's
//! cells hold is checked by that experiment's `json_section_is_shaped`).

mod common;

use xpc_bench::experiments;
use xpc_bench::json::Value;

#[test]
fn the_document_after_a_full_pass_equals_the_cold_one() {
    let cold = experiments::json_document();
    for (_, run) in experiments::all() {
        run();
    }
    let handed_off = experiments::json_document();
    common::assert_same_lines("the handed-off document", &cold, &handed_off);
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
    let want = "systems fig5 scale pipeline ablations numa verify serve fuse harden";
    assert_eq!(keys.join(" "), want);
    let doc = Value::Object(sections);
    assert_uniform("", &doc);
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
