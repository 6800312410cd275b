//! The scale-out experiment end to end: determinism of the seeded load
//! generator, the §5.2 scale-out story in the numbers, and the JSON
//! section's cells.

use xpc_bench::experiments::{scale, Experiment};
use xpc_bench::json::Value;

#[test]
fn same_seed_reproduces_the_whole_grid() {
    // Everything — virtual clocks, placement, percentiles — is seeded
    // and deterministic, so two full grid runs are bit-identical.
    assert_eq!(scale::results(), scale::results());
}

#[test]
fn xpc_round_robin_beats_its_same_core_placement() {
    let rows = scale::results();
    let cell = |sys: &str, pol: &str| {
        rows.iter()
            .find(|r| r.system == sys && r.policy == pol)
            .unwrap_or_else(|| panic!("missing cell {sys}/{pol}"))
            .throughput_rps
    };
    assert!(cell("seL4-XPC", "round-robin") > cell("seL4-XPC", "same-core"));
    assert!(cell("Zircon-XPC", "round-robin") > cell("Zircon-XPC", "same-core"));
}

#[test]
fn json_section_has_the_grid_and_the_metrics() {
    let Value::Array(cells) = scale::Scale::json(&scale::Scale::compute()) else {
        panic!("the scale section is not an array");
    };
    assert_eq!(cells.len(), 16, "4 mechanisms x 4 policies");
    for c in &cells {
        assert_eq!(c.get("cores"), Some(&4u64.into()), "{c:?}");
        for key in [
            "system",
            "policy",
            "throughput_rps",
            "p50_us",
            "p95_us",
            "p99_us",
            "cross_core_fraction",
        ] {
            assert!(c.get(key).is_some(), "missing {key} in {c:?}");
        }
    }
    for policy in ["same-core", "pinned", "round-robin", "least-loaded"] {
        let want = Value::from(policy);
        assert!(
            cells.iter().any(|c| c.get("policy") == Some(&want)),
            "missing policy {policy}"
        );
    }
}
