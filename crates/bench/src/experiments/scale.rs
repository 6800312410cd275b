//! **Scale-out** — §5.2 multi-core: the Figure 8(c) HTTP chain driven by
//! a closed-loop load generator over a 4-core [`MultiWorld`], swept over
//! placement policies. Same-core placement serializes everything on one
//! core; spreading the chain buys parallelism but pays the cross-core
//! surcharge on every hop — except under XPC, whose migrating threads
//! cross cores for free. Throughput and the latency percentiles all
//! derive from per-request virtual-time spans and invocation ledgers.

use super::Report;
use kernels::{paired_roster_factories, Factory};
use services::http::{chain_steps, ChainSpec, CHAIN_SERVICES};
use simos::{Attribution, IpcSystem, LoadGen, LoadReport, MultiWorld, Placement, Step};
use std::cell::RefCell;

/// Cores in the scale-out world.
pub const CORES: usize = 4;

fn policies() -> Vec<Placement> {
    vec![
        Placement::SameCore,
        Placement::Pinned(vec![0, 1, 2, 3]),
        Placement::RoundRobin,
        Placement::LeastLoaded,
    ]
}

/// The request mix: encrypted GETs over three file sizes around the
/// paper's web-server working set (Figure 8(c) serves 1K–16K pages).
fn recipes(handover: bool) -> Vec<Vec<Step>> {
    [1024u64, 4096, 16384]
        .iter()
        .map(|&len| {
            chain_steps(
                "/index.html",
                len,
                ChainSpec::default().with_handover(handover),
            )
        })
        .collect()
}

/// Run the full (mechanism × policy) grid. Deterministic: the generator
/// seed is fixed and every cell re-seeds from it, so every call — at any
/// pool worker count — returns bit-identical reports.
pub fn results() -> Vec<LoadReport> {
    let spec = LoadGen::default();
    // Pre-flight serially (the gate panics with figure context), then
    // fan the 16 (mechanism, policy) cells through the pool. Each
    // worker reuses one scratch + arena across the cells it draws, so
    // steady state stays allocation-free per worker.
    let mut cells: Vec<(Factory, Vec<Vec<Step>>, Placement)> = Vec::new();
    for mk in paired_roster_factories() {
        let handover = mk().supports_handover();
        let recipes = recipes(handover);
        super::verify::gate("Scale-out", CHAIN_SERVICES, &recipes);
        for policy in policies() {
            cells.push((mk, recipes.clone(), policy));
        }
    }
    simos::par::map_cells(cells, |_, (mk, recipes, policy), scratch| {
        // The single-socket u500 preset: byte-identical to the
        // pre-topology 4-core world.
        let mut mw = MultiWorld::builder().cores(CORES).build(mk);
        simos::load::run_windowed_with(
            &mut mw,
            &policy,
            CHAIN_SERVICES,
            &recipes,
            &spec,
            1,
            &mut scratch.sweep,
            Attribution::Full(&mut scratch.arena),
        )
        .expect("scale grid cell must be runnable")
    })
}

thread_local! {
    /// The grid [`run`] computed, parked for the [`json_section`] that
    /// follows it; take-once and thread-local, see the hand-off note in
    /// [`super`].
    static PARKED: RefCell<Option<Vec<LoadReport>>> = const { RefCell::new(None) };
}

/// Regenerate the scale-out table.
pub fn run() -> Report {
    let grid = results();
    let report = table(&grid);
    PARKED.set(Some(grid));
    report
}

fn table(grid: &[LoadReport]) -> Report {
    let rows = grid
        .iter()
        .map(|r| {
            vec![
                r.system.clone(),
                r.policy.to_string(),
                format!("{:.0}", r.throughput_rps),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p95_us),
                format!("{:.1}", r.p99_us),
                format!("{:.0}%", r.cross_core_fraction() * 100.0),
            ]
        })
        .collect();
    Report {
        id: "Scale-out",
        caption: "HTTP chain on 4 cores: throughput/latency by placement (closed loop, 16 clients x 400 reqs)",
        headers: vec![
            "System".into(),
            "Placement".into(),
            "Req/s".into(),
            "p50 us".into(),
            "p95 us".into(),
            "p99 us".into(),
            "x-core".into(),
        ],
        rows,
    }
}

/// The `"scale"` section of `BENCH_figures.json`: one object per
/// (mechanism, policy) cell with the ledger-derived metrics, from the
/// grid of the [`run`] before it, else computed here.
pub fn json_section() -> String {
    let cells = PARKED
        .take()
        .unwrap_or_else(results)
        .iter()
        .map(|r| {
            format!(
                "    {{\"system\": \"{}\", \"policy\": \"{}\", \"cores\": {}, \"clients\": {}, \
                 \"requests\": {}, \"throughput_rps\": {:.1}, \"mean_us\": {:.2}, \
                 \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}, \
                 \"cross_core_fraction\": {:.4}}}",
                r.system,
                r.policy,
                r.cores,
                r.clients,
                r.requests,
                r.throughput_rps,
                r.mean_us,
                r.p50_us,
                r.p95_us,
                r.p99_us,
                r.cross_core_fraction()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{cells}\n  ]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_is_handed_off_once() {
        crate::experiments::assert_hand_off(
            || PARKED.with_borrow(Option::is_some),
            run,
            json_section,
        );
    }

    #[test]
    fn grid_covers_mechanisms_by_policies() {
        let rows = results();
        assert_eq!(rows.len(), 4 * 4);
        for r in &rows {
            assert_eq!(r.cores, CORES);
            assert_eq!(r.requests, LoadGen::default().requests);
            assert!(r.throughput_rps > 0.0, "{} / {}", r.system, r.policy);
            assert!(r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
        }
    }

    #[test]
    fn xpc_scales_out_where_baselines_pay_the_surcharge() {
        // Under XPC the cross-core surcharge is zero, so spreading the
        // chain must not cost IPC cycles; under Zircon every spread hop
        // pays ~10.7k cycles.
        let rows = results();
        let cell = |sys: &str, pol: &str| {
            rows.iter()
                .find(|r| r.system == sys && r.policy == pol)
                .unwrap()
        };
        assert_eq!(cell("seL4-XPC", "round-robin").cross_core_fraction(), 0.0);
        assert!(cell("Zircon", "pinned").cross_core_fraction() > 0.3);
        // Fully spreading the Zircon chain is a *loss*: the surcharge on
        // every hop outweighs the parallelism.
        assert!(
            cell("Zircon", "pinned").throughput_rps < cell("Zircon", "same-core").throughput_rps
        );
        // XPC turns the same spread into a >2x win.
        assert!(
            cell("seL4-XPC", "round-robin").throughput_rps
                > 2.0 * cell("seL4-XPC", "same-core").throughput_rps
        );
    }
}
