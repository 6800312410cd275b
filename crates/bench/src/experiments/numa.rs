//! **NUMA** — mechanism × topology × placement: what the paper's
//! single-socket §5.2 story becomes on a multi-socket machine.
//!
//! Two views share the `"numa"` section of `BENCH_figures.json`:
//!
//! * **hops** — every roster system prices one 4 KiB call to a core on
//!   the *same* socket and one to a core two distance units away on a
//!   [`Topology::dual_socket`] world. Trap-based kernels pay the
//!   distance-scaled IPI + remote-wakeup + cache-transfer surcharge, so
//!   remote strictly exceeds local; XPC's migrating threads keep the
//!   intra-socket crossing free (zero [`Phase::CrossCore`]) and pay only
//!   the relay-segment cache-line distance term plus the remote x-entry
//!   shard fetch cross-socket;
//! * **load** — the Figure 8(c) HTTP chain under windowed load (W = 4)
//!   over (mechanism × topology × placement). On the dual-socket box
//!   round-robin blindly ships half the chains across the interconnect;
//!   the NUMA-aware least-loaded policy only jumps sockets once the
//!   local queue outgrows the distance penalty, and the
//!   [`Phase::Queue`] / [`Phase::CrossCore`] split in the ledger shows
//!   the trade.

use super::Report;
use kernels::{paired_roster_factories, Factory};
use services::http::{chain_steps, ChainSpec, CHAIN_SERVICES};
use simos::{
    Attribution, Invocation, IpcSystem, LoadGen, LoadReport, MultiWorld, Phase, Placement, Step,
    Topology,
};
use std::cell::RefCell;

/// Payload for the hop comparison (the paper's 4 KiB page regime, where
/// the cache-line distance term is visible even for migrating threads).
pub const HOP_BYTES: u64 = 4096;

/// Requests each windowed client keeps outstanding in the load grid.
pub const WINDOW: usize = 4;

/// One roster system's local-socket vs remote-socket pricing on the
/// dual-socket topology.
#[derive(Debug, Clone)]
pub struct Hop {
    /// System name.
    pub system: String,
    /// Whether its calls migrate the calling thread (XPC designs).
    pub migrating: bool,
    /// One hop to a core on the same socket (cores 0 → 1).
    pub local: Invocation,
    /// One hop to a core on the remote socket (cores 0 → 4, distance 2).
    pub remote: Invocation,
}

/// Price one local-socket and one remote-socket hop for every system in
/// the full roster, each on a fresh dual-socket world.
pub fn hops() -> Vec<Hop> {
    // One pool cell per roster system; each worker builds its worlds
    // from the factory pointer, so no `Box<dyn IpcSystem>` crosses a
    // thread boundary.
    simos::par::map_cells(kernels::full_roster_factories(), |_, mk, _| {
        let measure = |to: usize| {
            let mut mw = MultiWorld::builder()
                .topology(Topology::dual_socket())
                .build(mk);
            let step = Step::Oneway {
                from: 0,
                to,
                bytes: HOP_BYTES,
            };
            mw.exec(0, step, 0).inv
        };
        Hop {
            system: mk().name(),
            migrating: mk().migrating_threads(),
            local: measure(1),
            remote: measure(4),
        }
    })
}

fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("u500", Topology::u500()),
        ("dual-socket", Topology::dual_socket()),
    ]
}

fn policies() -> Vec<Placement> {
    vec![Placement::RoundRobin, Placement::LeastLoaded]
}

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

/// Run the (mechanism × topology × placement) windowed-load grid; each
/// cell is `(topology_label, report)`. Deterministic (fixed seed).
pub fn results() -> Vec<(&'static str, LoadReport)> {
    let spec = LoadGen::default();
    // Pre-flight serially, then fan the 16 (mechanism, topology,
    // policy) cells through the pool with per-worker scratch.
    type GridCell = (Factory, Vec<Vec<Step>>, &'static str, Topology, Placement);
    let mut cells: Vec<GridCell> = Vec::new();
    for mk in paired_roster_factories() {
        let handover = mk().supports_handover();
        let recipes = recipes(handover);
        super::verify::gate("NUMA", CHAIN_SERVICES, &recipes);
        for (label, topo) in topologies() {
            for policy in policies() {
                cells.push((mk, recipes.clone(), label, topo.clone(), policy));
            }
        }
    }
    simos::par::map_cells(cells, |_, (mk, recipes, label, topo, policy), scratch| {
        let mut mw = MultiWorld::builder().topology(topo).build(mk);
        let r = simos::load::run_windowed_with(
            &mut mw,
            &policy,
            CHAIN_SERVICES,
            &recipes,
            &spec,
            WINDOW,
            &mut scratch.sweep,
            Attribution::Full(&mut scratch.arena),
        )
        .expect("NUMA grid cell must be runnable");
        (label, r)
    })
}

thread_local! {
    /// The load grid [`run`] computed, parked for the [`json_section`] that
    /// follows it; take-once and thread-local, see the hand-off note in
    /// [`super`].
    static PARKED: RefCell<Option<Vec<(&'static str, LoadReport)>>> = const { RefCell::new(None) };
}

/// Regenerate the NUMA table (the load grid; the hop comparison lives in
/// the JSON section).
pub fn run() -> Report {
    let grid = results();
    let report = table(&grid);
    PARKED.set(Some(grid));
    report
}

fn table(grid: &[(&'static str, LoadReport)]) -> Report {
    let rows = grid
        .iter()
        .map(|(topo, r)| {
            vec![
                r.system.clone(),
                topo.to_string(),
                r.policy.to_string(),
                r.cores.to_string(),
                format!("{:.0}", r.throughput_rps),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:.0}%", r.cross_core_fraction() * 100.0),
                format!("{:.0}%", r.queue_fraction() * 100.0),
                match r.engine_cache {
                    Some(s) => s.shard_misses.to_string(),
                    None => "-".into(),
                },
            ]
        })
        .collect();
    Report {
        id: "NUMA",
        caption: "HTTP chain under W=4 windowed load: topology x placement (16 clients x 400 reqs)",
        headers: vec![
            "System".into(),
            "Topology".into(),
            "Placement".into(),
            "Cores".into(),
            "Req/s".into(),
            "p50 us".into(),
            "p99 us".into(),
            "x-core".into(),
            "queue".into(),
            "shard miss".into(),
        ],
        rows,
    }
}

/// The `"numa"` section of `BENCH_figures.json`: the per-system hop
/// comparison (computed here; only the JSON shows it) plus the
/// windowed-load grid of the [`run`] before it, else computed here.
pub fn json_section() -> String {
    let hop_cells = hops()
        .iter()
        .map(|h| {
            format!(
                "      {{\"system\": \"{}\", \"migrating\": {}, \"payload_bytes\": {HOP_BYTES}, \
                 \"local_cycles\": {}, \"remote_cycles\": {}, \
                 \"local_cross_core\": {}, \"remote_cross_core\": {}, \
                 \"remote_shard_miss\": {}}}",
                h.system,
                h.migrating,
                h.local.total,
                h.remote.total,
                h.local.ledger.get(Phase::CrossCore),
                h.remote.ledger.get(Phase::CrossCore),
                h.remote.ledger.get(Phase::ShardMiss),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let load_cells = PARKED
        .take()
        .unwrap_or_else(results)
        .iter()
        .map(|(topo, r)| {
            let shard_misses = match r.engine_cache {
                Some(s) => s.shard_misses.to_string(),
                None => "null".into(),
            };
            format!(
                "      {{\"system\": \"{}\", \"topology\": \"{topo}\", \"policy\": \"{}\", \
                 \"cores\": {}, \"window\": {}, \"throughput_rps\": {:.1}, \
                 \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"cross_core_fraction\": {:.4}, \
                 \"queue_fraction\": {:.4}, \"shard_misses\": {shard_misses}}}",
                r.system,
                r.policy,
                r.cores,
                r.window,
                r.throughput_rps,
                r.p50_us,
                r.p99_us,
                r.cross_core_fraction(),
                r.queue_fraction(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n    \"hops\": [\n{hop_cells}\n    ],\n    \"load\": [\n{load_cells}\n    ]\n  }}")
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
    fn grid_covers_mechanisms_by_topologies_by_policies() {
        let cells = results();
        assert_eq!(cells.len(), 4 * 2 * 2);
        for (topo, r) in &cells {
            let expect_cores = if *topo == "u500" { 4 } else { 8 };
            assert_eq!(r.cores, expect_cores, "{} on {topo}", r.system);
            assert_eq!(r.window, WINDOW);
            assert!(r.throughput_rps > 0.0, "{} on {topo}", r.system);
        }
    }

    #[test]
    fn single_socket_cells_never_pay_shard_misses() {
        for (topo, r) in results() {
            if topo == "u500" {
                if let Some(s) = r.engine_cache {
                    assert_eq!(s.shard_misses, 0, "{} on u500", r.system);
                }
            }
        }
    }

    #[test]
    fn dual_socket_round_robin_pays_where_xpc_does_not() {
        let cells = results();
        let cell = |sys: &str, topo: &str, pol: &str| {
            cells
                .iter()
                .find(|(t, r)| *t == topo && r.system == sys && r.policy == pol)
                .map(|(_, r)| r)
                .unwrap()
        };
        // Blind round robin on the dual-socket box: Zircon pays heavy
        // cross-core/interconnect cycles, XPC's stays small (only the
        // relay-segment line-distance term on remote chains).
        let z = cell("Zircon", "dual-socket", "round-robin");
        let x = cell("seL4-XPC", "dual-socket", "round-robin");
        assert!(z.cross_core_fraction() > x.cross_core_fraction());
        // XPC chains crossing sockets do record shard misses.
        assert!(x.engine_cache.unwrap().shard_misses > 0);
        // And on the single socket, XPC keeps the crossing entirely free.
        let local = cell("seL4-XPC", "u500", "round-robin");
        assert_eq!(local.ledger.get(Phase::CrossCore), 0);
    }

    #[test]
    fn json_section_is_shaped() {
        let s = json_section();
        assert!(s.contains("\"hops\""));
        assert!(s.contains("\"load\""));
        assert!(s.contains("\"remote_shard_miss\""));
    }
}
