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

use super::{Column, Experiment, Layout};
use crate::json::Value;
use kernels::{paired_roster_factories, Factory};
use services::http::CHAIN_SERVICES;
use simos::{
    Attribution, Invocation, IpcSystem, LoadGen, LoadReport, MultiWorld, Phase, Placement, Step,
    Topology,
};

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
pub(crate) fn hops() -> Vec<Hop> {
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

/// The topologies the NUMA and serve grids sweep.
pub(super) fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("u500", Topology::u500()),
        ("dual-socket", Topology::dual_socket()),
    ]
}

fn policies() -> Vec<Placement> {
    vec![Placement::RoundRobin, Placement::LeastLoaded]
}

/// Run the (mechanism × topology × placement) windowed-load grid; each
/// cell is `(topology_label, report)`. Deterministic (fixed seed).
pub(crate) fn results() -> Vec<(&'static str, LoadReport)> {
    let spec = LoadGen::default();
    // Pre-flight serially, then fan the 16 (mechanism, topology,
    // policy) cells through the pool with per-worker scratch.
    type GridCell = (Factory, Vec<Vec<Step>>, &'static str, Topology, Placement);
    let mut cells: Vec<GridCell> = Vec::new();
    for mk in paired_roster_factories() {
        let handover = mk().supports_handover();
        let recipes = super::scale::recipes(handover);
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

/// The NUMA experiment: the `hops` (only the JSON view shows them) and
/// the windowed-load grid of `results`.
pub struct Numa;

impl Experiment for Numa {
    type Grid = (Vec<Hop>, Vec<(&'static str, LoadReport)>);

    fn compute() -> Self::Grid {
        (hops(), results())
    }

    /// The per-system hop comparison plus the windowed-load grid.
    fn json((hops, load): &Self::Grid) -> Value {
        Value::Object(vec![
            ("hops", super::cell_json(&HOP_COLUMNS, hops)),
            ("load", super::cell_json(&LOAD_COLUMNS, load)),
        ])
    }

    /// The load grid; the hop comparison is in the view only.
    fn layout() -> Layout {
        let caption =
            "HTTP chain under W=4 windowed load: topology x placement (16 clients x 400 reqs)";
        Layout::columns("NUMA", caption, "load", &LOAD_COLUMNS)
    }
}

/// The hop comparison's leaves (the table does not print them).
#[rustfmt::skip]
const HOP_COLUMNS: [Column<Hop>; 8] = [
    ("", "system", |h| h.system.as_str().into(), ""),
    ("", "migrating", |h| h.migrating.into(), ""),
    ("", "payload_bytes", |_| HOP_BYTES.into(), ""),
    ("", "local_cycles", |h| h.local.total().into(), ""),
    ("", "remote_cycles", |h| h.remote.total().into(), ""),
    ("", "local_cross_core", |h| h.local.ledger.get(Phase::CrossCore).into(), ""),
    ("", "remote_cross_core", |h| h.remote.ledger.get(Phase::CrossCore).into(), ""),
    ("", "remote_shard_miss", |h| h.remote.ledger.get(Phase::ShardMiss).into(), ""),
];

/// The NUMA load-grid columns over (topology, report) cells.
#[rustfmt::skip]
const LOAD_COLUMNS: [Column<(&str, LoadReport)>; 11] = [
    ("System", "system", |(_, r)| r.system.as_str().into(), "{system}"),
    ("Topology", "topology", |&(topo, _)| topo.into(), "{topology}"),
    ("Placement", "policy", |(_, r)| r.policy.into(), "{policy}"),
    ("Cores", "cores", |(_, r)| r.cores.into(), "{cores}"),
    ("", "window", |(_, r)| r.window.into(), ""),
    ("Req/s", "throughput_rps", |(_, r)| Value::Fixed(r.throughput_rps, 1), "{throughput_rps:.0}"),
    ("p50 us", "p50_us", |(_, r)| Value::Fixed(r.p50_us, 2), "{p50_us:.1}"),
    ("p99 us", "p99_us", |(_, r)| Value::Fixed(r.p99_us, 2), "{p99_us:.1}"),
    ("x-core", "cross_core_fraction", |(_, r)| Value::Fixed(r.cross_core_fraction(), 4),
     "{cross_core_fraction:%0}%"),
    ("queue", "queue_fraction", |(_, r)| Value::Fixed(r.queue_fraction(), 4), "{queue_fraction:%0}%"),
    ("shard miss", "shard_misses", |(_, r)| r.engine_cache.map(|s| s.shard_misses).into(),
     "{shard_misses}"),
];

/// The `"numa"` section of `BENCH_figures.json`.
pub fn json_section() -> String {
    super::section("numa").render(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{assert_invisible_hand_off, cells_at};

    #[test]
    fn the_grid_is_handed_off_once() {
        assert_invisible_hand_off::<Numa>(json_section);
    }

    #[test]
    fn json_section_is_shaped() {
        let s = Numa::json(&Numa::compute());
        assert!(!cells_at(&s, "load").is_empty());
        let hops = cells_at(&s, "hops");
        assert!(!hops.is_empty());
        assert!(hops.iter().all(|h| h.get("remote_shard_miss").is_some()));
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
}
