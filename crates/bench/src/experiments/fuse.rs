//! **Fuse** — fused multi-hop call programs (the AnyCall submit-once
//! shape): the client issues *one* submission and the chain of services
//! drives itself server-side, so the mechanism decides what a hop
//! costs. Two views share the table and the `"fuse"` section of
//! `BENCH_figures.json` (a [`run`] hands what it computed to the
//! [`json_section`] that follows it on the same thread):
//!
//! * **grid** — mechanism × chain depth {1..6} × handover on/off, each
//!   cell one fused program on an idle world. The headline metric is
//!   *crossings per request*: XPC serves the whole chain as one
//!   trampoline entry plus warm per-hop `xcall`s — crossings stay at 1
//!   at every depth — while the trap-based baselines re-enter the
//!   kernel per hop and their crossings scale linearly. Cycles and
//!   copied bytes ride along (relay-segment handover moves a 16-byte
//!   descriptor; copy mechanisms move the full payload every hop);
//! * **knee** — the depth-4 handover chain under the open-loop Poisson
//!   generator on u500, ρ swept over each mechanism's own calibrated
//!   capacity. Fusing shrinks per-request work, so the cheaper-crossing
//!   mechanisms keep their knees to the right at the same relative
//!   pressure.
//!
//! Every program is verified before it is priced:
//! [`super::verify::gate_program`] refuses cap-violating, over-deep, or
//! handover-stealing chains outright.

use super::{serve, Report};
use kernels::{paired_roster_factories, Factory};
use simos::{CallProgram, MultiWorld, Placement, Recipe, ServePolicy, ServeReport, Step, Topology};
use std::cell::RefCell;

/// Chain depths the grid sweeps.
pub const DEPTHS: [usize; 6] = [1, 2, 3, 4, 5, 6];

/// Request bytes carried into every hop.
pub const HOP_REQUEST: u64 = 1024;

/// Handler cycles burned at every hop.
pub const HOP_COMPUTE: u64 = 500;

/// Reply bytes from the last hop back to the client.
pub const REPLY_BYTES: u64 = 256;

/// Chain depth of the open-loop knee view.
pub const KNEE_DEPTH: usize = 4;

/// A uniform `depth`-hop chain program: client 0 calls services
/// `1..=depth` in order, [`HOP_REQUEST`] bytes and [`HOP_COMPUTE`]
/// cycles per hop, [`REPLY_BYTES`] back. With `handover` every edge
/// declares relay-segment intent (mechanisms that cannot handover
/// still copy the full payload).
pub fn chain(depth: usize, handover: bool) -> CallProgram {
    let mut r = Recipe::new(0);
    for svc in 1..=depth {
        r = if handover {
            r.handover(svc, HOP_REQUEST)
        } else {
            r.hop(svc, HOP_REQUEST)
        };
        r = r.compute(HOP_COMPUTE);
    }
    r.reply(REPLY_BYTES)
        .build()
        .expect("grid depths sit far below MAX_PROGRAM_HOPS")
}

/// One grid cell: a single fused program priced on an idle
/// `depth + 1`-core world under the identity map.
#[derive(Debug, Clone)]
pub struct FuseCell {
    /// Mechanism name.
    pub system: String,
    /// Chain depth (hops).
    pub depth: usize,
    /// Whether every edge declared handover intent.
    pub handover: bool,
    /// Completion cycles for the whole program (IPC + compute).
    pub cycles: u64,
    /// Crossings the entry mechanism charges the request.
    pub crossings: u64,
    /// Payload bytes physically copied.
    pub copied_bytes: u64,
}

/// The (mechanism × depth × handover) grid. Deterministic: every cell
/// builds a cold world and prices exactly one program.
pub fn grid_results() -> Vec<FuseCell> {
    // Pre-flight each distinct program serially (the gate panics with
    // figure context), then fan the 48 cells through the pool.
    for depth in DEPTHS {
        for handover in [false, true] {
            super::verify::gate_program(
                &format!("Fuse depth={depth} handover={handover}"),
                depth + 1,
                &chain(depth, handover),
            );
        }
    }
    let mut cells: Vec<(Factory, usize, bool)> = Vec::new();
    for mk in paired_roster_factories() {
        for depth in DEPTHS {
            for handover in [false, true] {
                cells.push((mk, depth, handover));
            }
        }
    }
    simos::par::map_cells(cells, |_, (mk, depth, handover), _| {
        let system = mk().name();
        let mut mw = MultiWorld::builder()
            .topology(Topology::single_socket(depth + 1))
            .build(mk);
        let pid = mw.register_program(chain(depth, handover));
        let map: Vec<usize> = (0..=depth).collect();
        let c = mw.exec(0, Step::Fused(pid), 0);
        FuseCell {
            system,
            depth,
            handover,
            cycles: c.done,
            crossings: mw.fused_crossings(pid, &map),
            copied_bytes: c.inv.copied_bytes,
        }
    })
}

/// One knee-curve cell: the depth-4 handover chain at offered load
/// `rho_x10`/10 of the mechanism's own calibrated capacity.
#[derive(Debug, Clone)]
pub struct FuseKneeCell {
    /// Offered load in tenths of calibrated capacity.
    pub rho_x10: u64,
    /// Measured saturation period (cycles per fused request at full
    /// throughput) the ρ axis is expressed against.
    pub capacity_period_cycles: u64,
    /// The serve outcome.
    pub report: ServeReport,
}

/// The knee roster: register the depth-4 handover chain in `mw` and
/// return the one-step fused recipe the serve driver replays.
fn fused_roster(mw: &mut MultiWorld) -> Vec<Vec<Step>> {
    let pid = mw.register_program(chain(KNEE_DEPTH, true));
    vec![vec![Step::Fused(pid)]]
}

/// The fused knee: mechanism × offered load on u500, same seed at every
/// ρ. Deterministic at any pool worker count: calibration runs as its
/// own pool phase, then the ρ cells fan out with the period pinned.
pub fn knee_results() -> Vec<FuseKneeCell> {
    super::verify::gate_program("Fuse-knee", KNEE_DEPTH + 1, &chain(KNEE_DEPTH, true));
    let topo = Topology::u500();
    let calibrated = simos::par::map_cells(paired_roster_factories(), |_, mk, _| {
        let period = serve::calibrate_capacity_period(&topo, mk, KNEE_DEPTH + 1, fused_roster);
        (mk, period)
    });
    let mut cells: Vec<(Factory, u64, u64)> = Vec::new();
    for (mk, period) in calibrated {
        for rho_x10 in serve::RHO_X10 {
            cells.push((mk, period, rho_x10));
        }
    }
    simos::par::map_cells(cells, |_, (mk, period, rho_x10), cs| {
        let trace = serve::poisson(serve::interarrival(period, rho_x10))
            .trace(serve::REQUESTS, 1)
            .expect("fused knee trace spec is valid");
        let mut mw = serve::world(&topo, mk);
        let recipes = fused_roster(&mut mw);
        let report = serve::run_cell(
            &mut mw,
            &ServePolicy::Static(Placement::RoundRobin),
            KNEE_DEPTH + 1,
            &recipes,
            &trace,
            &serve::knee_spec(),
            cs,
        );
        FuseKneeCell {
            rho_x10,
            capacity_period_cycles: period,
            report,
        }
    })
}

/// What the table and the JSON section both read: the grid and the knee.
type Parked = (Vec<FuseCell>, Vec<FuseKneeCell>);

thread_local! {
    /// The views [`run`] computed, parked for the [`json_section`] that
    /// follows it; take-once and thread-local, see the hand-off note in
    /// [`super`].
    static PARKED: RefCell<Option<Parked>> = const { RefCell::new(None) };
}

fn compute() -> Parked {
    (grid_results(), knee_results())
}

/// Regenerate the fuse table (the grid, with the knee appended).
pub fn run() -> Report {
    let views = compute();
    let report = table(&views);
    PARKED.set(Some(views));
    report
}

fn table((grid, knee): &Parked) -> Report {
    let mut rows: Vec<Vec<String>> = grid
        .iter()
        .map(|c| {
            vec![
                c.system.clone(),
                c.depth.to_string(),
                if c.handover { "yes" } else { "no" }.to_string(),
                c.cycles.to_string(),
                c.crossings.to_string(),
                c.copied_bytes.to_string(),
            ]
        })
        .collect();
    for c in knee {
        let r = &c.report;
        rows.push(vec![
            format!("{} rho={}.{}", r.system, c.rho_x10 / 10, c.rho_x10 % 10),
            KNEE_DEPTH.to_string(),
            "yes".to_string(),
            format!("p99us={:.1}", r.p99_us),
            format!("goodput/s={:.0}", r.goodput_rps),
            format!("shed={}", r.shed()),
        ]);
    }
    Report {
        id: "Fuse",
        caption: "Fused call programs: crossings-per-request stay at 1 under XPC at every depth while trap baselines scale linearly; depth-4 open-loop knee appended",
        headers: vec![
            "System".into(),
            "Depth".into(),
            "Handover".into(),
            "Cycles".into(),
            "Crossings".into(),
            "Copied B".into(),
        ],
        rows,
    }
}

/// The `"fuse"` section of `BENCH_figures.json`: grid + knee, taken
/// from the [`run`] before it, else computed here.
pub fn json_section() -> String {
    let (grid, knee) = PARKED.take().unwrap_or_else(compute);
    let grid = grid
        .iter()
        .map(|c| {
            format!(
                "      {{\"system\": \"{}\", \"depth\": {}, \"handover\": {}, \"cycles\": {}, \
                 \"crossings\": {}, \"copied_bytes\": {}}}",
                c.system, c.depth, c.handover, c.cycles, c.crossings, c.copied_bytes
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let knee = knee
        .iter()
        .map(|c| {
            let r = &c.report;
            format!(
                "      {{\"system\": \"{}\", \"rho_x10\": {}, \"capacity_period_cycles\": {}, \
                 \"offered\": {}, \"admitted\": {}, \"shed\": {}, \"goodput_rps\": {:.1}, \
                 \"p50_us\": {:.2}, \"p99_us\": {:.2}}}",
                r.system,
                c.rho_x10,
                c.capacity_period_cycles,
                r.offered,
                r.admitted,
                r.shed(),
                r.goodput_rps,
                r.p50_us,
                r.p99_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n    \"grid\": [\n{grid}\n    ],\n    \"knee\": [\n{knee}\n    ]\n  }}")
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

    fn cell<'a>(cells: &'a [FuseCell], sys: &str, depth: usize, handover: bool) -> &'a FuseCell {
        cells
            .iter()
            .find(|c| c.system == sys && c.depth == depth && c.handover == handover)
            .unwrap()
    }

    #[test]
    fn xpc_crossings_stay_at_one_while_baselines_scale() {
        let cells = grid_results();
        assert_eq!(cells.len(), 4 * DEPTHS.len() * 2);
        for depth in DEPTHS {
            for handover in [false, true] {
                let d = u64::try_from(depth).unwrap();
                assert_eq!(cell(&cells, "Zircon-XPC", depth, handover).crossings, 1);
                assert_eq!(cell(&cells, "seL4-XPC", depth, handover).crossings, 1);
                assert_eq!(cell(&cells, "Zircon", depth, handover).crossings, d);
                assert_eq!(cell(&cells, "seL4-onecopy", depth, handover).crossings, d);
            }
        }
    }

    #[test]
    fn cycles_grow_with_depth_and_fusing_beats_the_baselines() {
        let cells = grid_results();
        for c in &cells {
            assert!(c.cycles > 0, "{} depth {}", c.system, c.depth);
        }
        for handover in [false, true] {
            for sys in ["Zircon", "Zircon-XPC", "seL4-onecopy", "seL4-XPC"] {
                for w in DEPTHS.windows(2) {
                    assert!(
                        cell(&cells, sys, w[1], handover).cycles
                            > cell(&cells, sys, w[0], handover).cycles,
                        "{sys}: cycles not monotone in depth"
                    );
                }
            }
            // At depth 6 the fused chain's warm continuation hops beat
            // the per-hop kernel entries of the trap baselines.
            assert!(
                cell(&cells, "seL4-XPC", 6, handover).cycles
                    < cell(&cells, "seL4-onecopy", 6, handover).cycles
            );
            assert!(
                cell(&cells, "Zircon-XPC", 6, handover).cycles
                    < cell(&cells, "Zircon", 6, handover).cycles
            );
        }
    }

    #[test]
    fn handover_moves_descriptors_and_relay_copies_nothing() {
        let cells = grid_results();
        for depth in DEPTHS {
            let d = u64::try_from(depth).unwrap();
            // Relay-segment mechanisms never copy payload bytes.
            for sys in ["Zircon-XPC", "seL4-XPC"] {
                for handover in [false, true] {
                    assert_eq!(cell(&cells, sys, depth, handover).copied_bytes, 0);
                }
            }
            // Copy mechanisms move the full payload every hop plus the
            // reply, with or without declared handover intent (Zircon
            // is two-copy: user -> kernel -> user doubles every byte).
            let full = d * HOP_REQUEST + REPLY_BYTES;
            for handover in [false, true] {
                assert_eq!(
                    cell(&cells, "Zircon", depth, handover).copied_bytes,
                    2 * full
                );
                assert_eq!(
                    cell(&cells, "seL4-onecopy", depth, handover).copied_bytes,
                    full
                );
            }
        }
    }

    #[test]
    fn fused_knee_conserves_offered_arrivals() {
        let cells = knee_results();
        assert_eq!(cells.len(), 4 * super::super::serve::RHO_X10.len());
        for c in &cells {
            assert_eq!(c.report.offered, super::super::serve::REQUESTS);
            assert_eq!(
                c.report.admitted + c.report.shed(),
                c.report.offered,
                "{} rho {}",
                c.report.system,
                c.rho_x10
            );
            // Generous caps: the fused knee never sheds.
            assert_eq!(c.report.shed(), 0);
        }
        // Same seed at every rho: the tail is monotone per mechanism.
        for chunk in cells.chunks(super::super::serve::RHO_X10.len()) {
            for w in chunk.windows(2) {
                assert!(
                    w[1].report.p99_us >= w[0].report.p99_us,
                    "{}: fused knee wobbled",
                    w[0].report.system
                );
            }
        }
    }

    #[test]
    fn json_section_is_shaped() {
        let s = json_section();
        assert!(s.contains("\"grid\""));
        assert!(s.contains("\"knee\""));
        assert!(s.contains("\"crossings\": 1"));
        assert!(s.contains("\"rho_x10\": 10"));
    }
}
