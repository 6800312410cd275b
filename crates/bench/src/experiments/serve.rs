//! **Serve** — open-loop trace-driven serving: the tail-vs-load knee
//! curve a closed loop structurally cannot show.
//!
//! Four views share the `"serve"` section of `BENCH_figures.json`; the
//! table shows the first two:
//!
//! * **knee** — mechanism × topology × offered load. Per (mechanism,
//!   topology) the saturation throughput is measured by serving a
//!   back-to-back probe trace ([`calibrate_capacity_period`]); the
//!   offered-load axis is then ρ ∈ {0.2 … 1.5} of that measured
//!   capacity, so the same ρ means the same *relative* pressure for
//!   every mechanism. Each cell replays a
//!   seeded Poisson [`ArrivalTrace`] (same seed at every ρ — shrinking
//!   the mean interarrival scales every gap of the same unit-exponential
//!   sequence, so per-request waits are weakly increasing in ρ and the
//!   p99-vs-load curve is monotone non-decreasing, asserted in tests).
//!   Below the knee every mechanism's p99 sits near its unloaded
//!   latency; past ρ ≈ 1 the queues never drain and p99 diverges —
//!   the crossing-cost gap between mechanisms becomes a *capacity* gap:
//!   cheaper calls push the knee to the right;
//! * **admission** — one overloaded cell (ρ = 1.5) swept over tenant
//!   queue caps. Shedding is typed and conserved exactly
//!   (`admitted + shed == offered`); tighter caps trade goodput for a
//!   bounded tail, and the shed rate is a first-class output;
//! * **bursty** — Poisson vs the on-off modulated process at the *same*
//!   long-run offered load (ρ = 0.8). Mean rate is not the story: the
//!   bursty trace's in-burst rate exceeds capacity and its p99 pays for
//!   the whole burst;
//! * **autoscale** — the feedback controller on the dual-socket box vs a
//!   static all-cores round-robin baseline, with grow/shrink event
//!   counts. The controller starts at one core and earns the rest from
//!   observed backlog.

use super::numa::topologies;
use super::scale::recipes;
use super::{Column, Experiment, Layout};
use crate::json::Value;
use kernels::{paired_roster_factories, Factory, XpcIpc};
use services::http::CHAIN_SERVICES;
use simos::serve::serve_with;
use simos::{
    ArrivalProcess, ArrivalTrace, Attribution, AutoscaleCfg, CellScratch, MultiWorld, OpenLoopGen,
    PhaseTotals, Placement, ServePolicy, ServeReport, ServeSpec, Step, TenantClass, Topology,
};

/// Offered load grid, in tenths of the calibrated capacity
/// (ρ × 10): from far below the knee to 1.5× past it.
pub const RHO_X10: [u64; 6] = [2, 5, 8, 10, 12, 15];

/// Arrivals per knee / bursty / autoscale cell.
pub const REQUESTS: u64 = 4_000;

/// Tenant queue caps the admission view sweeps at ρ = 1.5.
pub const ADMISSION_CAPS: [usize; 3] = [8, 64, 512];

/// The admission sweep's offered load, in tenths of capacity.
const ADMISSION_RHO_X10: u64 = 15;

/// Tenants every serve trace is tagged with.
pub const TENANTS: u32 = 4;

/// Trace seed (shared by every view; the knee holds it fixed across ρ).
pub const SEED: u64 = 0x5e7e;

/// Per-tenant p99 SLO for the knee grid (µs): XPC meets it below the
/// knee and loses it past saturation; the trap-based baselines cannot
/// meet it at any load (their unloaded tail already exceeds it) — the
/// crossing-cost gap restated as an SLO verdict.
pub const SLO_P99_US: f64 = 2_000.0;

/// Retain 1-in-N spans; totals stay exact (same as the closed-loop
/// sampled mode).
const SAMPLE_EVERY: u64 = 32;

pub(super) fn world(topo: &Topology, mk: Factory) -> MultiWorld {
    MultiWorld::builder().topology(topo.clone()).build(mk)
}

/// Arrivals in the capacity-calibration probe.
pub const CAPACITY_PROBE: u64 = 512;

/// Builds a cell's recipe roster against the world that will serve it:
/// a fused roster has to register its program there.
pub type Roster = fn(&mut MultiWorld) -> Vec<Vec<Step>>;

/// The HTTP chain roster, handing over where the world's mechanism can.
fn chain_roster(mw: &mut MultiWorld) -> Vec<Vec<Step>> {
    recipes(mw.core(0).handover())
}

/// Measured saturation period — mean cycles per completed request at
/// full throughput — for a (mechanism, topology, recipe mix): a
/// back-to-back probe trace (mean interarrival 1 cycle, same seed and
/// recipe draws as the real traces) is served and its makespan divided
/// by the request count. This is *empirical* capacity: it already
/// includes cross-core hop costs and the head-of-line blocking a
/// multi-core chain suffers under round-robin maps, which cap effective
/// utilization well below `cores / per-request-work`. ρ expressed
/// against it makes ρ = 1.0 the true knife edge.
///
/// # Panics
///
/// If `roster` builds more than `u32::MAX` recipes, or the probe trace
/// cannot be served (a recipe names a service at or past `n_services`).
pub fn calibrate_capacity_period(
    topo: &Topology,
    mk: Factory,
    n_services: usize,
    roster: Roster,
) -> u64 {
    let mut mw = world(topo, mk);
    let recipes = roster(&mut mw);
    let n_recipes = u32::try_from(recipes.len()).expect("roster fits u32");
    let probe = poisson(1)
        .trace(CAPACITY_PROBE, n_recipes)
        .expect("probe trace spec is valid");
    let r = simos::serve::serve(
        &mut mw,
        &ServePolicy::Static(Placement::RoundRobin),
        n_services,
        &recipes,
        &probe,
        &knee_spec(),
    )
    .expect("calibration probe must serve");
    (r.makespan_cycles / CAPACITY_PROBE).max(1)
}

/// Mean interarrival (cycles) putting `rho_x10`/10 of the measured
/// capacity on offer: `period / ρ`.
pub(super) fn interarrival(capacity_period_cycles: u64, rho_x10: u64) -> u64 {
    (capacity_period_cycles * 10 / rho_x10).max(1)
}

pub(super) fn knee_spec() -> ServeSpec {
    ServeSpec {
        tenants: TENANTS,
        classes: vec![TenantClass {
            // Generous: the knee view shows queueing, not shedding.
            queue_cap: 1 << 20,
            slo_p99_us: SLO_P99_US,
        }],
        backlog_cap_cycles: 0,
    }
}

pub(super) fn poisson(mean: u64) -> OpenLoopGen {
    OpenLoopGen {
        process: ArrivalProcess::Poisson,
        mean_interarrival_cycles: mean,
        tenants: TENANTS,
        users: 1_000_000,
        seed: SEED,
    }
}

/// Serve one cell with the worker's scratch and sampled attribution
/// (exact totals, 1-in-N retained spans).
pub(super) fn run_cell(
    mw: &mut MultiWorld,
    policy: &ServePolicy,
    n_services: usize,
    recipes: &[Vec<Step>],
    trace: &ArrivalTrace,
    spec: &ServeSpec,
    cs: &mut CellScratch,
) -> ServeReport {
    let mut totals = PhaseTotals::new();
    serve_with(
        mw,
        policy,
        n_services,
        recipes,
        trace,
        spec,
        &mut cs.sweep,
        Attribution::Sampled {
            every: SAMPLE_EVERY,
            totals: &mut totals,
            arena: &mut cs.arena,
        },
    )
    .expect("serve cell must be runnable")
}

/// One knee-curve cell.
#[derive(Debug, Clone)]
pub struct KneeCell {
    /// Topology label.
    pub topology: &'static str,
    /// Offered load in tenths of calibrated capacity.
    pub rho_x10: u64,
    /// Measured saturation period (cycles per request at full
    /// throughput) the ρ axis is expressed against.
    pub capacity_period_cycles: u64,
    /// The serve outcome.
    pub report: ServeReport,
}

/// The knee grid: mechanism × topology × offered load, same seed at
/// every ρ. Deterministic at any pool worker count: calibration runs as
/// its own pool phase (periods depend only on the (mechanism, topology)
/// pair), then the ρ cells fan out with the period pinned per cell.
pub(crate) fn knee_results() -> Vec<KneeCell> {
    let spec = knee_spec();
    // Phase A: per-(mechanism, topology) capacity calibration.
    let mut calib: Vec<(Factory, Vec<Vec<Step>>, &'static str, Topology)> = Vec::new();
    for mk in paired_roster_factories() {
        let handover = mk().supports_handover();
        let recipes = recipes(handover);
        super::verify::gate("Serve", CHAIN_SERVICES, &recipes);
        for (label, topo) in topologies() {
            calib.push((mk, recipes.clone(), label, topo));
        }
    }
    let calibrated = simos::par::map_cells(calib, |_, (mk, recipes, label, topo), _| {
        let period = calibrate_capacity_period(&topo, mk, CHAIN_SERVICES, chain_roster);
        (mk, recipes, label, topo, period)
    });
    // Phase B: the 48 (mechanism, topology, ρ) serve cells, each
    // carrying its calibrated period and offered ρ.
    type RhoCell = (Factory, Vec<Vec<Step>>, &'static str, Topology, u64, u64);
    let mut cells: Vec<RhoCell> = Vec::new();
    for (mk, recipes, label, topo, period) in calibrated {
        for rho_x10 in RHO_X10 {
            cells.push((mk, recipes.clone(), label, topo.clone(), period, rho_x10));
        }
    }
    simos::par::map_cells(
        cells,
        |_, (mk, recipes, label, topo, period, rho_x10), cs| {
            let mean = interarrival(period, rho_x10);
            let n_recipes = u32::try_from(recipes.len()).expect("roster fits u32");
            let trace = poisson(mean)
                .trace(REQUESTS, n_recipes)
                .expect("knee trace spec is valid");
            let mut mw = world(&topo, mk);
            let r = run_cell(
                &mut mw,
                &ServePolicy::Static(Placement::RoundRobin),
                CHAIN_SERVICES,
                &recipes,
                &trace,
                &spec,
                cs,
            );
            KneeCell {
                topology: label,
                rho_x10,
                capacity_period_cycles: period,
                report: r,
            }
        },
    )
}

/// One admission-sweep cell: an overloaded world under a given tenant
/// queue cap.
#[derive(Debug, Clone)]
pub struct AdmissionCell {
    /// The tenant queue cap this cell bounds admission with.
    pub queue_cap: usize,
    /// The serve outcome (shed accounting is the point).
    pub report: ServeReport,
}

/// The admission sweep: seL4-XPC on u500 at ρ = 1.5, queue caps from
/// tight to loose. Deterministic.
pub(crate) fn admission_results() -> Vec<AdmissionCell> {
    let mk: Factory = || Box::new(XpcIpc::sel4_xpc());
    let recipes = recipes(mk().supports_handover());
    super::verify::gate("Serve-admission", CHAIN_SERVICES, &recipes);
    let topo = Topology::u500();
    let period = calibrate_capacity_period(&topo, mk, CHAIN_SERVICES, chain_roster);
    let mean = interarrival(period, ADMISSION_RHO_X10);
    let n_recipes = u32::try_from(recipes.len()).expect("roster fits u32");
    let trace = poisson(mean)
        .trace(REQUESTS, n_recipes)
        .expect("admission trace spec is valid");
    // The cap cells share one calibrated trace by reference; the pool
    // closure only reads it.
    simos::par::map_cells(ADMISSION_CAPS.to_vec(), |_, queue_cap, cs| {
        let spec = ServeSpec {
            tenants: TENANTS,
            classes: vec![TenantClass {
                queue_cap,
                slo_p99_us: SLO_P99_US,
            }],
            backlog_cap_cycles: 0,
        };
        let mut mw = world(&topo, mk);
        let report = run_cell(
            &mut mw,
            &ServePolicy::Static(Placement::RoundRobin),
            CHAIN_SERVICES,
            &recipes,
            &trace,
            &spec,
            cs,
        );
        AdmissionCell { queue_cap, report }
    })
}

/// One bursty-vs-Poisson cell.
#[derive(Debug, Clone)]
pub struct BurstyCell {
    /// Arrival-process label (`poisson` / `on-off`).
    pub process: &'static str,
    /// The serve outcome.
    pub report: ServeReport,
}

/// Poisson vs on-off at the same long-run offered load (ρ = 0.8) for
/// every mechanism on u500. Deterministic.
pub(crate) fn bursty_results() -> Vec<BurstyCell> {
    let topo = Topology::u500();
    let spec = knee_spec();
    // One pool cell per mechanism (each calibrates, then serves its
    // Poisson/on-off pair in order); flattening preserves the serial
    // row order because reduction is index-ordered.
    let mut mechs: Vec<(Factory, Vec<Vec<Step>>)> = Vec::new();
    for mk in paired_roster_factories() {
        let recipes = recipes(mk().supports_handover());
        super::verify::gate("Serve-bursty", CHAIN_SERVICES, &recipes);
        mechs.push((mk, recipes));
    }
    simos::par::map_cells(mechs, |_, (mk, recipes), cs| {
        let period = calibrate_capacity_period(&topo, mk, CHAIN_SERVICES, chain_roster);
        let mean = interarrival(period, 8);
        let n_recipes = u32::try_from(recipes.len()).expect("roster fits u32");
        [
            ("poisson", ArrivalProcess::Poisson),
            (
                "on-off",
                ArrivalProcess::OnOff {
                    burst_len: 32,
                    accel_x10: 60,
                },
            ),
        ]
        .into_iter()
        .map(|(label, process)| {
            let trace = OpenLoopGen {
                process,
                ..poisson(mean)
            }
            .trace(REQUESTS, n_recipes)
            .expect("bursty trace spec is valid");
            let mut mw = world(&topo, mk);
            let report = run_cell(
                &mut mw,
                &ServePolicy::Static(Placement::RoundRobin),
                CHAIN_SERVICES,
                &recipes,
                &trace,
                &spec,
                cs,
            );
            BurstyCell {
                process: label,
                report,
            }
        })
        .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One autoscale cell (controller or static baseline).
#[derive(Debug, Clone)]
pub struct AutoscaleCell {
    /// Policy label (`autoscale` / `static:round-robin`).
    pub policy: &'static str,
    /// The serve outcome ([`ServeReport::autoscale`] carries the
    /// controller's event counts).
    pub report: ServeReport,
}

/// The controller on the dual-socket box at ρ = 0.8 of the full 8-core
/// capacity, vs a static all-cores round-robin baseline on the same
/// trace. Deterministic.
pub(crate) fn autoscale_results() -> Vec<AutoscaleCell> {
    let mk: Factory = || Box::new(XpcIpc::sel4_xpc());
    let recipes = recipes(mk().supports_handover());
    super::verify::gate("Serve-autoscale", CHAIN_SERVICES, &recipes);
    let topo = Topology::dual_socket();
    let period = calibrate_capacity_period(&topo, mk, CHAIN_SERVICES, chain_roster);
    let mean = interarrival(period, 8);
    let n_recipes = u32::try_from(recipes.len()).expect("roster fits u32");
    let trace = poisson(mean)
        .trace(REQUESTS, n_recipes)
        .expect("autoscale trace spec is valid");
    let spec = knee_spec();
    let cfg = AutoscaleCfg {
        min_cores: 1,
        max_cores: topo.n_cores(),
        epoch_arrivals: 64,
        grow_backlog_cycles: 4 * period,
        shrink_backlog_cycles: period / 4,
    };
    let policies = vec![
        ("autoscale", ServePolicy::Autoscale(cfg)),
        (
            "static:round-robin",
            ServePolicy::Static(Placement::RoundRobin),
        ),
    ];
    simos::par::map_cells(policies, |_, (label, policy), cs| {
        let mut mw = world(&topo, mk);
        let report = run_cell(
            &mut mw,
            &policy,
            CHAIN_SERVICES,
            &recipes,
            &trace,
            &spec,
            cs,
        );
        AutoscaleCell {
            policy: label,
            report,
        }
    })
}

/// Offered load `rho_x10` as the number ρ.
pub(super) fn rho(rho_x10: u64) -> Value {
    Value::Fixed(rho_x10 as f64 / 10.0, 1)
}

/// How many tenants of `r` met their SLO.
fn slo_met_tenants(r: &ServeReport) -> Value {
    r.tenants.iter().filter(|t| t.slo_met).count().into()
}

/// The serve experiment: the four views of the module doc.
pub struct Serve;

/// What the serve views read.
#[derive(Debug, Clone)]
pub struct ServeGrid {
    /// `knee_results`.
    pub knee: Vec<KneeCell>,
    /// `admission_results`.
    pub admission: Vec<AdmissionCell>,
    /// `bursty_results` (only the JSON view shows them).
    pub bursty: Vec<BurstyCell>,
    /// `autoscale_results` (only the JSON view shows them).
    pub autoscale: Vec<AutoscaleCell>,
}

/// The shed, goodput and tail fields every non-knee serve cell carries.
fn report_core(r: &ServeReport) -> [(&'static str, Value); 8] {
    [
        ("offered", r.offered.into()),
        ("admitted", r.admitted.into()),
        ("shed_queue_full", r.shed_queue_full.into()),
        ("shed_backlog", r.shed_backlog.into()),
        ("shed_rate", Value::Fixed(r.shed_rate(), 4)),
        ("goodput_rps", Value::Fixed(r.goodput_rps, 1)),
        ("p50_us", Value::Fixed(r.p50_us, 2)),
        ("p99_us", Value::Fixed(r.p99_us, 2)),
    ]
}

impl Experiment for Serve {
    type Grid = ServeGrid;

    fn compute() -> Self::Grid {
        ServeGrid {
            knee: knee_results(),
            admission: admission_results(),
            bursty: bursty_results(),
            autoscale: autoscale_results(),
        }
    }

    /// Knee + admission + bursty + autoscale, virtual time only.
    fn json(grid: &Self::Grid) -> Value {
        let admission = grid.admission.iter().map(|c| {
            let r = &c.report;
            let head = [
                ("system", r.system.as_str().into()),
                ("queue_cap", c.queue_cap.into()),
            ];
            let tail = [
                ("rho", rho(ADMISSION_RHO_X10)),
                ("offered_rps", Value::Fixed(r.offered_rps, 1)),
                ("queue_fraction", Value::Fixed(r.queue_fraction(), 4)),
                ("slo_met_tenants", slo_met_tenants(r)),
            ];
            let fields = head.into_iter().chain(report_core(r)).chain(tail);
            Value::Object(fields.collect())
        });
        let bursty = grid.bursty.iter().map(|c| {
            let head = [
                ("system", c.report.system.as_str().into()),
                ("process", c.process.into()),
            ];
            Value::Object(head.into_iter().chain(report_core(&c.report)).collect())
        });
        let autoscale = grid.autoscale.iter().map(|c| {
            let head = [
                ("system", c.report.system.as_str().into()),
                ("policy", c.policy.into()),
            ];
            let controller = c.report.autoscale.map(|a| {
                Value::Object(vec![
                    ("grow_events", a.grow_events.into()),
                    ("shrink_events", a.shrink_events.into()),
                    ("max_active", a.max_active.into()),
                    ("final_active", a.final_active.into()),
                ])
            });
            let tail = [("controller", controller.into())];
            let fields = head.into_iter().chain(report_core(&c.report)).chain(tail);
            Value::Object(fields.collect())
        });
        Value::Object(vec![
            ("knee", super::cell_json(&KNEE_COLUMNS, &grid.knee)),
            ("admission", Value::Array(admission.collect())),
            ("bursty", Value::Array(bursty.collect())),
            ("autoscale", Value::Array(autoscale.collect())),
        ])
    }

    /// The knee grid, with the admission sweep appended.
    #[rustfmt::skip]
    fn layout() -> Layout {
        let caption = "Open-loop Poisson serving: p99 vs offered load (rho of calibrated capacity), 4k arrivals/cell, plus the rho=1.5 admission sweep";
        let admission = [
            "{system} cap={queue_cap}", "u500", "{rho}", "{offered_rps:.0}", "{goodput_rps:.0}",
            "{shed_rate:%2}%", "{p50_us:.1}", "{p99_us:.1}", "{queue_fraction:%0}%",
            "{slo_met_tenants}",
        ];
        Layout::columns("Serve", caption, "knee", &KNEE_COLUMNS).each("admission", &admission)
    }
}

/// The knee columns over its cells.
#[rustfmt::skip]
const KNEE_COLUMNS: [Column<KneeCell>; 16] = [
    ("System", "system", |c| c.report.system.as_str().into(), "{system}"),
    ("Topology", "topology", |c| c.topology.into(), "{topology}"),
    ("", "rho_x10", |c| c.rho_x10.into(), ""),
    ("rho", "rho", |c| rho(c.rho_x10), "{rho}"),
    ("", "capacity_period_cycles", |c| c.capacity_period_cycles.into(), ""),
    ("", "offered", |c| c.report.offered.into(), ""),
    ("", "admitted", |c| c.report.admitted.into(), ""),
    ("", "shed", |c| c.report.shed().into(), ""),
    ("Offered/s", "offered_rps", |c| Value::Fixed(c.report.offered_rps, 1), "{offered_rps:.0}"),
    ("Goodput/s", "goodput_rps", |c| Value::Fixed(c.report.goodput_rps, 1), "{goodput_rps:.0}"),
    ("Shed", "shed_rate", |c| Value::Fixed(c.report.shed_rate(), 4), "{shed_rate:%2}%"),
    ("p50 us", "p50_us", |c| Value::Fixed(c.report.p50_us, 2), "{p50_us:.1}"),
    ("", "p95_us", |c| Value::Fixed(c.report.p95_us, 2), ""),
    ("p99 us", "p99_us", |c| Value::Fixed(c.report.p99_us, 2), "{p99_us:.1}"),
    ("queue", "queue_fraction", |c| Value::Fixed(c.report.queue_fraction(), 4),
     "{queue_fraction:%0}%"),
    ("SLO met", "slo_met_tenants", |c| slo_met_tenants(&c.report), "{slo_met_tenants}"),
];

/// The `"serve"` section of `BENCH_figures.json`.
pub fn json_section() -> String {
    super::section("serve").render(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{any_cell, assert_invisible_hand_off, cells_at};

    #[test]
    fn the_grid_is_handed_off_once() {
        assert_invisible_hand_off::<Serve>(json_section);
    }

    #[test]
    fn json_section_is_shaped() {
        let s = Serve::json(&Serve::compute());
        assert!(any_cell(cells_at(&s, "knee"), "rho_x10", 10u64));
        assert!(cells_at(&s, "admission")[0].get("shed_rate").is_some());
        assert!(!cells_at(&s, "bursty").is_empty());
        let controller = cells_at(&s, "autoscale")[0].get("controller");
        assert!(controller.and_then(|c| c.get("grow_events")).is_some());
    }

    #[test]
    fn knee_grid_covers_mechanisms_topologies_loads() {
        let cells = knee_results();
        assert_eq!(cells.len(), 4 * 2 * RHO_X10.len());
        for c in &cells {
            assert_eq!(c.report.offered, REQUESTS);
            assert_eq!(
                c.report.admitted + c.report.shed(),
                c.report.offered,
                "{} {} rho {}",
                c.report.system,
                c.topology,
                c.rho_x10
            );
            // Generous caps: the knee view never sheds.
            assert_eq!(c.report.shed(), 0);
            assert_eq!(c.report.tenants.len(), TENANTS as usize);
        }
    }

    #[test]
    fn knee_p99_is_monotone_non_decreasing_in_offered_load() {
        // Same seed at every rho: shrinking the mean interarrival
        // scales every gap of the same unit-exponential sequence, so
        // waits are weakly increasing in rho (Lindley), and the knee
        // curve cannot wobble.
        let cells = knee_results();
        for chunk in cells.chunks(RHO_X10.len()) {
            for w in chunk.windows(2) {
                assert!(
                    w[1].report.p99_us >= w[0].report.p99_us,
                    "{} {}: p99 fell from {} (rho {}) to {} (rho {})",
                    w[0].report.system,
                    w[0].topology,
                    w[0].report.p99_us,
                    w[0].rho_x10,
                    w[1].report.p99_us,
                    w[1].rho_x10
                );
            }
            // And the knee is real: past saturation the tail has
            // diverged far beyond the light-load tail.
            let light = &chunk[0].report;
            let heavy = &chunk[chunk.len() - 1].report;
            assert!(
                heavy.p99_us > 3.0 * light.p99_us,
                "{} {}: no knee (light {} heavy {})",
                light.system,
                chunk[0].topology,
                light.p99_us,
                heavy.p99_us
            );
        }
    }

    #[test]
    fn cheaper_crossings_push_the_knee_right() {
        // At the saturation point (rho = 1.0 of each mechanism's own
        // capacity) every mechanism queues; but XPC's absolute service
        // time is smaller, so at equal rho its absolute p99 stays below
        // its trap-based baseline on the same topology.
        let cells = knee_results();
        let p99 = |sys: &str, topo: &str, rho: u64| {
            cells
                .iter()
                .find(|c| c.report.system == sys && c.topology == topo && c.rho_x10 == rho)
                .map(|c| c.report.p99_us)
                .unwrap()
        };
        assert!(p99("seL4-XPC", "u500", 10) < p99("seL4-onecopy", "u500", 10));
        assert!(p99("Zircon-XPC", "u500", 10) < p99("Zircon", "u500", 10));
    }

    #[test]
    fn admission_sweep_conserves_and_sheds_monotonically() {
        let cells = admission_results();
        assert_eq!(cells.len(), ADMISSION_CAPS.len());
        for c in &cells {
            assert_eq!(c.report.admitted + c.report.shed(), c.report.offered);
            for t in &c.report.tenants {
                assert_eq!(t.admitted + t.shed(), t.offered, "tenant {}", t.tenant);
            }
        }
        // rho = 1.5 with a tight cap must shed; looser caps shed less.
        assert!(cells[0].report.shed() > 0);
        for w in cells.windows(2) {
            assert!(w[0].report.shed() >= w[1].report.shed());
        }
    }

    #[test]
    fn bursts_cost_tail_at_equal_mean_rate() {
        let cells = bursty_results();
        assert_eq!(cells.len(), 4 * 2);
        for pair in cells.chunks(2) {
            let (poisson, onoff) = (&pair[0], &pair[1]);
            assert_eq!(poisson.process, "poisson");
            assert_eq!(onoff.process, "on-off");
            assert_eq!(poisson.report.system, onoff.report.system);
            assert!(
                onoff.report.p99_us > poisson.report.p99_us,
                "{}: on-off p99 {} vs poisson {}",
                poisson.report.system,
                onoff.report.p99_us,
                poisson.report.p99_us
            );
        }
    }

    #[test]
    fn autoscale_controller_earns_its_cores() {
        let cells = autoscale_results();
        assert_eq!(cells.len(), 2);
        let auto = cells[0]
            .report
            .autoscale
            .expect("controller cell reports events");
        assert!(auto.grow_events > 0, "rho 0.8 on one core must grow");
        assert!(auto.max_active > 1);
        assert!(cells[1].report.autoscale.is_none());
        for c in &cells {
            assert_eq!(c.report.admitted + c.report.shed(), c.report.offered);
        }
    }
}
