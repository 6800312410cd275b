//! Generated rosters through both front doors of the request engine, on
//! the in-tree harness `ycsb::check`.
//!
//! A case is a world running one of the twelve roster systems, a set of
//! fused programs registered on it, and a roster touching every `Step`
//! variant whose service ids are drawn from `0..n_services + 2` and whose
//! `Fused` ids name this world's programs or another world's. Random
//! `window` / `clients` / `think_cycles` drive `run_windowed_with`; short
//! random traces drive `serve_with`. The property: the host never
//! panics; the run is an `Err` exactly when the roster names an
//! out-of-range id; and an `Ok` report keeps the invariants the
//! benchmark harness checks on every chunk.

use simos::load::run_windowed_with;
use simos::serve::serve_with;
use simos::{
    Arrival, ArrivalTrace, Attribution, AutoscaleCfg, CycleLedger, LedgerArena, LoadError, LoadGen,
    MultiWorld, Phase, PhaseTotals, Placement, ProgramId, Recipe, ServeError, ServePolicy,
    ServeSpec, Step, SweepScratch, TenantClass, Topology,
};
use ycsb::{check, Rng};

/// One fused program: client, hops as `(service, request, compute,
/// handover)`, reply bytes.
#[derive(Debug)]
struct Program {
    client: usize,
    hops: Vec<(usize, u64, u64, bool)>,
    response: u64,
}

/// Which front door, and what drives it.
#[derive(Debug)]
enum Drive {
    Closed {
        spec: LoadGen,
        window: usize,
    },
    Open {
        arrivals: Vec<Arrival>,
        tenants: u32,
        queue_caps: Vec<usize>,
        backlog_cap_cycles: u64,
        autoscale: Option<AutoscaleCfg>,
    },
}

#[derive(Debug)]
struct Case {
    /// Index into `kernels::full_roster_factories()`.
    system: usize,
    /// Cores of a single-socket world; 0 is the 8-core dual socket.
    cores: usize,
    n_services: usize,
    programs: Vec<Program>,
    roster: Vec<Vec<Step>>,
    placement: Placement,
    /// `Sampled { every }` when set, `Full` otherwise.
    sampled: Option<u64>,
    drive: Drive,
}

/// A draw below `typical` (bounded by `size`), or one time in sixteen a
/// draw from the whole range `size` allows: absurd byte, call and cycle
/// counts are inputs too.
fn magnitude(rng: &mut Rng, size: u64, typical: u64) -> u64 {
    if rng.below(16) == 0 {
        rng.below(size)
    } else {
        rng.below(typical.min(size))
    }
}

/// A service id from `0..n_services + 2`, out of range one time in
/// sixteen.
fn service(rng: &mut Rng, n_services: usize) -> usize {
    let n = n_services as u64;
    let id = if rng.below(16) == 0 {
        n + rng.below(2)
    } else {
        rng.below(n)
    };
    usize::try_from(id).expect("a small id")
}

fn small(rng: &mut Rng, size: u64, below: u64) -> usize {
    usize::try_from(rng.below(below.min(size))).expect("a small count")
}

fn gen_program(rng: &mut Rng, size: u64, n_services: usize) -> Program {
    let hops = (0..=small(rng, size, 4))
        .map(|_| {
            (
                service(rng, n_services),
                magnitude(rng, size, 8192),
                magnitude(rng, size, 2000),
                rng.below(2) == 0,
            )
        })
        .collect();
    Program {
        client: service(rng, n_services),
        hops,
        response: magnitude(rng, size, 8192),
    }
}

fn gen_step(rng: &mut Rng, size: u64, n_services: usize, programs: usize) -> Step {
    let s = |rng: &mut Rng| service(rng, n_services);
    match rng.below(6) {
        0 => Step::Oneway {
            from: s(rng),
            to: s(rng),
            bytes: magnitude(rng, size, 8192),
        },
        1 => Step::Batch {
            from: s(rng),
            to: s(rng),
            calls: magnitude(rng, size, 16),
            bytes_each: magnitude(rng, size, 4096),
        },
        2 => Step::Roundtrip {
            from: s(rng),
            to: s(rng),
            request: magnitude(rng, size, 8192),
            response: magnitude(rng, size, 8192),
        },
        3 => Step::Compute {
            at: s(rng),
            cycles: magnitude(rng, size, 5000),
        },
        4 => Step::DataPass {
            at: s(rng),
            bytes: magnitude(rng, size, 8192),
            intensity_x10: rng.below(40),
        },
        // This world's programs, or (one time in four, and always when
        // it has none) an id another world with more programs issued.
        _ => {
            let index = if programs == 0 || rng.below(4) == 0 {
                programs as u64 + rng.below(2)
            } else {
                rng.below(programs as u64)
            };
            Step::Fused(ProgramId::from_index(
                usize::try_from(index).expect("a small id"),
            ))
        }
    }
}

fn gen_case(rng: &mut Rng, size: u64) -> Case {
    let system = small(rng, u64::MAX, 12);
    let cores = small(rng, u64::MAX, 5);
    let n_cores = if cores == 0 { 8 } else { cores };
    let n_services = 1 + small(rng, size, 5);
    let programs: Vec<Program> = (0..small(rng, size, 3))
        .map(|_| gen_program(rng, size, n_services))
        .collect();
    let roster = (0..=small(rng, size, 4))
        .map(|_| {
            (0..=small(rng, size, 4))
                .map(|_| gen_step(rng, size, n_services, programs.len()))
                .collect()
        })
        .collect::<Vec<Vec<Step>>>();
    let placement = match rng.below(3) {
        0 => Placement::SameCore,
        1 => Placement::RoundRobin,
        _ => Placement::LeastLoaded,
    };
    let sampled = (rng.below(2) == 0).then(|| rng.below(8));
    let drive = if rng.below(2) == 0 {
        Drive::Closed {
            spec: LoadGen {
                clients: 1 + small(rng, size, 64),
                requests: 1 + rng.below(300.min(size)),
                seed: rng.next_u64(),
                think_cycles: magnitude(rng, size, 2000),
            },
            window: 1 + small(rng, size, 8),
        }
    } else {
        let tenants = 1 + u32::try_from(rng.below(3)).expect("small");
        let mut at = 0u64;
        let arrivals = (0..=small(rng, size, 120))
            .map(|_| {
                at = at.saturating_add(magnitude(rng, size, 5000));
                Arrival {
                    at,
                    tenant: u32::try_from(rng.below(u64::from(tenants))).expect("small"),
                    recipe: u32::try_from(rng.below(roster.len() as u64)).expect("small"),
                }
            })
            .collect();
        let queue_caps = (0..=rng.below(u64::from(tenants)))
            .map(|_| 1 + small(rng, size, 8))
            .collect();
        let backlog_cap_cycles = if rng.below(2) == 0 {
            0
        } else {
            1 + magnitude(rng, size, 100_000)
        };
        let autoscale = (rng.below(2) == 0).then(|| {
            let min_cores = 1 + small(rng, u64::MAX, n_cores as u64);
            let shrink = rng.below(20_000);
            AutoscaleCfg {
                min_cores,
                max_cores: min_cores + small(rng, u64::MAX, (n_cores - min_cores + 1) as u64),
                epoch_arrivals: 1 + rng.below(16),
                grow_backlog_cycles: shrink + 1 + rng.below(50_000),
                shrink_backlog_cycles: shrink,
            }
        });
        Drive::Open {
            arrivals,
            tenants,
            queue_caps,
            backlog_cap_cycles,
            autoscale,
        }
    };
    Case {
        system,
        cores,
        n_services,
        programs,
        roster,
        placement,
        sampled,
        drive,
    }
}

/// Whether the roster names a service id outside `0..n_services` or a
/// program the world did not register — the one reason a run may fail.
fn out_of_range(case: &Case) -> bool {
    let bad = |id: usize| id >= case.n_services;
    case.roster.iter().flatten().any(|&step| match step {
        Step::Oneway { from, to, .. }
        | Step::Batch { from, to, .. }
        | Step::Roundtrip { from, to, .. } => bad(from) || bad(to),
        Step::Compute { at, .. } | Step::DataPass { at, .. } => bad(at),
        Step::Fused(id) => case
            .programs
            .get(id.index())
            .is_none_or(|p| bad(p.client) || p.hops.iter().any(|&(service, ..)| bad(service))),
    })
}

fn world(case: &Case) -> MultiWorld {
    let mk = kernels::full_roster_factories()[case.system];
    let topology = if case.cores == 0 {
        Topology::dual_socket()
    } else {
        Topology::single_socket(case.cores)
    };
    let mut mw = MultiWorld::builder().topology(topology).build(mk);
    for p in &case.programs {
        let mut recipe = Recipe::new(p.client);
        for &(service, request, compute, handover) in &p.hops {
            recipe = if handover {
                recipe.handover(service, request)
            } else {
                recipe.hop(service, request)
            };
            recipe = recipe.compute(compute);
        }
        let _ = mw.register_program(recipe.reply(p.response).build().expect("1-5 hops"));
    }
    mw
}

/// `Ok` when `holds`, else `Err(what)`.
fn ensure(holds: bool, what: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// The ledger identities every report keeps: the total is the
/// (saturating) sum of its phases, and sampled totals equal it.
fn ledger_sums(ledger: &CycleLedger, totals: Option<&PhaseTotals>) -> Result<(), String> {
    let phase_sum = Phase::ALL
        .iter()
        .fold(0u64, |sum, &p| sum.saturating_add(ledger.get(p)));
    ensure(ledger.total() == phase_sum, "ledger total != phase sum")?;
    ensure(
        totals.is_none_or(|t| t.total() == ledger.total()),
        "sampled totals != ledger total",
    )
}

/// `None` for the two errors an out-of-range roster raises, else the
/// error's text.
fn unexpected(e: &LoadError) -> Option<String> {
    match e {
        LoadError::ServiceOutOfRange { .. } | LoadError::UnknownProgram { .. } => None,
        other => Some(other.to_string()),
    }
}

fn roster_property(case: &Case) -> Result<(), String> {
    let mut mw = world(case);
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::new();
    let mut totals = PhaseTotals::new();
    let att = match case.sampled {
        Some(every) => Attribution::Sampled {
            every,
            totals: &mut totals,
            arena: &mut arena,
        },
        None => Attribution::Full(&mut arena),
    };
    let outcome = match &case.drive {
        Drive::Closed { spec, window } => run_windowed_with(
            &mut mw,
            &case.placement,
            case.n_services,
            &case.roster,
            spec,
            *window,
            &mut scratch,
            att,
        )
        .map(|r| {
            let tails = r.p50_us <= r.p95_us && r.p95_us <= r.p99_us;
            (r.requests == spec.requests, tails, r.ledger)
        })
        .map_err(|e| unexpected(&e)),
        Drive::Open {
            arrivals,
            tenants,
            queue_caps,
            backlog_cap_cycles,
            autoscale,
        } => {
            let trace = ArrivalTrace::from_arrivals(arrivals.clone()).expect("sorted");
            let spec = ServeSpec {
                tenants: *tenants,
                classes: queue_caps
                    .iter()
                    .map(|&queue_cap| TenantClass {
                        queue_cap,
                        slo_p99_us: 50.0,
                    })
                    .collect(),
                backlog_cap_cycles: *backlog_cap_cycles,
            };
            let policy = match autoscale {
                Some(cfg) => ServePolicy::Autoscale(cfg.clone()),
                None => ServePolicy::Static(case.placement.clone()),
            };
            serve_with(
                &mut mw,
                &policy,
                case.n_services,
                &case.roster,
                &trace,
                &spec,
                &mut scratch,
                att,
            )
            .map(|r| {
                let offered = r.offered == arrivals.len() as u64;
                let conserved = offered
                    && r.admitted + r.shed() == r.offered
                    && r.tenants.iter().map(|t| t.offered).sum::<u64>() == r.offered
                    && r.tenants.iter().all(|t| t.admitted + t.shed() == t.offered);
                let tails = r.p50_us <= r.p95_us && r.p95_us <= r.p99_us && r.p99_us <= r.max_us;
                (conserved, tails, r.ledger)
            })
            .map_err(|e| match e {
                ServeError::Load(e) => unexpected(&e),
                other => Some(other.to_string()),
            })
        }
    };
    match (outcome, out_of_range(case)) {
        (Ok((counted, tails, ledger)), false) => {
            ensure(counted, "requests or arrivals not conserved")?;
            ensure(tails, "tail quantiles out of order")?;
            ledger_sums(&ledger, case.sampled.map(|_| &totals))
        }
        (Ok(_), true) => Err("an out-of-range id priced as Ok".into()),
        (Err(None), true) => Ok(()),
        (Err(None), false) => Err("a roster error on an in-range roster".into()),
        (Err(Some(why)), _) => Err(format!("unexpected error: {why}")),
    }
}

#[test]
fn generated_rosters_never_panic_and_fail_only_when_out_of_range() {
    check(
        "generated_rosters_never_panic_and_fail_only_when_out_of_range",
        500,
        &[],
        gen_case,
        roster_property,
    );
}
