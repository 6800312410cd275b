//! Open-loop serving properties, roster-wide (plain `#[test]` grids):
//!
//! * **Replay determinism**: the same seed produces the same
//!   [`ArrivalTrace`] and the same trace produces a byte-identical
//!   [`ServeReport`] for every system in the roster, whether scratch is
//!   fresh or reused and whether attribution is full or sampled
//!   (totals).
//! * **Low-load equivalence**: at offered load far below capacity the
//!   open loop and the closed loop agree on median latency — the two
//!   generators price requests through the same machinery and differ
//!   only in the issue rule, which queueing makes visible only near
//!   saturation.
//! * **Exact conservation**: under overload with tight tenant queue
//!   caps, `admitted + shed == offered` holds exactly, globally and
//!   per tenant, for every system.
//! * **Monotone knee**: holding the seed fixed and shrinking the mean
//!   interarrival scales every gap of the same unit-exponential
//!   sequence, so p99 is monotone non-decreasing in offered load.

use kernels::full_roster_factories;
use simos::{
    ArrivalProcess, Attribution, LedgerArena, LoadGen, MultiWorld, OpenLoopGen, Placement,
    ServePolicy, ServeReport, ServeScratch, ServeSpec, Step, SweepScratch, TenantClass,
};

fn recipe() -> Vec<Step> {
    vec![
        Step::Oneway {
            from: 0,
            to: 1,
            bytes: 256,
        },
        Step::Compute { at: 1, cycles: 800 },
        Step::Roundtrip {
            from: 1,
            to: 2,
            request: 64,
            response: 4096,
        },
    ]
}

fn mw(mk: fn() -> Box<dyn simos::IpcSystem>) -> MultiWorld {
    MultiWorld::builder().cores(3).build(mk)
}

fn gen(mean: u64) -> OpenLoopGen {
    OpenLoopGen {
        process: ArrivalProcess::Poisson,
        mean_interarrival_cycles: mean,
        tenants: 2,
        users: 3_000_000,
        seed: 0x7a5e_11ed,
    }
}

fn spec(queue_cap: usize) -> ServeSpec {
    ServeSpec {
        tenants: 2,
        classes: vec![TenantClass {
            queue_cap,
            slo_p99_us: f64::INFINITY,
        }],
        backlog_cap_cycles: 0,
    }
}

fn serve_full(
    mk: fn() -> Box<dyn simos::IpcSystem>,
    mean: u64,
    n: u64,
    queue_cap: usize,
) -> ServeReport {
    let trace = gen(mean).trace(n, 1).expect("valid trace spec");
    let mut world = mw(mk);
    simos::serve::serve(
        &mut world,
        &ServePolicy::Static(Placement::RoundRobin),
        3,
        &[recipe()],
        &trace,
        &spec(queue_cap),
    )
    .expect("serve")
}

#[test]
fn same_seed_same_trace_byte_identical_roster_wide() {
    let mut scratch = ServeScratch::new();
    let mut arena = LedgerArena::new();
    for mk in full_roster_factories() {
        let trace_a = gen(3_000).trace(600, 1).unwrap();
        let trace_b = gen(3_000).trace(600, 1).unwrap();
        assert_eq!(trace_a, trace_b, "generator must replay from its seed");
        assert_eq!(trace_a.diff(&trace_b), None);
        // Fresh scratch vs reused scratch, same trace: identical report.
        let fresh = serve_full(mk, 3_000, 600, 1 << 16);
        let mut world = mw(mk);
        let reused = simos::serve::serve_with(
            &mut world,
            &ServePolicy::Static(Placement::RoundRobin),
            3,
            &[recipe()],
            &trace_a,
            &spec(1 << 16),
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .expect("serve");
        assert_eq!(
            fresh, reused,
            "{}: serve must be deterministic",
            fresh.system
        );
    }
}

#[test]
fn low_load_serve_p50_matches_closed_loop_p50_roster_wide() {
    // Closed loop, window 1, one client: every request runs unloaded.
    let closed_spec = LoadGen {
        clients: 1,
        requests: 200,
        seed: 0x7a5e_11ed,
        think_cycles: 0,
    };
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::new();
    for mk in full_roster_factories() {
        let closed = simos::load::run_windowed_with(
            &mut mw(mk),
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &closed_spec,
            1,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .expect("closed-loop run");
        // Open loop at ~1% of capacity: queueing is negligible, so the
        // only difference from the closed loop is the issue rule.
        let served = serve_full(mk, 2_000_000, 200, 1 << 16);
        assert_eq!(served.shed(), 0);
        let ratio = served.p50_us / closed.p50_us;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{}: open-loop p50 {} vs closed-loop p50 {} (ratio {ratio})",
            served.system,
            served.p50_us,
            closed.p50_us
        );
    }
}

#[test]
fn overload_conserves_arrivals_exactly_roster_wide() {
    for mk in full_roster_factories() {
        // Offered far past capacity with a tight cap: shedding must
        // occur and every arrival must be accounted exactly once.
        let r = serve_full(mk, 50, 3_000, 8);
        assert_eq!(r.offered, 3_000);
        assert!(r.shed() > 0, "{}: overload must shed", r.system);
        assert_eq!(
            r.admitted + r.shed(),
            r.offered,
            "{}: conservation",
            r.system
        );
        let mut per_tenant_offered = 0;
        for t in &r.tenants {
            assert_eq!(
                t.admitted + t.shed(),
                t.offered,
                "{} tenant {}",
                r.system,
                t.tenant
            );
            per_tenant_offered += t.offered;
        }
        assert_eq!(per_tenant_offered, r.offered, "{}", r.system);
        assert!(r.shed_rate() > 0.0 && r.shed_rate() < 1.0);
    }
}

#[test]
fn p99_is_monotone_non_decreasing_in_offered_load() {
    // Same seed at every load: smaller mean interarrival shrinks every
    // gap of the same unit-exponential draw, so waits can only grow.
    for mk in full_roster_factories().into_iter().take(4) {
        let mut last = 0.0f64;
        let mut sys = String::new();
        for mean in [40_000u64, 10_000, 4_000, 2_000, 1_000] {
            let r = serve_full(mk, mean, 1_500, 1 << 16);
            assert!(
                r.p99_us >= last,
                "{}: p99 fell to {} at mean interarrival {mean} (was {last})",
                r.system,
                r.p99_us
            );
            last = r.p99_us;
            sys = r.system;
        }
        assert!(last > 0.0, "{sys}: tail must be positive");
    }
}
