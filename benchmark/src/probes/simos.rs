//! `simos` probes: `MultiWorld::exec_into` per `Step` variant, the
//! allocating `World` path the services use, the two event loops, trace
//! generation, and the `par` pool.

use super::{ns_per_op, per_second, REPS};
use crate::harness::{chunk_seed, median_seconds};
use crate::metrics::Metrics;
use crate::workloads::{chain, closed_sweep, open_serve, CHAIN_SERVICES};
use ::kernels::XpcIpc;
use ::simos::serve::{serve_with, ServeScratch};
use ::simos::{
    Attribution, CostModel, CycleLedger, IpcSystem, LedgerArena, LoadGen, LoadReport, MultiWorld,
    PhaseTotals, Placement, ServeReport, Step, SweepScratch, Topology, World,
};
use std::hint::black_box;

/// `exec_into` calls per timed run.
const EXECS: u64 = 100_000;

/// Requests per load run and arrivals per serve run.
const REQUESTS: u64 = 100_000;
const ARRIVALS: u64 = 50_000;

/// The `par` grid: cells, and requests per cell.
const PAR_CELLS: u64 = 16;
const PAR_CELL_REQUESTS: u64 = 25_000;

/// A report's microseconds back in the cycles they were derived from.
fn cycles(us: f64) -> f64 {
    (us * CostModel::u500().clock_hz as f64 / 1e6).round()
}

fn sel4_xpc() -> Box<dyn IpcSystem> {
    Box::new(XpcIpc::sel4_xpc())
}

/// Nanoseconds per `exec_into` of `step` issued from core 0.
fn exec_ns(mw: &mut MultiWorld, step: Step) -> f64 {
    let mut out = CycleLedger::new();
    ns_per_op(EXECS, || {
        for _ in 0..EXECS {
            black_box(mw.exec_into(0, black_box(step), 0, &mut out));
        }
    })
}

fn exec_variants(m: &mut Metrics) {
    let mut mw = MultiWorld::builder().cores(2).build(sel4_xpc);
    let oneway = Step::Oneway {
        from: 0,
        to: 1,
        bytes: 64,
    };
    m.set("simos.exec_oneway_ns", exec_ns(&mut mw, oneway));
    let roundtrip = Step::Roundtrip {
        from: 0,
        to: 1,
        request: 16,
        response: 4096,
    };
    m.set("simos.exec_roundtrip_ns", exec_ns(&mut mw, roundtrip));
    let batch = Step::Batch {
        from: 0,
        to: 1,
        calls: 8,
        bytes_each: 64,
    };
    m.set("simos.exec_batch_ns", exec_ns(&mut mw, batch));
    let compute = Step::Compute { at: 0, cycles: 300 };
    m.set("simos.exec_compute_ns", exec_ns(&mut mw, compute));
    let data_pass = Step::DataPass {
        at: 0,
        bytes: 4096,
        intensity_x10: 25,
    };
    m.set("simos.exec_data_pass_ns", exec_ns(&mut mw, data_pass));

    // `exec_into` resolves a fused program with the identity map, so
    // the depth-4 chain needs cores 0..=4.
    let mut mw = MultiWorld::builder()
        .topology(Topology::single_socket(CHAIN_SERVICES))
        .build(sel4_xpc);
    let fused = Step::Fused(mw.register_program(chain(256, 200, 64, false)));
    m.set("simos.exec_fused_ns", exec_ns(&mut mw, fused));

    let mut w = World::new(sel4_xpc());
    let ns = ns_per_op(EXECS, || {
        // The per-event histogram grows with every call; start each
        // repetition from the same empty one.
        w.stats = Default::default();
        for _ in 0..EXECS {
            w.ipc_roundtrip(black_box(64), 256);
        }
    });
    m.set("simos.world_ipc_roundtrip_ns", ns);
}

/// One `closed_sweep`-shaped load run on seL4-XPC.
fn load_run(
    seed: u64,
    clients: usize,
    requests: u64,
    window: usize,
    scratch: &mut SweepScratch,
    att: Attribution<'_>,
) -> LoadReport {
    let (mut mw, recipes) = closed_sweep::world_and_recipes(sel4_xpc);
    let spec = LoadGen {
        clients,
        requests,
        seed,
        think_cycles: 0,
    };
    let policy = Placement::RoundRobin;
    ::simos::load::run_windowed_with(
        &mut mw,
        &policy,
        CHAIN_SERVICES,
        &recipes,
        &spec,
        window,
        scratch,
        att,
    )
    .expect("load probe is runnable")
}

fn load_loop(seed: u64, m: &mut Metrics) {
    let clients = closed_sweep::CLIENTS;
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::new();
    let mut report = None;
    // `per_second`'s unmeasured first call is the warm-up the arena's
    // capacity is captured after.
    let mut warm = None;
    let full = per_second(REQUESTS, || {
        let att = Attribution::Full(&mut arena);
        report = Some(load_run(seed, clients, REQUESTS, 1, &mut scratch, att));
        warm.get_or_insert((arena.ledger_capacity(), arena.span_capacity()));
    });
    m.set("simos.load_full_req_per_s", full);
    let w8 = per_second(REQUESTS, || {
        let att = Attribution::Full(&mut arena);
        black_box(load_run(seed, clients, REQUESTS, 8, &mut scratch, att));
    });
    m.set("simos.load_w8_req_per_s", w8);
    let (warm_ledgers, warm_spans) = warm.expect("ran at least once");
    let growth = (arena.ledger_capacity() - warm_ledgers) + (arena.span_capacity() - warm_spans);
    m.set("simos.arena_growth_after_warmup", growth as f64);

    let mut kept = LedgerArena::new();
    let sampled = per_second(REQUESTS, || {
        kept.reset();
        let mut totals = PhaseTotals::new();
        let att = Attribution::Sampled {
            every: closed_sweep::SAMPLED_EVERY,
            totals: &mut totals,
            arena: &mut kept,
        };
        black_box(load_run(seed, clients, REQUESTS, 1, &mut scratch, att));
    });
    m.set("simos.load_sampled_req_per_s", sampled);

    let r = report.expect("ran at least once");
    m.set("simos.load_p50_cycles", cycles(r.p50_us));
    m.set("simos.load_p99_cycles", cycles(r.p99_us));
    m.set(
        "simos.cycles_per_req",
        r.ledger.total() as f64 / r.requests as f64,
    );
}

/// One `open_serve`-shaped run on seL4-XPC; `rate` is arrivals per host
/// second of `serve_with` alone.
fn serve_run(seed: u64, bursty: bool, rho_x10: u64, autoscale: bool) -> (f64, ServeReport) {
    let mk = open_serve::MECHANISMS[3];
    let mean = open_serve::interarrival(open_serve::capacity_period(mk), rho_x10);
    let trace = open_serve::generator(bursty, mean, seed)
        .trace(ARRIVALS, 3)
        .expect("trace spec is valid");
    let mut scratch = ServeScratch::new();
    let mut arena = LedgerArena::new();
    let mut report = None;
    let rate = per_second(ARRIVALS, || {
        let (mut mw, recipes) = open_serve::world_and_recipes(mk);
        let r = serve_with(
            &mut mw,
            &open_serve::policy(autoscale),
            CHAIN_SERVICES,
            &recipes,
            &trace,
            &open_serve::spec(),
            &mut scratch,
            Attribution::Full(&mut arena),
        );
        report = Some(r.expect("serve probe is runnable"));
    });
    (rate, report.expect("ran at least once"))
}

fn serve_loop(seed: u64, m: &mut Metrics) {
    let generator = open_serve::generator(false, 1_000, seed);
    let rate = per_second(ARRIVALS, || {
        black_box(generator.trace(ARRIVALS, 3).expect("trace spec is valid"));
    });
    m.set("simos.trace_gen_arrivals_per_s", rate);

    let (rate, rho90) = serve_run(seed, false, 9, false);
    m.set("simos.serve_poisson_arrivals_per_s", rate);
    m.set("simos.serve_p99_cycles_rho90", cycles(rho90.p99_us));
    let (_, rho50) = serve_run(seed, false, 5, false);
    m.set("simos.serve_p99_cycles_rho50", cycles(rho50.p99_us));
    // Poisson arrivals at rho 0.9 fit the tenant queues; it is the
    // bursty trace at the same load that sheds.
    let (rate, bursty) = serve_run(seed, true, 9, false);
    m.set("simos.serve_onoff_arrivals_per_s", rate);
    m.set("simos.serve_shed_frac_rho90", bursty.shed_rate());
    m.set(
        "simos.serve_autoscale_arrivals_per_s",
        serve_run(seed, false, 9, true).0,
    );
}

/// A 16-cell grid through `simos::par` at one worker and at
/// `min(hardware threads, 2)`. Recorded, never gated: on a 2-thread
/// sandbox the ratio swings with whatever else the host is doing.
fn par_pool(seed: u64, m: &mut Metrics) {
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = hw.min(2);
    let grid = |workers: usize| {
        median_seconds(REPS.min(3), || {
            let seeds: Vec<u64> = (0..PAR_CELLS).map(|i| chunk_seed(seed, i)).collect();
            let reports = ::simos::par::map_cells_on(workers, seeds, |_, cell_seed, cs| {
                let att = Attribution::Full(&mut cs.arena);
                load_run(cell_seed, 256, PAR_CELL_REQUESTS, 1, &mut cs.sweep, att)
            });
            black_box(reports);
        })
    };
    m.set("simos.par_speedup", grid(1) / grid(workers));
    m.set("simos.par_workers", workers as f64);
    m.set("simos.par_hw_threads", hw as f64);
}

pub fn run(seed: u64, m: &mut Metrics) {
    exec_variants(m);
    load_loop(seed, m);
    serve_loop(seed, m);
    par_pool(seed, m);
}
