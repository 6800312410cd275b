//! **Simspeed** — wall-clock throughput of the simulator itself
//! (requests priced per second of *real* time), contrasting the two
//! attribution modes over the same deterministic workload:
//!
//! * `full` — [`run_windowed_with`](simos::load::run_windowed_with)
//!   under [`Attribution::Full`]: span-exact attribution staged through
//!   a reset-and-reuse [`LedgerArena`];
//! * `sampled` — [`Attribution::Sampled`] at 1-in-[`SAMPLED_EVERY`]:
//!   flat [`PhaseTotals`] per request, span ledgers retained in a
//!   pre-reserved arena.
//!
//! Per-phase cycle totals are identical across the two (pinned by a
//! test below); only wall-clock speed differs. The before/after ratio
//! against earlier commits lives in the `benchmark/` trajectory
//! (`closed_sweep`), not here. A third measurement times the
//! **parallel sweep**: a grid of independent seeded cells fanned through
//! [`simos::par`] at one worker (the pinned serial oracle) and at
//! [`PAR_THREADS`] workers, asserting the reports byte-identical and the
//! per-worker arenas steady while recording the wall-clock speedup.
//! Because the numbers are real-time measurements this experiment is
//! deliberately **not** in the deterministic registry
//! (`experiments::all()` / golden.txt); it ships as the `"simspeed"`
//! section of `BENCH_figures.json` (suppressed by `figures
//! --no-simspeed`) and the `simspeed` binary, whose gates CI runs.

use kernels::XpcIpc;
use simos::{
    Attribution, IpcSystem, LedgerArena, LoadGen, LoadReport, MultiWorld, Phase, PhaseTotals,
    Placement, Step, SweepScratch,
};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Requests per timed mode (the 10^6-request sweep).
pub const REQUESTS: u64 = 1_000_000;

/// Sampling stride of the sampled mode (1-in-64 requests keep spans).
pub const SAMPLED_EVERY: u64 = 64;

/// Requests used to warm the full-mode arena and scratch to steady
/// state before capacities are captured.
const WARMUP: u64 = 2_000;

/// Closed-loop clients: a big-sweep population, so the issue heap works
/// at realistic depth.
const CLIENTS: usize = 2048;

/// Cores in the world (client core + service core).
const CORES: usize = 2;

/// Service-id space (service 0 is the client).
const SERVICES: usize = 2;

const SEED: u64 = 0x51f3_5eed;

/// One simspeed measurement.
#[derive(Debug, Clone)]
pub struct SimspeedReport {
    /// Requests priced per timed mode.
    pub requests: u64,
    /// Arena-backed full attribution, requests per wall-clock second.
    pub full_rps: f64,
    /// Sampled attribution, requests per wall-clock second.
    pub sampled_rps: f64,
    /// The sampling stride used.
    pub sampled_every: u64,
    /// Full-mode arena slabs did not grow after warmup.
    pub full_arena_steady: bool,
    /// Sampled-mode arena slabs never outgrew their pre-reservation.
    pub sampled_arena_steady: bool,
}

fn mk() -> Box<dyn IpcSystem> {
    Box::new(XpcIpc::sel4_xpc())
}

fn world() -> MultiWorld {
    MultiWorld::builder().cores(CORES).build(mk)
}

/// The per-request work: a small call in, service-side handling, a
/// round trip back — a few spans per request, so attribution overhead
/// (not modeled work) dominates the wall clock.
fn recipe() -> Vec<Step> {
    vec![
        Step::Oneway {
            from: 0,
            to: 1,
            bytes: 64,
        },
        Step::Compute { at: 1, cycles: 300 },
        Step::Roundtrip {
            from: 1,
            to: 0,
            request: 16,
            response: 256,
        },
    ]
}

fn spec(requests: u64) -> LoadGen {
    LoadGen {
        clients: CLIENTS,
        requests,
        seed: SEED,
        think_cycles: 0,
    }
}

/// One closed-loop run of `requests` requests on a fresh world.
fn run(requests: u64, scratch: &mut SweepScratch, att: Attribution<'_>) -> LoadReport {
    simos::load::run_windowed_with(
        &mut world(),
        &Placement::RoundRobin,
        SERVICES,
        &[recipe()],
        &spec(requests),
        1,
        scratch,
        att,
    )
    .expect("simspeed run must be runnable")
}

/// Run the two timed modes over `requests` requests each.
pub fn measure(requests: u64) -> SimspeedReport {
    let rps = |elapsed: f64| requests as f64 / elapsed.max(f64::EPSILON);

    // Arena-backed full attribution: warm the scratch + arena on a
    // short run, capture slab capacities, then require the timed run
    // not to move them (reset-and-reuse steady state).
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::new();
    run(
        WARMUP.min(requests),
        &mut scratch,
        Attribution::Full(&mut arena),
    );
    let warm = (arena.ledger_capacity(), arena.span_capacity());
    let t = Instant::now();
    run(requests, &mut scratch, Attribution::Full(&mut arena));
    let full_rps = rps(t.elapsed().as_secs_f64());
    let full_arena_steady = (arena.ledger_capacity(), arena.span_capacity()) == warm;

    // Sampled attribution: totals for every request, spans for
    // 1-in-SAMPLED_EVERY, retained in an arena pre-reserved for exactly
    // the sample it will keep.
    let kept = requests.div_ceil(SAMPLED_EVERY) as usize;
    let mut totals = PhaseTotals::new();
    let mut arena = LedgerArena::with_capacity(kept, kept * Phase::COUNT);
    let reserved = (arena.ledger_capacity(), arena.span_capacity());
    let t = Instant::now();
    run(
        requests,
        &mut scratch,
        Attribution::Sampled {
            every: SAMPLED_EVERY,
            totals: &mut totals,
            arena: &mut arena,
        },
    );
    let sampled_rps = rps(t.elapsed().as_secs_f64());
    let sampled_arena_steady = (arena.ledger_capacity(), arena.span_capacity()) == reserved;

    SimspeedReport {
        requests,
        full_rps,
        sampled_rps,
        sampled_every: SAMPLED_EVERY,
        full_arena_steady,
        sampled_arena_steady,
    }
}

/// Cells in the parallel-sweep measurement: a grid of independent
/// windowed-load cells, one [`ycsb::stream_seed`]-derived seed each.
pub const PAR_CELLS: usize = 16;

/// Requests per parallel-sweep cell.
pub const PAR_CELL_REQUESTS: u64 = 25_000;

/// Workers the parallel pass fans the grid over (the speedup gate's
/// denominator — enforced in the `simspeed` binary only when the
/// machine actually has this many hardware threads).
pub const PAR_THREADS: usize = 4;

/// Closed-loop clients per parallel-sweep cell (smaller than the serial
/// modes' [`CLIENTS`]: the grid times pool dispatch + per-worker arena
/// reuse, not the issue heap).
const PAR_CLIENTS: usize = 256;

/// One parallel-sweep measurement: the same cell grid timed at one
/// worker (the pinned serial oracle) and at [`PAR_THREADS`] workers.
#[derive(Debug, Clone)]
pub struct ParReport {
    /// Workers the parallel pass used.
    pub threads: usize,
    /// Hardware threads the machine reports (the speedup gate applies
    /// only when this covers [`PAR_THREADS`]).
    pub hw_threads: usize,
    /// Grid cells.
    pub cells: usize,
    /// Requests per cell.
    pub requests_per_cell: u64,
    /// Grid requests per wall-clock second at one worker.
    pub serial_grid_rps: f64,
    /// Grid requests per wall-clock second at [`PAR_THREADS`] workers.
    pub par_grid_rps: f64,
    /// `par_grid_rps / serial_grid_rps`.
    pub par_speedup: f64,
    /// Parallel reports byte-identical to the serial oracle's.
    pub identical: bool,
    /// No worker's arena slabs grew after that worker's first cell
    /// (each worker may grow exactly once, from empty, on its first
    /// draw; every later cell must reuse the slabs).
    pub par_arena_steady: bool,
}

/// Two recipe variants for the parallel grid, so each cell's derived
/// seed stream visibly drives the recipe draws (the generator's seed
/// only picks recipes — with a single recipe every seed would price the
/// identical schedule and the distinct-streams assertion would be
/// vacuous).
fn par_recipes() -> Vec<Vec<Step>> {
    vec![
        recipe(),
        vec![
            Step::Oneway {
                from: 0,
                to: 1,
                bytes: 1024,
            },
            Step::Compute { at: 1, cycles: 600 },
            Step::Roundtrip {
                from: 1,
                to: 0,
                request: 16,
                response: 4096,
            },
        ],
    ]
}

/// Time one pass of a `cells`-cell grid at `workers` workers. Returns
/// the wall-clock rate, the per-cell reports (index order), and the
/// per-worker arena steady-state verdict.
fn par_grid_pass(
    workers: usize,
    cells: usize,
    requests_per_cell: u64,
) -> (f64, Vec<LoadReport>, bool) {
    let recipes = par_recipes();
    let seeds: Vec<u64> = (0..cells as u64)
        .map(|i| ycsb::stream_seed(SEED, i))
        .collect();
    let t = Instant::now();
    let out = simos::par::map_cells_on(workers, seeds, |_, seed, cs| {
        let before = (cs.arena.ledger_capacity(), cs.arena.span_capacity());
        let mut mw = world();
        let r = simos::load::run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            SERVICES,
            &recipes,
            &LoadGen {
                clients: PAR_CLIENTS,
                requests: requests_per_cell,
                seed,
                think_cycles: 0,
            },
            1,
            &mut cs.sweep,
            Attribution::Full(&mut cs.arena),
        )
        .expect("parallel sweep cell must be runnable");
        let grew = (cs.arena.ledger_capacity(), cs.arena.span_capacity()) != before;
        (r, grew)
    });
    let elapsed = t.elapsed().as_secs_f64();
    let total = cells as u64 * requests_per_cell;
    let grown = out.iter().filter(|(_, grew)| *grew).count();
    let reports = out.into_iter().map(|(r, _)| r).collect();
    // Every cell prices the same request count over the same recipe, so
    // a worker's slabs reach steady state on its first cell; at most
    // `workers` first cells exist.
    (
        total as f64 / elapsed.max(f64::EPSILON),
        reports,
        grown <= workers,
    )
}

/// Run the parallel-sweep measurement: serial oracle pass, then the
/// [`PAR_THREADS`]-worker pass over the identical grid.
pub fn measure_par() -> ParReport {
    let (serial_grid_rps, serial_reports, _) = par_grid_pass(1, PAR_CELLS, PAR_CELL_REQUESTS);
    let (par_grid_rps, par_reports, par_arena_steady) =
        par_grid_pass(PAR_THREADS, PAR_CELLS, PAR_CELL_REQUESTS);
    ParReport {
        threads: PAR_THREADS,
        hw_threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        cells: PAR_CELLS,
        requests_per_cell: PAR_CELL_REQUESTS,
        serial_grid_rps,
        par_grid_rps,
        par_speedup: par_grid_rps / serial_grid_rps.max(f64::EPSILON),
        identical: par_reports == serial_reports,
        par_arena_steady,
    }
}

/// The `"simspeed"` section of `BENCH_figures.json`: the two serial
/// attribution modes plus the parallel-sweep rows.
pub fn json_section(r: &SimspeedReport, p: &ParReport) -> String {
    format!(
        "{{\"requests\": {}, \"full_rps\": {:.0}, \"sampled_rps\": {:.0}, \
         \"sampled_every\": {}, \
         \"full_arena_steady\": {}, \"sampled_arena_steady\": {}, \
         \"par_threads\": {}, \"hw_threads\": {}, \"par_cells\": {}, \
         \"par_requests_per_cell\": {}, \"serial_grid_rps\": {:.0}, \
         \"par_grid_rps\": {:.0}, \"par_speedup\": {:.2}, \
         \"par_identical\": {}, \"par_arena_steady\": {}}}",
        r.requests,
        r.full_rps,
        r.sampled_rps,
        r.sampled_every,
        r.full_arena_steady,
        r.sampled_arena_steady,
        p.threads,
        p.hw_threads,
        p.cells,
        p.requests_per_cell,
        p.serial_grid_rps,
        p.par_grid_rps,
        p.par_speedup,
        p.identical,
        p.par_arena_steady
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_sampled_modes_price_identical_cycles() {
        // The identity pin: sampled totals attribute exactly the cycles
        // full span attribution does, phase by phase.
        let n = 2_000;
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let full = run(n, &mut scratch, Attribution::Full(&mut arena));
        let mut totals = PhaseTotals::new();
        let mut kept = LedgerArena::new();
        run(
            n,
            &mut scratch,
            Attribution::Sampled {
                every: SAMPLED_EVERY,
                totals: &mut totals,
                arena: &mut kept,
            },
        );
        assert!(full.ledger.total() > 0);
        for p in Phase::ALL {
            assert_eq!(totals.get(p), full.ledger.get(p), "{p:?}");
        }
        assert_eq!(kept.len() as u64, n.div_ceil(SAMPLED_EVERY));
    }

    #[test]
    fn measure_reports_positive_rates_and_steady_arenas() {
        // Debug-build smoke: rates are positive and both arenas hold
        // steady state.
        let r = measure(4_000);
        assert!(r.full_rps > 0.0);
        assert!(r.sampled_rps > 0.0);
        assert!(
            r.full_arena_steady,
            "full-mode arena slabs grew after warmup"
        );
        assert!(
            r.sampled_arena_steady,
            "sampled arena outgrew its reservation"
        );
        let (serial_grid_rps, _, _) = par_grid_pass(1, 4, 500);
        let p = ParReport {
            threads: PAR_THREADS,
            hw_threads: 1,
            cells: 4,
            requests_per_cell: 500,
            serial_grid_rps,
            par_grid_rps: serial_grid_rps,
            par_speedup: 1.0,
            identical: true,
            par_arena_steady: true,
        };
        let s = json_section(&r, &p);
        assert!(s.contains("\"sampled_every\": 64"));
        assert!(s.contains("\"requests\": 4000"));
        assert!(s.contains("\"par_threads\": 4"));
        assert!(s.contains("\"par_identical\": true"));
    }

    #[test]
    fn parallel_grid_is_byte_identical_to_the_serial_oracle() {
        // The determinism pin for the parallel-sweep measurement: the
        // same seeded grid at 1, 2, and 4 workers yields equal reports,
        // and every worker's arena holds steady after its first cell.
        let (_, oracle, steady1) = par_grid_pass(1, 6, 400);
        assert!(steady1, "serial pass: arena grew after the first cell");
        for workers in [2, 4] {
            let (_, got, steady) = par_grid_pass(workers, 6, 400);
            assert_eq!(got, oracle, "workers = {workers}");
            assert!(steady, "workers = {workers}: a worker's arena kept growing");
        }
        // Distinct streams really drive distinct cells.
        assert!(oracle.windows(2).all(|w| w[0] != w[1]));
    }
}
