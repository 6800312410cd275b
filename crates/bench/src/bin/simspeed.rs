//! Simulator-throughput gate: time the two attribution modes over a
//! million requests each, plus the parallel-sweep grid, and enforce the
//! arena and pool memory contracts.
//!
//! ```text
//! cargo run --release -p xpc-bench --bin simspeed
//! ```
//!
//! Exits non-zero unless (a) both serial arenas hold steady state —
//! zero slab growth after warmup / pre-reservation — and (b) the
//! parallel sweep reproduces the serial oracle byte-for-byte with
//! per-worker arenas steady. The ≥2x
//! parallel speedup floor is enforced only when the machine actually
//! has the gate's worker count in hardware threads — on a smaller box
//! the speedup is recorded but a shortfall is reported, not failed
//! (there is nothing to parallelize onto).

use xpc_bench::experiments::simspeed;

/// The acceptance floor: parallel grid vs the serial oracle, applicable
/// when `hw_threads >= par_threads`.
const MIN_PAR_SPEEDUP: f64 = 2.0;

fn main() {
    let r = simspeed::measure(simspeed::REQUESTS);
    let p = simspeed::measure_par();
    println!(
        "simspeed over {} requests (sampling 1-in-{}):",
        r.requests, r.sampled_every
    );
    println!(
        "  arena full attribution:        {:>12.0} req/s",
        r.full_rps
    );
    println!(
        "  sampled attribution:           {:>12.0} req/s",
        r.sampled_rps
    );
    println!(
        "parallel sweep, {} cells x {} requests ({} hw threads):",
        p.cells, p.requests_per_cell, p.hw_threads
    );
    println!(
        "  serial grid (1 worker):        {:>12.0} req/s",
        p.serial_grid_rps
    );
    println!(
        "  parallel grid ({} workers):     {:>12.0} req/s",
        p.threads, p.par_grid_rps
    );
    println!("  parallel / serial:             {:>12.2}x", p.par_speedup);
    println!("{}", simspeed::json_section(&r, &p));

    let mut failed = false;
    if !r.full_arena_steady {
        eprintln!("FAIL: full-mode arena slabs grew after warmup (not steady state)");
        failed = true;
    }
    if !r.sampled_arena_steady {
        eprintln!("FAIL: sampled-mode arena outgrew its pre-reservation");
        failed = true;
    }
    if !p.identical {
        eprintln!("FAIL: parallel grid reports differ from the serial oracle");
        failed = true;
    }
    if !p.par_arena_steady {
        eprintln!("FAIL: a pool worker's arena kept growing past its first cell");
        failed = true;
    }
    if p.par_speedup < MIN_PAR_SPEEDUP {
        if p.hw_threads >= p.threads {
            eprintln!(
                "FAIL: parallel grid is {:.2}x serial at {} workers (need >= {MIN_PAR_SPEEDUP}x)",
                p.par_speedup, p.threads
            );
            failed = true;
        } else {
            eprintln!(
                "note: parallel speedup {:.2}x below {MIN_PAR_SPEEDUP}x floor, but only {} hw \
                 thread(s) for {} workers — floor not enforced",
                p.par_speedup, p.hw_threads, p.threads
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: arenas steady, parallel grid byte-identical");
}
