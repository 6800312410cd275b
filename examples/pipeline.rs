//! The windowed asynchronous invocation pipeline: clients keep a window
//! of requests outstanding, each request submits *batched* call bursts,
//! and the report's `Phase::Queue` span shows where the time goes as
//! the window opens. XPC amortizes its whole entry path across a burst
//! (trampoline once, repeat `xcall`s hit the engine cache at 6 cycles),
//! so its per-call cost roughly halves at batch 64 — a trap-based
//! kernel still traps and switches per call and barely moves.
//!
//! ```text
//! cargo run --release --example pipeline
//! ```

use xpc_repro::kernels::paired_roster_factories;
use xpc_repro::simos::{load, CostModel, LoadGen, MultiWorld, Placement, Step};

fn recipe(batch: u64) -> Vec<Step> {
    vec![
        Step::Batch {
            from: 0,
            to: 1,
            calls: batch,
            bytes_each: 64,
        },
        Step::Compute {
            at: 1,
            cycles: 150 * batch,
        },
        Step::Batch {
            from: 1,
            to: 0,
            calls: batch,
            bytes_each: 64,
        },
    ]
}

fn main() {
    let mechanisms = paired_roster_factories();
    let spec = LoadGen {
        clients: 8,
        requests: 240,
        seed: 0x59c5_bdad,
        think_cycles: 2_000,
    };
    let hz = CostModel::u500().clock_hz as f64;

    println!(
        "{} windowed clients x {} requests of 64B bursts on 2 cores (virtual time)\n",
        spec.clients, spec.requests
    );
    println!(
        "{:12} {:>6} {:>5} {:>10} {:>10} {:>10} {:>6} {:>10}",
        "system", "window", "batch", "calls/s", "p50 us", "p99 us", "queue", "cache hits"
    );
    for mk in mechanisms {
        for window in [1usize, 4, 16] {
            for batch in [1u64, 8, 64] {
                let mut mw = MultiWorld::builder().cores(2).build(mk);
                let r = load::run_windowed(
                    &mut mw,
                    &Placement::RoundRobin,
                    2,
                    &[recipe(batch)],
                    &spec,
                    window,
                );
                let calls_s = r.ipc_calls as f64 * hz / r.makespan_cycles.max(1) as f64;
                println!(
                    "{:12} {:>6} {:>5} {:>10.0} {:>10.1} {:>10.1} {:>5.0}% {:>10}",
                    r.system,
                    r.window,
                    batch,
                    calls_s,
                    r.p50_us,
                    r.p99_us,
                    r.queue_fraction() * 100.0,
                    r.engine_cache
                        .map_or("-".to_string(), |s| s.cache_hits.to_string()),
                );
            }
        }
        println!();
    }
    println!("batching barely helps seL4 (every call still traps + switches);");
    println!("XPC's per-call cost halves as repeat xcalls hit the engine cache,");
    println!("and the queue column shows waiting once the window opens.");
}
