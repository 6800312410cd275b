//! Sampling-soundness properties of the [`Attribution`] hot path, looped
//! over plain `#[test]` grids of the whole roster:
//!
//! * **Full mode is the old path**: `run_windowed_with(...,
//!   Attribution::Full)` reproduces `run_windowed` bit for bit across
//!   the 12-system roster — report, spans, percentiles, everything.
//! * **Sampled totals are exact**: `Attribution::Sampled` accumulates
//!   every request into flat [`PhaseTotals`]; per phase those totals
//!   equal the full-attribution report ledger's, for every system ×
//!   batch {1,8,64} × window {1,4,16} × `every` {1,3,64}. Sampling
//!   drops span *order* and zero-cycle span presence — never cycles.
//! * **Kept ledgers sum back**: with `every = 1` each request's span
//!   ledger is retained in the arena, and the per-phase sum over those
//!   ledgers reproduces the totals exactly.

use kernels::full_roster_factories;
use simos::{
    Attribution, LedgerArena, LoadGen, MultiWorld, Phase, PhaseTotals, Placement, Step,
    SweepScratch,
};

const BATCHES: [u64; 3] = [1, 8, 64];
const WINDOWS: [usize; 3] = [1, 4, 16];
const EVERY: [u64; 3] = [1, 3, 64];

/// Small-but-contended spec: enough requests that windows open, queueing
/// appears, and every sampling stride keeps more than one ledger.
fn spec() -> LoadGen {
    LoadGen {
        clients: 4,
        requests: 80,
        seed: 0x7a5e_11ed,
        think_cycles: 120,
    }
}

/// The pipeline-shaped request: a burst in, per-call handling, a burst
/// back — exercises oneway/batch/compute pricing and (for `window > 1`)
/// queue attribution.
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
        Step::Roundtrip {
            from: 1,
            to: 2,
            request: 16,
            response: 1024,
        },
    ]
}

fn mw(mk: fn() -> Box<dyn simos::IpcSystem>) -> MultiWorld {
    MultiWorld::builder().cores(3).build(mk)
}

#[test]
fn sampled_totals_equal_full_attribution_roster_wide() {
    let spec = spec();
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::new();
    for mk in full_roster_factories() {
        for batch in BATCHES {
            let recipes = [recipe(batch)];
            for window in WINDOWS {
                let full = simos::load::run_windowed_with(
                    &mut mw(mk),
                    &Placement::RoundRobin,
                    3,
                    &recipes,
                    &spec,
                    window,
                    &mut scratch,
                    Attribution::Full(&mut arena),
                )
                .expect("full run must be runnable");
                // Full mode through an explicit sink IS run_windowed.
                let plain = simos::load::run_windowed(
                    &mut mw(mk),
                    &Placement::RoundRobin,
                    3,
                    &recipes,
                    &spec,
                    window,
                );
                assert_eq!(full, plain, "{} b={batch} w={window}", full.system);
                for every in EVERY {
                    let mut totals = PhaseTotals::new();
                    let mut kept = LedgerArena::new();
                    let sampled = simos::load::run_windowed_with(
                        &mut mw(mk),
                        &Placement::RoundRobin,
                        3,
                        &recipes,
                        &spec,
                        window,
                        &mut scratch,
                        Attribution::Sampled {
                            every,
                            totals: &mut totals,
                            arena: &mut kept,
                        },
                    )
                    .expect("sampled run must be runnable");
                    let tag = format!("{} b={batch} w={window} 1/{every}", full.system);
                    // The soundness core: flat sums commute with span
                    // merging, so sampled totals match full attribution
                    // phase for phase, cycle for cycle.
                    for p in Phase::ALL {
                        assert_eq!(totals.get(p), full.ledger.get(p), "{tag}: {p:?}");
                    }
                    assert_eq!(totals.total(), full.ledger.total(), "{tag}");
                    // Everything except the report ledger's span layout
                    // is identical across modes.
                    assert_eq!(sampled.ledger, totals.to_ledger(), "{tag}");
                    assert_eq!(sampled.makespan_cycles, full.makespan_cycles, "{tag}");
                    assert_eq!(sampled.busy_cycles, full.busy_cycles, "{tag}");
                    assert_eq!(sampled.ipc_calls, full.ipc_calls, "{tag}");
                    assert_eq!(
                        (sampled.p50_us, sampled.p95_us, sampled.p99_us),
                        (full.p50_us, full.p95_us, full.p99_us),
                        "{tag}"
                    );
                    assert_eq!(sampled.throughput_rps, full.throughput_rps, "{tag}");
                    assert_eq!(sampled.engine_cache, full.engine_cache, "{tag}");
                    // 1-in-`every` requests kept their span ledger.
                    assert_eq!(
                        kept.len() as u64,
                        spec.requests.div_ceil(every),
                        "{tag}: kept-ledger count"
                    );
                }
            }
        }
    }
}

#[test]
fn kept_ledgers_sum_back_to_the_totals() {
    // `every = 1` keeps every request's span ledger: summing them must
    // reproduce the flat totals exactly — the retained sample is a
    // faithful decomposition, not an approximation.
    let spec = spec();
    let mut scratch = SweepScratch::new();
    for mk in full_roster_factories() {
        let recipes = [recipe(8)];
        let mut totals = PhaseTotals::new();
        let mut kept = LedgerArena::new();
        simos::load::run_windowed_with(
            &mut mw(mk),
            &Placement::RoundRobin,
            3,
            &recipes,
            &spec,
            4,
            &mut scratch,
            Attribution::Sampled {
                every: 1,
                totals: &mut totals,
                arena: &mut kept,
            },
        )
        .expect("sampled run must be runnable");
        let name = mk().name();
        assert_eq!(kept.len() as u64, spec.requests, "{name}");
        let mut summed = PhaseTotals::new();
        for h in kept.handles() {
            for (p, c) in kept.spans(h) {
                summed.charge(p, c);
            }
        }
        assert_eq!(summed, totals, "{name}: kept ledgers must sum back");
    }
}
