//! The memory contracts of the request engine's reusable buffers: a
//! `LedgerArena` reaches steady state and stays there, under both
//! attribution modes and on every `simos::par` pool worker. How fast the
//! engine runs is the `benchmark/` trajectory's business; whether a
//! warmed-up sweep still allocates is not visible there.

use kernels::XpcIpc;
use simos::load::run_windowed_with;
use simos::{
    Attribution, LedgerArena, LoadGen, MultiWorld, Phase, PhaseTotals, Placement, Step,
    SweepScratch,
};

/// Sampling stride of the sampled runs: 1-in-64 requests keep spans.
const EVERY: u64 = 64;

/// A small call in, service-side handling, a round trip back: a few
/// spans per request.
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

/// One closed-loop run of `requests` requests on a fresh 2-core
/// seL4-XPC world (same seed every call).
fn run(requests: u64, scratch: &mut SweepScratch, att: Attribution<'_>) {
    let mut mw = MultiWorld::builder()
        .cores(2)
        .build(|| Box::new(XpcIpc::sel4_xpc()));
    let spec = LoadGen {
        clients: 64,
        requests,
        seed: 0x51f3_5eed,
        think_cycles: 0,
    };
    run_windowed_with(
        &mut mw,
        &Placement::RoundRobin,
        2,
        &[recipe()],
        &spec,
        1,
        scratch,
        att,
    )
    .expect("a runnable cell");
}

fn capacity(arena: &LedgerArena) -> (usize, usize) {
    (arena.ledger_capacity(), arena.span_capacity())
}

fn sampled<'a>(totals: &'a mut PhaseTotals, arena: &'a mut LedgerArena) -> Attribution<'a> {
    Attribution::Sampled {
        every: EVERY,
        totals,
        arena,
    }
}

#[test]
fn full_mode_arena_does_not_grow_after_warmup() {
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::new();
    run(500, &mut scratch, Attribution::Full(&mut arena));
    let warm = capacity(&arena);
    run(4_000, &mut scratch, Attribution::Full(&mut arena));
    assert_eq!(capacity(&arena), warm, "slabs grew after warmup");
    assert!(arena.is_empty(), "Full leaves no ledger behind");
}

#[test]
fn sampled_mode_stays_inside_its_pre_reservation() {
    let requests: u64 = 4_000;
    let kept = usize::try_from(requests.div_ceil(EVERY)).expect("a small sample");
    let mut arena = LedgerArena::with_capacity(kept, kept * Phase::COUNT);
    let reserved = capacity(&arena);
    let mut totals = PhaseTotals::new();
    run(
        requests,
        &mut SweepScratch::new(),
        sampled(&mut totals, &mut arena),
    );
    assert_eq!(arena.len(), kept, "1-in-{EVERY} requests keep their ledger");
    assert_eq!(capacity(&arena), reserved, "outgrew the pre-reservation");
}

#[test]
fn a_pool_workers_arena_grows_only_on_its_first_cell() {
    for workers in [1, 2, 4] {
        // Identical cells: whatever a worker's first cell grew its arena
        // to, every later cell fits.
        let grew = simos::par::map_cells_on(workers, vec![(); 8], |_, (), cs| {
            cs.arena.reset();
            let before = capacity(&cs.arena);
            let mut totals = PhaseTotals::new();
            run(1_000, &mut cs.sweep, sampled(&mut totals, &mut cs.arena));
            capacity(&cs.arena) != before
        });
        let grown = grew.iter().filter(|&&g| g).count();
        assert!(
            (1..=workers).contains(&grown),
            "{grown} cells grew an arena at {workers} workers"
        );
    }
}
