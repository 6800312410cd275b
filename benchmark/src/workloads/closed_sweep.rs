//! `closed_sweep` — the closed-loop load layer over the full roster.
//!
//! `simos::load::run_windowed_with` over the 12 systems of
//! `kernels::full_roster_factories()`, each request drawing one of three
//! recipes (a 64 B `Oneway`; a 16 B / 4 KiB `Roundtrip` plus `Compute`;
//! a `Batch` of 8 plus a depth-4 `Fused` chain) on 2 cores with 2 048
//! closed-loop clients. Closed loop in *simulated* time: a client issues
//! its next request when the previous one completes. The 24 chunk kinds
//! are the 12 systems under `Attribution::Full` at window 1, then under
//! `Attribution::Sampled { every: 64 }` at window 8. `kernels::*::
//! oneway_into`, `MultiWorld::exec_into`, the issue heap and the
//! `LedgerArena` do the work; `rv64` and the service stack do none.

use super::{chain, CHAIN_SERVICES};
use crate::harness::{chunk_seed, fnv1a, kind_of, ChunkOutcome, Workload, FNV_SEED};
use crate::trace::Tracer;
use simos::{
    Attribution, IpcSystem, LedgerArena, LoadGen, LoadReport, MultiWorld, Phase, PhaseTotals,
    Placement, Step, SweepScratch,
};

/// Requests per cell (one chunk is one cell).
pub const REQUESTS: u64 = 100_000;

pub const CLIENTS: usize = 2048;
pub const CORES: usize = 2;

/// Sampling stride of the sampled cells.
pub const SAMPLED_EVERY: u64 = 64;

pub type Mk = fn() -> Box<dyn IpcSystem>;

/// A 2-core world over `mk` with the depth-4 chain registered, and the
/// three-recipe roster that dispatches it.
pub fn world_and_recipes(mk: Mk) -> (MultiWorld, Vec<Vec<Step>>) {
    let mut mw = MultiWorld::builder().cores(CORES).build(mk);
    let chain = mw.register_program(chain(256, 200, 64, false));
    let recipes = vec![
        vec![Step::Oneway {
            from: 0,
            to: 1,
            bytes: 64,
        }],
        vec![
            Step::Roundtrip {
                from: 0,
                to: 1,
                request: 16,
                response: 4096,
            },
            Step::Compute { at: 1, cycles: 300 },
        ],
        vec![
            Step::Batch {
                from: 0,
                to: 1,
                calls: 8,
                bytes_each: 64,
            },
            Step::Fused(chain),
        ],
    ];
    (mw, recipes)
}

/// Output checks on one load report; returns how many were violated.
pub fn violations(r: &LoadReport, requests: u64, totals: Option<&PhaseTotals>) -> u64 {
    let phase_sum: u64 = Phase::ALL.iter().map(|&p| r.ledger.get(p)).sum();
    let checks = [
        r.requests == requests,
        r.ledger.total() == phase_sum,
        r.p50_us <= r.p95_us && r.p95_us <= r.p99_us,
        r.makespan_cycles > 0 && r.throughput_rps.is_finite(),
        totals.is_none_or(|t| t.total() == r.ledger.total()),
    ];
    checks.iter().map(|&ok| u64::from(!ok)).sum()
}

pub struct ClosedSweep {
    seed: u64,
    roster: Vec<Mk>,
    scratch: SweepScratch,
    full_arena: LedgerArena,
    sampled_arena: LedgerArena,
    last: Option<(LoadReport, Option<PhaseTotals>)>,
}

pub fn build(seed: u64, _t: &mut Tracer) -> Box<dyn Workload> {
    Box::new(ClosedSweep {
        seed,
        roster: kernels::full_roster_factories(),
        scratch: SweepScratch::new(),
        full_arena: LedgerArena::new(),
        sampled_arena: LedgerArena::new(),
        last: None,
    })
}

impl Workload for ClosedSweep {
    fn kinds(&self) -> usize {
        2 * self.roster.len()
    }

    fn run_chunk(&mut self, index: u64, t: &mut Tracer) {
        let kind = kind_of(index, self.kinds());
        let sampled = kind >= self.roster.len();
        let (mut mw, recipes) = world_and_recipes(self.roster[kind % self.roster.len()]);
        let spec = LoadGen {
            clients: CLIENTS,
            requests: REQUESTS,
            seed: chunk_seed(self.seed, index),
            think_cycles: 0,
        };
        let mut totals = PhaseTotals::new();
        let (window, att) = if sampled {
            self.sampled_arena.reset();
            let att = Attribution::Sampled {
                every: SAMPLED_EVERY,
                totals: &mut totals,
                arena: &mut self.sampled_arena,
            };
            (8, att)
        } else {
            (1, Attribution::Full(&mut self.full_arena))
        };
        let open = t.enter("simos", "run_windowed_with");
        let report = simos::load::run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            CHAIN_SERVICES,
            &recipes,
            &spec,
            window,
            &mut self.scratch,
            att,
        );
        t.exit(open);
        self.last = report.ok().map(|r| (r, sampled.then_some(totals)));
    }

    fn check_chunk(&mut self, _index: u64) -> ChunkOutcome {
        match self.last.take() {
            None => ChunkOutcome {
                ops: REQUESTS,
                failed: REQUESTS,
                digest: 0,
            },
            Some((report, totals)) => ChunkOutcome {
                ops: REQUESTS,
                failed: violations(&report, REQUESTS, totals.as_ref()),
                digest: fnv1a(FNV_SEED, format!("{report:?}").as_bytes()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_and_the_seed_matters() {
        let digests = |seed| {
            let mut w = build(seed, &mut Tracer::new(false));
            // One full cell and its sampled twin (kind 0 and kind 12).
            [0, 12]
                .map(|i| {
                    w.run_chunk(i, &mut Tracer::new(false));
                    let o = w.check_chunk(i);
                    assert_eq!((o.ops, o.failed), (REQUESTS, 0));
                    o.digest
                })
                .to_vec()
        };
        assert_eq!(digests(7), digests(7));
        assert_ne!(digests(7), digests(8));
    }
}
