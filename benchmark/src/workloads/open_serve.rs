//! `open_serve` — the open-loop serving layer.
//!
//! Each chunk generates one seeded 50 000-arrival trace with
//! `OpenLoopGen::trace` and replays it with `simos::serve::serve_with`
//! on the 4-core u500 topology: 8 tenants with bounded queues, depth-4
//! fused recipes. Open loop in *simulated* time — arrivals come on the
//! trace's schedule whether or not the cores keep up, and what does not
//! fit a tenant's queue is shed and counted; in host time it is a batch
//! job, so there is no generator lateness to report. The 8 chunk kinds
//! are {Poisson, OnOff} x {rho 0.5, rho 0.9} x {static round-robin,
//! autoscale}, over four mechanisms. It prices through the same
//! `kernels` / `multicore` layers as `closed_sweep` but through the
//! *other* event loop (admission heaps, shed accounting, autoscale), so
//! a change that folds `load` and `serve` into one engine must hold both.

use super::closed_sweep::Mk;
use super::{chain, CHAIN_SERVICES};
use crate::harness::{chunk_seed, fnv1a, kind_of, ChunkOutcome, Workload, FNV_SEED};
use crate::trace::Tracer;
use kernels::{Sel4, Sel4Transfer, XpcIpc, Zircon};
use simos::serve::{serve_with, ServeScratch};
use simos::{
    ArrivalProcess, ArrivalTrace, Attribution, AutoscaleCfg, LedgerArena, MultiWorld, OpenLoopGen,
    Phase, Placement, ServePolicy, ServeReport, ServeSpec, Step, TenantClass, Topology,
};

/// Arrivals per trace (one chunk is one trace).
pub const ARRIVALS: u64 = 50_000;

pub const TENANTS: u32 = 8;

/// Bounded admission queue of every tenant: tight enough that the
/// bursty kinds at rho 0.9 shed a few per cent of their arrivals, so the
/// shed accounting runs, and loose enough that most arrivals are served.
pub const QUEUE_CAP: usize = 16;

/// Hop request bytes of the three recipes an arrival may name.
const HOP_BYTES: [u64; 3] = [1024, 4096, 16384];

/// Arrivals of the back-to-back probe that measures a mechanism's
/// saturation period.
const CAPACITY_PROBE: u64 = 512;

pub const MECHANISMS: [Mk; 4] = [
    || Box::new(Zircon::new()),
    || Box::new(XpcIpc::zircon_xpc()),
    || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
    || Box::new(XpcIpc::sel4_xpc()),
];

/// One chunk kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    pub mechanism: usize,
    pub bursty: bool,
    /// Offered load, tenths of the measured capacity.
    pub rho_x10: u64,
    pub autoscale: bool,
}

pub const KINDS: usize = 8;

pub fn kind(k: usize) -> Kind {
    Kind {
        // Shifted by one in the upper half, so every mechanism serves a
        // Poisson, a bursty and an autoscaled kind.
        mechanism: (k + k / 4) % MECHANISMS.len(),
        bursty: k & 1 == 1,
        rho_x10: if k & 2 == 0 { 5 } else { 9 },
        autoscale: k & 4 != 0,
    }
}

/// A 4-core world over `mk` and its three fused depth-4 recipes.
pub fn world_and_recipes(mk: Mk) -> (MultiWorld, Vec<Vec<Step>>) {
    let handover = mk().supports_handover();
    let mut mw = MultiWorld::builder().topology(Topology::u500()).build(mk);
    let recipes = HOP_BYTES
        .iter()
        .map(|&bytes| {
            let program = chain(bytes, 500, 256, handover);
            vec![Step::Fused(mw.register_program(program))]
        })
        .collect();
    (mw, recipes)
}

pub fn spec() -> ServeSpec {
    ServeSpec {
        tenants: TENANTS,
        classes: vec![TenantClass {
            queue_cap: QUEUE_CAP,
            slo_p99_us: 2_000.0,
        }],
        backlog_cap_cycles: 0,
    }
}

pub fn policy(autoscale: bool) -> ServePolicy {
    if autoscale {
        ServePolicy::Autoscale(AutoscaleCfg::default())
    } else {
        ServePolicy::Static(Placement::RoundRobin)
    }
}

pub fn generator(bursty: bool, mean_interarrival_cycles: u64, seed: u64) -> OpenLoopGen {
    OpenLoopGen {
        process: if bursty {
            ArrivalProcess::OnOff {
                burst_len: 32,
                accel_x10: 40,
            }
        } else {
            ArrivalProcess::Poisson
        },
        mean_interarrival_cycles,
        tenants: TENANTS,
        users: 1_000_000,
        seed,
    }
}

/// Mean cycles per completed request of `mk` at saturation under static
/// round-robin: a back-to-back probe trace's makespan over its length.
/// rho is offered against this, so rho = 1 is the knife edge for every
/// mechanism.
pub fn capacity_period(mk: Mk) -> u64 {
    let (mut mw, recipes) = world_and_recipes(mk);
    let probe = generator(false, 1, 0x5e7e)
        .trace(CAPACITY_PROBE, HOP_BYTES.len() as u32)
        .expect("probe spec is valid");
    let unbounded = ServeSpec {
        classes: vec![TenantClass::default()],
        ..spec()
    };
    let r = simos::serve::serve(
        &mut mw,
        &policy(false),
        CHAIN_SERVICES,
        &recipes,
        &probe,
        &unbounded,
    )
    .expect("probe trace must serve");
    (r.makespan_cycles / CAPACITY_PROBE).max(1)
}

/// Mean interarrival putting `rho_x10 / 10` of the capacity on offer.
pub fn interarrival(period: u64, rho_x10: u64) -> u64 {
    (period * 10 / rho_x10).max(1)
}

/// Output checks on one serve report; returns how many were violated.
pub fn violations(r: &ServeReport, offered: u64) -> u64 {
    let phase_sum: u64 = Phase::ALL.iter().map(|&p| r.ledger.get(p)).sum();
    let checks = [
        r.offered == offered && r.admitted + r.shed() == r.offered,
        r.tenants.iter().map(|t| t.offered).sum::<u64>() == r.offered,
        r.tenants.iter().all(|t| t.admitted + t.shed() == t.offered),
        r.ledger.total() == phase_sum,
        r.p50_us <= r.p95_us && r.p95_us <= r.p99_us && r.p99_us <= r.max_us,
        r.admitted > 0,
    ];
    checks.iter().map(|&ok| u64::from(!ok)).sum()
}

pub struct OpenServe {
    seed: u64,
    /// Saturation period per mechanism, measured at set-up.
    periods: [u64; MECHANISMS.len()],
    scratch: ServeScratch,
    arena: LedgerArena,
    last: Option<(ArrivalTrace, ServeReport)>,
}

pub fn build(seed: u64, t: &mut Tracer) -> Box<dyn Workload> {
    let periods = t.span("simos", "serve", || MECHANISMS.map(capacity_period));
    Box::new(OpenServe {
        seed,
        periods,
        scratch: ServeScratch::new(),
        arena: LedgerArena::new(),
        last: None,
    })
}

impl Workload for OpenServe {
    fn kinds(&self) -> usize {
        KINDS
    }

    fn run_chunk(&mut self, index: u64, t: &mut Tracer) {
        let k = kind(kind_of(index, KINDS));
        let (mut mw, recipes) = world_and_recipes(MECHANISMS[k.mechanism]);
        let mean = interarrival(self.periods[k.mechanism], k.rho_x10);
        let generator = generator(k.bursty, mean, chunk_seed(self.seed, index));
        let trace = t.span("simos", "OpenLoopGen.trace", || {
            generator.trace(ARRIVALS, HOP_BYTES.len() as u32)
        });
        self.last = trace.ok().and_then(|trace| {
            let open = t.enter("simos", "serve_with");
            let report = serve_with(
                &mut mw,
                &policy(k.autoscale),
                CHAIN_SERVICES,
                &recipes,
                &trace,
                &spec(),
                &mut self.scratch,
                Attribution::Full(&mut self.arena),
            );
            t.exit(open);
            report.ok().map(|r| (trace, r))
        });
    }

    fn check_chunk(&mut self, _index: u64) -> ChunkOutcome {
        match self.last.take() {
            None => ChunkOutcome {
                ops: ARRIVALS,
                failed: ARRIVALS,
                digest: 0,
            },
            Some((trace, report)) => {
                let sorted = trace.arrivals().windows(2).all(|w| w[0].at <= w[1].at);
                ChunkOutcome {
                    ops: ARRIVALS,
                    failed: violations(&report, ARRIVALS) + u64::from(!sorted),
                    digest: fnv1a(FNV_SEED, format!("{report:?}").as_bytes()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_every_combination() {
        let all: Vec<Kind> = (0..KINDS).map(kind).collect();
        for bursty in [false, true] {
            for rho_x10 in [5, 9] {
                for autoscale in [false, true] {
                    let hit = all.iter().any(|k| {
                        (k.bursty, k.rho_x10, k.autoscale) == (bursty, rho_x10, autoscale)
                    });
                    assert!(hit, "{bursty} {rho_x10} {autoscale}");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_digest_and_the_seed_matters() {
        let digests = |seed| {
            let mut w = build(seed, &mut Tracer::new(false));
            // A quiet static cell and the bursty, loaded, autoscaled one.
            [0, 7]
                .map(|i| {
                    w.run_chunk(i, &mut Tracer::new(false));
                    let o = w.check_chunk(i);
                    assert_eq!((o.ops, o.failed), (ARRIVALS, 0));
                    o.digest
                })
                .to_vec()
        };
        assert_eq!(digests(7), digests(7));
        assert_ne!(digests(7), digests(8));
    }
}
