//! Model-exact pin of the request engine (`load` and `serve` over
//! `engine::run`, which replays plans `MultiWorld::price_step` priced
//! through the kernels' `oneway_into`).
//!
//! A change meant only to make the per-request path cheaper on the host
//! must leave every simulated number identical: counts, virtual times,
//! the run ledger span for span *in order*, the bit patterns of the
//! latency tails, engine-cache counters, per-tenant admission and the
//! autoscale controller's trajectory. The literals below were captured
//! on the commit *before* the ledgers got slot maps, the issue heap
//! became a replace-min queue, core distances became a table, the tails
//! became selections, `Full` attribution stopped staging through the
//! arena and requests began replaying plans priced once per run; they
//! move only when the model itself is changed on purpose.
//! The engine twin of `rv64/tests/cycle_pin.rs` and
//! `services/tests/storage_pin.rs`.

use kernels::{BinderIpc, BinderSystem, Sel4, Sel4Transfer, XpcIpc};
use simos::load::run_windowed_with;
use simos::serve::serve_with;
use simos::{
    Attribution, AutoscaleCfg, CycleLedger, IpcSystem, LedgerArena, LoadGen, MultiWorld,
    OpenLoopGen, PhaseTotals, Placement, Recipe, ServePolicy, ServeSpec, Step, SweepScratch,
    TenantClass, Topology,
};
use std::fmt::Write as _;

type Mk = fn() -> Box<dyn IpcSystem>;

/// One trap-based system, one XPC system, and Binder.
const SYSTEMS: [Mk; 3] = [
    || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
    || Box::new(XpcIpc::sel4_xpc()),
    || Box::new(BinderIpc::new(BinderSystem::Binder, false)),
];

/// Client plus the four hops of the fused chain.
const SERVICES: usize = 5;

/// An 8-core dual-socket world (so shard distance, the cross-socket
/// surcharge and the placement penalty are all non-zero somewhere) and a
/// roster touching every `Step` variant.
fn bed(mk: Mk) -> (MultiWorld, Vec<Vec<Step>>) {
    let mut mw = MultiWorld::builder()
        .topology(Topology::dual_socket())
        .build(mk);
    let program = Recipe::new(0)
        .hop(1, 256)
        .compute(200)
        .handover(2, 4096)
        .compute(200)
        .hop(3, 0)
        .hop(4, 1024)
        .compute(350)
        .reply(64)
        .build()
        .expect("a valid depth-4 chain");
    let fused = Step::Fused(mw.register_program(program));
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
                to: 2,
                calls: 8,
                bytes_each: 64,
            },
            Step::DataPass {
                at: 2,
                bytes: 2048,
                intensity_x10: 15,
            },
            fused,
        ],
    ];
    (mw, recipes)
}

fn spans(out: &mut String, ledger: &CycleLedger) {
    for (p, c) in ledger.spans() {
        write!(out, " {}:{c}", p.key()).unwrap();
    }
}

fn bits(out: &mut String, name: &str, values: &[f64]) {
    write!(out, " {name}").unwrap();
    for v in values {
        write!(out, ":{:016x}", v.to_bits()).unwrap();
    }
}

/// One closed-loop cell rendered as a pin line.
fn load_pin(mk: Mk, sampled: bool) -> String {
    let (mut mw, recipes) = bed(mk);
    let spec = LoadGen {
        clients: 48,
        requests: 6_000,
        seed: 0x16,
        think_cycles: 250,
    };
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::with_capacity(8, 8 * simos::Phase::COUNT);
    let caps = (arena.ledger_capacity(), arena.span_capacity());
    let mut totals = PhaseTotals::new();
    let (policy, window, att) = if sampled {
        let att = Attribution::Sampled {
            every: 64,
            totals: &mut totals,
            arena: &mut arena,
        };
        (Placement::LeastLoaded, 8, att)
    } else {
        (Placement::RoundRobin, 1, Attribution::Full(&mut arena))
    };
    let r = run_windowed_with(
        &mut mw,
        &policy,
        SERVICES,
        &recipes,
        &spec,
        window,
        &mut scratch,
        att,
    )
    .expect("a valid cell");
    let mut out = format!(
        "{} req={} calls={} makespan={} busy={} |",
        r.system, r.requests, r.ipc_calls, r.makespan_cycles, r.busy_cycles
    );
    spans(&mut out, &r.ledger);
    out.push_str(" |");
    bits(&mut out, "tail", &[r.mean_us, r.p50_us, r.p95_us, r.p99_us]);
    write!(out, " | cache={:?}", r.engine_cache).unwrap();
    if sampled {
        assert_eq!(totals.total(), r.ledger.total(), "sampled totals are exact");
        // 1-in-64 of 6 000 priced requests keep their span ledger.
        write!(out, " | kept={} last:", arena.len()).unwrap();
        let last = arena.handles().last().expect("a kept ledger");
        spans(&mut out, &arena.to_ledger(last));
    } else {
        // The caller's arena comes back as it was handed in.
        assert_eq!(arena.len(), 0, "Full leaves no ledger behind");
        assert_eq!(
            (arena.ledger_capacity(), arena.span_capacity()),
            caps,
            "Full neither grows nor frees the caller's arena"
        );
    }
    out
}

/// One Poisson trace at rho 0.9 of the mechanism's measured capacity,
/// replayed under `policy`, rendered as a pin line.
fn serve_pin(policy: &ServePolicy) -> String {
    let mk = SYSTEMS[1];
    let spec = ServeSpec {
        tenants: 4,
        classes: vec![
            TenantClass {
                queue_cap: 3,
                slo_p99_us: 40.0,
            },
            TenantClass {
                queue_cap: 12,
                slo_p99_us: 400.0,
            },
        ],
        backlog_cap_cycles: 30_000,
    };
    let gen = |mean, seed| OpenLoopGen {
        tenants: spec.tenants,
        ..OpenLoopGen::poisson(mean, seed)
    };
    let rr = ServePolicy::Static(Placement::RoundRobin);
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::new();
    // Saturation period: a back-to-back probe's makespan over its length.
    let period = {
        let (mut mw, recipes) = bed(mk);
        let probe = gen(1, 0x5e7e).trace(512, 3).expect("a valid probe");
        let unbounded = ServeSpec {
            tenants: spec.tenants,
            ..ServeSpec::default()
        };
        let r = serve_with(
            &mut mw,
            &rr,
            SERVICES,
            &recipes,
            &probe,
            &unbounded,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .expect("a valid probe run");
        r.makespan_cycles / 512
    };
    let (mut mw, recipes) = bed(mk);
    let trace = gen(period * 10 / 9, 0x16)
        .trace(8_000, 3)
        .expect("a valid trace");
    let r = serve_with(
        &mut mw,
        policy,
        SERVICES,
        &recipes,
        &trace,
        &spec,
        &mut scratch,
        Attribution::Full(&mut arena),
    )
    .expect("a valid serve run");
    assert_eq!(arena.len(), 0, "Full leaves no ledger behind");
    let mut out = format!(
        "{} {} period={period} offered={} admitted={} shed={}+{} calls={} makespan={} busy={} |",
        r.system,
        r.policy,
        r.offered,
        r.admitted,
        r.shed_queue_full,
        r.shed_backlog,
        r.ipc_calls,
        r.makespan_cycles,
        r.busy_cycles
    );
    spans(&mut out, &r.ledger);
    out.push_str(" |");
    let tail = [r.mean_us, r.p50_us, r.p95_us, r.p99_us, r.max_us];
    bits(&mut out, "tail", &tail);
    write!(out, " | cache={:?} |", r.engine_cache).unwrap();
    for t in &r.tenants {
        write!(
            out,
            " t{}={}/{}-{}-{}",
            t.tenant, t.admitted, t.offered, t.shed_queue_full, t.shed_backlog
        )
        .unwrap();
        bits(&mut out, "", &[t.p50_us, t.p99_us]);
        write!(out, ":{}", u8::from(t.slo_met)).unwrap();
    }
    write!(out, " | autoscale={:?}", r.autoscale).unwrap();
    out
}

#[test]
fn closed_loop_cells_are_pinned() {
    let got: Vec<String> = SYSTEMS
        .iter()
        .flat_map(|&mk| [load_pin(mk, false), load_pin(mk, true)])
        .collect();
    let want: &[&str] = &[
        "seL4-onecopy req=6000 calls=28165 makespan=84671708 busy=472541443 | trap:3435663 ipc-logic:5311978 switch:4687914 restore:6389691 schedule:30649938 transfer:20841904 cross-core:393075300 | tail:40b9d8df5e74299e:409a7ed70a3d70a4:40daf3247ae147ae:40e171b147ae147b | cache=None",
        "seL4-onecopy req=6000 calls=28165 makespan=37238542 busy=297320193 | trap:3435663 ipc-logic:5311978 switch:4687914 restore:6389691 transfer:20841904 schedule:30649938 queue:13531547832 cross-core:217854050 | tail:40d682074189374b:40d71268f5c28f5c:40d913a5c28f5c29:40d9e3cc28f5c28f | cache=None | kept=94 last: queue:2416102 trap:107 ipc-logic:212 switch:146 restore:199 schedule:1518 transfer:124 cross-core:10750",
        "seL4-XPC req=6000 calls=28165 makespan=2389319 busy=14587737 | trampoline:609140 xcall:265170 tlb-refill:1284360 xret:90712 shard-miss:399900 cross-core:3789400 | tail:40673a98bd66277d:404e000000000000:4083d0e147ae147b:4088e6147ae147ae | cache=Some(EngineCacheStats { prefetches: 2015, cache_hits: 20150, shard_misses: 3999 })",
        "seL4-XPC req=6000 calls=28165 makespan=1682474 busy=13442837 | trampoline:609140 xcall:265170 xret:90712 tlb-refill:1284360 queue:609943466 cross-core:2762800 shard-miss:281600 | tail:40903be89fb07ba5:4090bfc28f5c28f6:4091f6e147ae147a:409298cccccccccd | cache=Some(EngineCacheStats { prefetches: 2015, cache_hits: 20150, shard_misses: 2816 }) | kept=94 last: queue:108132 trampoline:76 xcall:18 tlb-refill:40",
        "Binder req=6000 calls=28165 makespan=178095356 busy=1193344759 | driver:751695000 transfer:39237994 compute:1187410 cross-core:393075300 | tail:40cb3b3ad81adea9:40ba6bfd70a3d70a:40e95d0333333333:40f0fc968f5c28f6 | cache=None",
        "Binder req=6000 calls=28165 makespan=144709098 busy=1155627659 | transfer:39237994 queue:52603878984 cross-core:355358200 driver:751695000 compute:1187410 | tail:40f5dff2d804268e:40f68547d70a3d71:40f7f316e147ae14:40f87e89c28f5c29 | cache=None | kept=94 last: queue:9333757 driver:30000 transfer:124 compute:2",
    ];
    assert_eq!(got, want);
}

#[test]
fn open_loop_runs_are_pinned() {
    let got = [
        serve_pin(&ServePolicy::Static(Placement::RoundRobin)),
        // Thresholds under the backlog cap, so the controller grows and
        // shrinks the active set instead of only shedding.
        serve_pin(&ServePolicy::Autoscale(AutoscaleCfg {
            epoch_arrivals: 32,
            grow_backlog_cycles: 12_000,
            shrink_backlog_cycles: 1_500,
            ..AutoscaleCfg::default()
        })),
    ];
    let want: &[&str] = &[
        "seL4-XPC static:round-robin period=487 offered=8000 admitted=7405 shed=595+0 calls=34685 makespan=4288595 busy=18100232 | queue:6060933 trampoline:751260 xcall:326730 tlb-refill:1583960 xret:113022 shard-miss:498600 cross-core:4779100 | tail:4040506819d4e586:40433c28f5c28f5d:4054d3d70a3d70a4:405ec70a3d70a3d7:4066fdc28f5c28f6 | cache=Some(EngineCacheStats { prefetches: 2480, cache_hits: 24800, shard_misses: 4986 }) | t0=1713/2041-328-0 :40433c28f5c28f5d:405da5c28f5c28f6:0 t1=1950/1950-0-0 :40433c28f5c28f5d:405ede147ae147af:1 t2=1719/1986-267-0 :40433c28f5c28f5d:405eccccccccccce:0 t3=2023/2023-0-0 :40433c28f5c28f5d:405e9f5c28f5c28f:1 | autoscale=None",
        "seL4-XPC autoscale period=487 offered=8000 admitted=6810 shed=1190+0 calls=31758 makespan=4290323 busy=11740605 | queue:24734657 trampoline:689928 xcall:299484 tlb-refill:1451080 xret:103937 | tail:404ac7d97b61d992:404703d70a3d70a4:4060533333333333:40661d1eb851eb86:4070e8cccccccccd | cache=Some(EngineCacheStats { prefetches: 2268, cache_hits: 22680, shard_misses: 0 }) | t0=1420/2041-621-0 :4046bd70a3d70a3d:406453d70a3d70a4:0 t1=1944/1950-6-0 :40486a3d70a3d70a:40661d1eb851eb86:1 t2=1425/1986-561-0 :4046bd70a3d70a3d:4064f23d70a3d70a:0 t3=2021/2023-2-0 :404875c28f5c28f6:40676d70a3d70a3d:1 | autoscale=Some(AutoscaleReport { grow_events: 24, shrink_events: 23, min_active: 1, max_active: 4, final_active: 2 })",
    ];
    assert_eq!(got, want);
}
