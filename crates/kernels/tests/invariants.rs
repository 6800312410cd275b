//! Invariants of the 12-system roster, looped over plain `#[test]`
//! grids of boundary values, plus a generated sweep of step byte fields
//! on the in-tree property harness (`ycsb::check`).

use kernels::{
    full_roster, full_roster_cross_core, CrossCore, Invocation, InvokeOpts, Phase, Sel4,
    Sel4Transfer, XCoreCost, XpcIpc, Zircon,
};
use simos::cost::CostModel;
use simos::ipc::IpcSystem;
use simos::ledger::Hardening;
use simos::transport::Transport;
use simos::{MultiWorld, Step, Topology};

fn oneway<S: IpcSystem + ?Sized>(sys: &mut S, len: usize, opts: &InvokeOpts) -> Invocation {
    Invocation::priced(|l| sys.oneway_into(len, opts, l))
}

fn batch<S: IpcSystem + ?Sized>(sys: &mut S, calls: u64, len: usize) -> Invocation {
    Invocation::priced(|l| sys.invoke_batch_into(calls, len, &InvokeOpts::call(), l))
}

/// One one-way hop from core 0 to core `to` at t = 0.
fn hop(mw: &mut MultiWorld, to: usize, bytes: u64) -> Invocation {
    mw.exec(0, Step::Oneway { from: 0, to, bytes }, 0).inv
}

/// Size axis: boundary values of every transfer regime (register path,
/// slow path at 64 B, buffer edge at 120/121, pages, megabytes).
const SIZES: [usize; 10] = [0, 1, 32, 64, 120, 121, 1024, 4096, 65536, 1 << 20];

#[test]
fn pricing_is_a_function_of_the_arguments() {
    // `IpcSystem`'s contract, which the request engine's plan cache
    // relies on: every pricing method answers the same question the
    // same way however often, and in whatever order, it is asked. The
    // whole question list is priced twice on one instance, so history
    // carried from any earlier question shows up as a difference.
    for mut sys in full_roster() {
        let name = sys.name();
        let mut price_all = || {
            let mut answers = Vec::new();
            for reply in [false, true] {
                for dist in [0, 2] {
                    for hardening in [Hardening::NONE, Hardening::ALL] {
                        let base = if reply {
                            InvokeOpts::reply_leg()
                        } else {
                            InvokeOpts::call()
                        };
                        let opts = base.at_shard_distance(dist).hardened(hardening);
                        for len in [0, 64, 4096] {
                            answers.push(oneway(&mut sys, len, &opts));
                            for calls in [0, 1, 8] {
                                answers.push(Invocation::priced(|l| {
                                    sys.invoke_batch_into(calls, len, &opts, l)
                                }));
                            }
                            for hop in 0..=3 {
                                answers.push(Invocation::priced(|l| {
                                    sys.fused_hop_into(hop, len, &opts, l)
                                }));
                            }
                        }
                    }
                }
            }
            answers
        };
        let first = price_all();
        let again = price_all();
        for (i, (a, b)) in first.iter().zip(&again).enumerate() {
            assert_eq!(
                a, b,
                "{name}: question {i} priced differently the second time"
            );
        }
    }
}

#[test]
fn phases_are_charged_at_most_in_first_charge_order() {
    // A ledger never lists the same phase twice: repeated charges fold
    // into the first span, so span order is a stable presentation key.
    for mut sys in full_roster() {
        let inv = oneway(&mut sys, 4096, &InvokeOpts::call());
        let mut seen: Vec<Phase> = Vec::new();
        for &(p, _) in inv.ledger.spans() {
            assert!(!seen.contains(&p), "{}: {p:?} listed twice", sys.name());
            seen.push(p);
        }
    }
}

#[test]
fn relay_seg_never_exceeds_twofold_copy() {
    // §4.1: handover via the relay segment must never cost more than the
    // copying baseline — at any size, over any hop count.
    let cost = CostModel::u500();
    for bytes in SIZES {
        for hops in 1..=8u64 {
            let relay = Transport::RelaySeg.transfer_cycles(&cost, bytes as u64, hops);
            let copy = Transport::TwofoldCopy.transfer_cycles(&cost, bytes as u64, hops);
            assert!(
                relay <= copy,
                "relay-seg {relay} > twofold-copy {copy} at {bytes}B x {hops} hops"
            );
            assert_eq!(
                Transport::RelaySeg.copies(hops),
                0,
                "relay-seg moves no bytes"
            );
        }
    }
}

#[test]
fn u500_calibration_bands_hold() {
    // The calibration constants behind every figure, pinned to the
    // paper's measurements (Table 1, Table 3, Figure 5, §5.2).
    let c = CostModel::u500();
    assert_eq!(c.sel4_fastpath_base(), 664, "Table 1 sum (0B)");
    let mut fastpath = kernels::CycleLedger::new();
    c.sel4_fastpath_into(&mut fastpath);
    assert_eq!(fastpath.total(), 664);
    assert_eq!(c.copy_cycles(4096), 4010, "Table 1: 4K transfer");
    assert_eq!((c.xcall, c.xret, c.swapseg), (18, 23, 11), "Table 3");
    assert_eq!(c.xpc_oneway(true, false), 76 + 18 + 40, "Figure 5 Full-Cxt");
    assert_eq!(c.xpc_oneway(false, true), 15 + 18, "Figure 5 best one-way");
    // §5.2 speedup bands at the model's own numbers: same-core 0B and
    // 4KB speedups of seL4 over XPC.
    let xpc = c.xpc_oneway(true, false) as f64;
    let s0 = 664.0 / xpc;
    let s4k = (664.0 + 4010.0) / xpc;
    assert!((4.5..6.5).contains(&s0), "0B speedup {s0:.1} (paper: 5x)");
    assert!(
        (30.0..40.0).contains(&s4k),
        "4KB speedup {s4k:.1} (paper: 37x)"
    );
}

#[test]
fn cross_core_adapter_grid_over_the_full_roster() {
    // Every roster system, wrapped by the §5.2 CrossCore adapter, over
    // every size regime: the wrapped call costs exactly the inner call
    // plus the surcharge (zero for thread-migrating designs), the ledger
    // invariant holds, and the CrossCore span is always present.
    let xc = XCoreCost::u500();
    // One diff buffer for the whole grid: `diff_into` re-fills it per
    // cell, so the 12 x 10 sweep allocates it once.
    let mut delta: Vec<(Phase, i64)> = Vec::new();
    for (mut plain, mut cross) in full_roster().into_iter().zip(full_roster_cross_core()) {
        assert_eq!(cross.name(), format!("{}+xcore", plain.name()));
        assert_eq!(cross.supports_handover(), plain.supports_handover());
        for bytes in SIZES {
            let inner = oneway(&mut plain, bytes, &InvokeOpts::call());
            let wrapped = oneway(&mut cross, bytes, &InvokeOpts::call());
            let extra = if plain.migrating_threads() {
                0
            } else {
                xc.hop_extra(bytes as u64)
            };
            assert_eq!(
                wrapped.total(),
                inner.total() + extra,
                "{} at {bytes}B",
                cross.name()
            );
            assert_eq!(wrapped.ledger.get(Phase::CrossCore), extra);
            assert!(
                wrapped
                    .ledger
                    .spans()
                    .iter()
                    .any(|(p, _)| *p == Phase::CrossCore),
                "{}: CrossCore span must be recorded even at zero cost",
                cross.name()
            );
            assert_eq!(wrapped.copied_bytes, inner.copied_bytes);
            // The ledger diff decomposes the surcharge exactly: the
            // wrapped-vs-inner delta is CrossCore and nothing else.
            wrapped.ledger.diff_into(&inner.ledger, &mut delta);
            let sum: i64 = delta.iter().map(|&(_, d)| d).sum();
            assert_eq!(sum, extra as i64, "{} at {bytes}B", cross.name());
            for &(p, d) in &delta {
                if p != Phase::CrossCore {
                    assert_eq!(d, 0, "{}: {p:?} must not drift", cross.name());
                }
            }
        }
    }
}

#[test]
fn section_5_2_cross_core_ratio_bands() {
    // §5.2: cross-core seL4 is 81–141× an XPC call; Zircon is ~60× —
    // priced through the generic adapter, not hand-rolled variants.
    let xpc0 = oneway(&mut XpcIpc::sel4_xpc(), 0, &InvokeOpts::call()).total() as f64;
    let mut sel4_xc = CrossCore::new(Box::new(Sel4::new(Sel4Transfer::OneCopy)));
    for bytes in [0usize, 4096] {
        let ratio = oneway(&mut sel4_xc, bytes, &InvokeOpts::call()).total() as f64 / xpc0;
        assert!(
            (81.0..=141.0).contains(&ratio),
            "seL4 cross-core at {bytes}B: {ratio:.1}x (paper: 81-141x)"
        );
    }
    let zircon = oneway(&mut Zircon::new(), 0, &InvokeOpts::call()).total() as f64;
    let z_ratio = zircon / xpc0;
    assert!(
        (55.0..=65.0).contains(&z_ratio),
        "Zircon: {z_ratio:.1}x (~60x)"
    );
    // XPC itself crosses cores for free: the adapter must not change it.
    let mut xpc_xc = CrossCore::new(Box::new(XpcIpc::sel4_xpc()));
    assert_eq!(
        oneway(&mut xpc_xc, 4096, &InvokeOpts::call()).total() as f64,
        xpc0
    );
}

#[test]
fn adapter_reproduces_the_hand_rolled_variants() {
    // The generic adapter and the legacy `Sel4::cross_core` /
    // `Zircon::cross_core` constructors must agree where both exist
    // (0 B: the hand-rolled variants charge only the constant part).
    let mut a = CrossCore::new(Box::new(Sel4::new(Sel4Transfer::TwoCopy)));
    let mut b = Sel4::cross_core(Sel4Transfer::TwoCopy);
    let ia = oneway(&mut a, 0, &InvokeOpts::call());
    let ib = oneway(&mut b, 0, &InvokeOpts::call());
    assert_eq!(ia.total(), ib.total());
    assert_eq!(
        ia.ledger.get(Phase::CrossCore),
        ib.ledger.get(Phase::CrossCore)
    );

    let mut a = CrossCore::new(Box::new(Zircon::new()));
    let mut b = Zircon::cross_core();
    assert_eq!(
        oneway(&mut a, 0, &InvokeOpts::call()).total(),
        oneway(&mut b, 0, &InvokeOpts::call()).total()
    );
}

#[test]
fn batching_amortizes_monotonically_over_the_full_roster() {
    // Per-call cycles strictly decrease with batch size for every
    // mechanism (same-core and cross-core), floor at the per-call
    // transfer cost, and uphold the ledger + copied-bytes invariants.
    const BATCHES: [u64; 3] = [1, 8, 64];
    for mut sys in full_roster().into_iter().chain(full_roster_cross_core()) {
        let name = sys.name();
        for bytes in [0usize, 64, 4096] {
            let first = oneway(&mut sys, bytes, &InvokeOpts::call());
            let totals: Vec<u64> = BATCHES
                .iter()
                .map(|&n| {
                    let inv = batch(&mut sys, n, bytes);
                    assert_eq!(
                        inv.copied_bytes,
                        n * first.copied_bytes,
                        "{name} n={n}: payload movement never amortizes"
                    );
                    assert_eq!(
                        inv.ledger.get(Phase::Transfer),
                        n * first.ledger.get(Phase::Transfer),
                        "{name} n={n}: transfer is per-call"
                    );
                    inv.total()
                })
                .collect();
            assert_eq!(totals[0], first.total(), "{name}: batch of 1 == oneway");
            // Strict per-call decrease: total(m)/m < total(n)/n for m > n,
            // compared exactly via cross-multiplication.
            for w in [(1, 0), (2, 1)] {
                let (hi, lo) = (w.0, w.1);
                assert!(
                    totals[hi] * BATCHES[lo] < totals[lo] * BATCHES[hi],
                    "{name} at {bytes}B: per-call cost must strictly drop \
                     from batch {} to {}",
                    BATCHES[lo],
                    BATCHES[hi]
                );
            }
            // Floor: a batched call never dips below its transfer cost.
            for (&n, &total) in BATCHES.iter().zip(&totals) {
                assert!(
                    total >= n * first.ledger.get(Phase::Transfer),
                    "{name} at {bytes}B n={n}: below the transfer floor"
                );
            }
        }
    }
}

#[test]
fn xpc_batching_ratio_beats_every_trap_based_baseline() {
    // The figure behind the pipeline experiment: XPC amortizes its whole
    // entry path (trampoline + uncached x-entry fetch) across a burst,
    // trap-based kernels only amortize user-side setup — so XPC's
    // batch-64 vs batch-1 per-call ratio must beat every one of them.
    let ratio_at_64 = |sys: &mut Box<dyn IpcSystem>| {
        let one = batch(sys, 1, 64).total() as f64;
        let batch = batch(sys, 64, 64).total() as f64;
        one / (batch / 64.0)
    };
    let mut xpc_min = f64::INFINITY;
    let mut baseline_max: (f64, String) = (0.0, String::new());
    for mut sys in full_roster().into_iter().chain(full_roster_cross_core()) {
        let r = ratio_at_64(&mut sys);
        assert!(r > 1.0, "{}: batching must amortize something", sys.name());
        if sys.migrating_threads() {
            xpc_min = xpc_min.min(r);
        } else if r > baseline_max.0 {
            baseline_max = (r, sys.name());
        }
    }
    assert!(
        xpc_min > baseline_max.0,
        "XPC batch ratio {xpc_min:.2}x must beat the best baseline \
         ({} at {:.2}x)",
        baseline_max.1,
        baseline_max.0
    );
    // And the gap is material: the engine cache + trampoline skip buy
    // well over 2x, the §2 trap path caps below it.
    assert!(xpc_min > 2.5, "XPC batch-64 ratio: {xpc_min:.2}x");
    assert!(baseline_max.0 < 2.5, "{baseline_max:?}");
}

#[test]
fn numa_pricing_invariants_over_the_full_roster() {
    // The dual-socket acceptance invariant, over all 12 systems: a hop to
    // a core on the *remote* socket strictly exceeds the same hop to a
    // core on the local socket (trap-based kernels pay the
    // distance-scaled IPI + wakeup + cache-transfer surcharge; migrating
    // designs pay the relay-segment line-distance term and/or the remote
    // x-entry shard fetch) — while migrating-thread calls keep the
    // intra-socket crossing at zero Phase::CrossCore, exactly the §5.2
    // free crossing.
    for mk in kernels::full_roster_factories() {
        let name = mk().name();
        let migrating = mk().migrating_threads();
        for bytes in [0u64, 64, 4096] {
            let hop = |to: usize| {
                let mut mw = MultiWorld::builder()
                    .topology(Topology::dual_socket())
                    .build(mk);
                hop(&mut mw, to, bytes)
            };
            let local = hop(1); // same socket
            let remote = hop(4); // distance 2
            assert!(
                remote.total() > local.total(),
                "{name} at {bytes}B: remote-socket hop ({}) must strictly \
                 exceed local-socket hop ({})",
                remote.total(),
                local.total()
            );
            if migrating {
                // Intra-socket xcall: no surcharge, not even a zero span.
                assert_eq!(local.ledger.get(Phase::CrossCore), 0, "{name}");
                assert!(
                    !local
                        .ledger
                        .spans()
                        .iter()
                        .any(|(p, _)| *p == Phase::CrossCore),
                    "{name}: intra-socket migrating hop must not record \
                     a CrossCore span"
                );
            } else {
                // Trap-based: distance 2 at numa_x10 = 5 doubles the
                // whole surcharge, and sharding never applies.
                let flat = XCoreCost::u500().hop_extra(bytes);
                assert_eq!(local.ledger.get(Phase::CrossCore), flat, "{name}");
                assert_eq!(remote.ledger.get(Phase::CrossCore), 2 * flat, "{name}");
                assert_eq!(remote.ledger.get(Phase::ShardMiss), 0, "{name}");
            }
        }
    }
}

#[test]
fn sharded_xentry_fetches_are_counted_and_priced() {
    // XPC on the dual socket: a remote-shard call leg pays
    // xentry_shard_fetch x distance and bumps the shard-miss counter; a
    // local-shard leg pays and counts nothing.
    let mk = || -> Box<dyn IpcSystem> { Box::new(XpcIpc::sel4_xpc()) };
    let mut mw = MultiWorld::builder()
        .topology(Topology::dual_socket())
        .build(mk);
    let fetch = CostModel::u500().xentry_shard_fetch;
    let local = hop(&mut mw, 1, 0);
    assert_eq!(local.ledger.get(Phase::ShardMiss), 0);
    let remote = hop(&mut mw, 4, 0);
    assert_eq!(remote.ledger.get(Phase::ShardMiss), 2 * fetch);
    assert_eq!(remote.total(), local.total() + 2 * fetch);
    let stats = mw.engine_cache_stats().expect("XPC models an engine cache");
    assert_eq!(stats.shard_misses, 1, "only the remote leg missed");
}

#[test]
fn roundtrip_is_the_sum_of_its_legs() {
    // The invariant the old `IpcSystem::roundtrip` default encoded: a
    // round trip priced into one sink equals its call leg merged with
    // its reply leg, span for span (order included).
    for mut sys in full_roster() {
        let name = sys.name();
        let call = oneway(&mut sys, 256, &InvokeOpts::call());
        let reply = oneway(&mut sys, 64, &InvokeOpts::reply_leg());
        let rt = Invocation::priced(|l| {
            sys.oneway_into(256, &InvokeOpts::call(), l)
                + sys.oneway_into(64, &InvokeOpts::reply_leg(), l)
        });
        assert_eq!(rt.total(), call.total() + reply.total(), "{name}");
        assert_eq!(
            rt.copied_bytes,
            call.copied_bytes + reply.copied_bytes,
            "{name}"
        );
        assert_eq!(rt, call.plus(reply), "{name}: span for span");
    }
}

#[test]
fn extreme_step_fields_saturate_instead_of_wrapping() {
    // Virtual time is u64 and every field below is caller-supplied. At
    // the boundaries the clock must pin at u64::MAX — never wrap a
    // completion time to a small number (release) or panic (debug).
    const EDGES: [u64; 5] = [0, 1, u32::MAX as u64, u64::MAX / 2, u64::MAX];
    let steps = |v: u64| {
        [
            Step::Compute { at: 4, cycles: v },
            Step::Batch {
                from: 0,
                to: 4,
                calls: v,
                bytes_each: 64,
            },
            Step::Batch {
                from: 0,
                to: 4,
                calls: 2,
                bytes_each: v,
            },
            Step::Roundtrip {
                from: 0,
                to: 4,
                request: v,
                response: 64,
            },
            Step::Roundtrip {
                from: 0,
                to: 4,
                request: 64,
                response: v,
            },
            Step::DataPass {
                at: 4,
                bytes: v,
                intensity_x10: 25,
            },
        ]
    };
    for mk in kernels::full_roster_factories() {
        let name = mk().name();
        // One world per system, so the per-core accumulators see the
        // whole sweep pile up.
        let mut mw = MultiWorld::builder()
            .topology(Topology::dual_socket())
            .build(mk);
        for v in EDGES {
            for step in steps(v) {
                for ready in EDGES {
                    let core = match step {
                        // Cross-socket into core 4.
                        Step::Batch { .. } | Step::Roundtrip { .. } => 0,
                        _ => 4,
                    };
                    let before = mw.free_at(4);
                    let c = mw.exec(core, step, ready);
                    assert!(c.done >= ready, "{name}: {step:?} at {ready}");
                    assert!(mw.free_at(4) >= before, "{name}: {step:?} at {ready}");
                    assert_eq!(mw.free_at(4), c.done, "{name}: {step:?} at {ready}");
                }
            }
        }
        assert_eq!(mw.free_at(4), u64::MAX, "{name}: the sweep ends saturated");
    }
}

#[test]
fn random_message_bytes_never_panic_the_host() {
    // Every byte field a caller can hand a step, drawn over the whole
    // u64 range (half the draws are >= u64::MAX / 2), on every roster
    // system and at any ready time: pricing saturates, it never panics.
    let factories = kernels::full_roster_factories();
    ycsb::check(
        "random_message_bytes_never_panic_the_host",
        2000,
        &[],
        |rng, size| {
            let sys = rng.below(factories.len() as u64) as usize;
            let (a, b) = (rng.below(size), rng.below(size));
            let step = match rng.below(3) {
                0 => Step::Oneway {
                    from: 0,
                    to: 4,
                    bytes: a,
                },
                1 => Step::Batch {
                    from: 0,
                    to: 4,
                    calls: rng.below(64.min(size)),
                    bytes_each: a,
                },
                _ => Step::Roundtrip {
                    from: 0,
                    to: 4,
                    request: a,
                    response: b,
                },
            };
            (sys, step, rng.below(size))
        },
        |&(sys, step, ready)| {
            let mut mw = MultiWorld::builder()
                .topology(Topology::dual_socket())
                .build(factories[sys]);
            let c = mw.exec(0, step, ready);
            let name = factories[sys]().name();
            if c.done < ready {
                return Err(format!("{name}: done {} before ready {ready}", c.done));
            }
            Ok(())
        },
    );
}
