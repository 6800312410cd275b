//! `kernels` probes: host nanoseconds per pricing call of each cost
//! model — the innermost loop of `closed_sweep` and `open_serve`.

use super::ns_per_op;
use crate::metrics::Metrics;
use ::kernels::{CycleLedger, InvokeOpts, IpcSystem};
use ::simos::Hardening;
use std::hint::black_box;

/// Message sizes every `oneway_into` probe cycles through.
const SIZES: [usize; 3] = [0, 64, 4096];

/// Rounds over [`SIZES`] per timed run.
const ROUNDS: u64 = 20_000;

/// Metric per roster system, in `kernels::full_roster_factories()` order.
const ONEWAY_NS: [&str; 12] = [
    "kernels.zircon_oneway_ns",
    "kernels.zircon_xpc_oneway_ns",
    "kernels.sel4_onecopy_oneway_ns",
    "kernels.sel4_twocopy_oneway_ns",
    "kernels.sel4_xpc_oneway_ns",
    "kernels.mach_oneway_ns",
    "kernels.lrpc_oneway_ns",
    "kernels.l4_tempmap_oneway_ns",
    "kernels.ppc_remap_oneway_ns",
    "kernels.binder_oneway_ns",
    "kernels.binder_xpc_oneway_ns",
    "kernels.ashmem_xpc_oneway_ns",
];

/// Nanoseconds per `oneway_into` of `sys` under `opts`, over [`SIZES`].
fn oneway_ns(sys: &mut dyn IpcSystem, opts: &InvokeOpts) -> f64 {
    let mut out = CycleLedger::new();
    ns_per_op(ROUNDS * SIZES.len() as u64, || {
        for _ in 0..ROUNDS {
            for len in SIZES {
                out.clear();
                black_box(sys.oneway_into(black_box(len), opts, &mut out));
            }
        }
    })
}

pub fn run(m: &mut Metrics) {
    let mut roster = ::kernels::full_roster();
    assert_eq!(
        roster.len(),
        ONEWAY_NS.len(),
        "one metric per roster system"
    );
    let call = InvokeOpts::call();
    for (sys, name) in roster.iter_mut().zip(ONEWAY_NS) {
        m.set(name, oneway_ns(sys.as_mut(), &call));
    }

    let hardened = InvokeOpts::call().hardened(Hardening::ALL);
    let per_system: f64 = roster
        .iter_mut()
        .map(|sys| oneway_ns(sys.as_mut(), &hardened))
        .sum();
    m.set(
        "kernels.hardened_oneway_ns",
        per_system / roster.len() as f64,
    );

    // A batch of 8 and a depth-4 fused chain, priced on every system.
    let mut out = CycleLedger::new();
    let rounds = ROUNDS / 4;
    let batch = ns_per_op(rounds * roster.len() as u64, || {
        for _ in 0..rounds {
            for sys in &mut roster {
                out.clear();
                black_box(sys.invoke_batch_into(8, black_box(64), &call, &mut out));
            }
        }
    });
    m.set("kernels.batch_into_ns", batch);
    let hop = ns_per_op(rounds * roster.len() as u64 * 4, || {
        for _ in 0..rounds {
            for sys in &mut roster {
                out.clear();
                for hop in 0..4 {
                    black_box(sys.fused_hop_into(hop, black_box(1024), &call, &mut out));
                }
            }
        }
    });
    m.set("kernels.fused_hop_into_ns", hop);
}
