//! The five workloads. Each exists to load one part of the stack and
//! leave another idle, so that a change to one layer has a workload it
//! must win on and a workload it must not move.

use crate::harness::Spec;
use simos::{CallProgram, Recipe};

pub mod closed_sweep;
pub mod figures_all;
pub mod guest_alu;
pub mod guest_xcall;
pub mod open_serve;

pub static ALL: [Spec; 5] = [
    Spec {
        name: "guest_alu",
        op: "retired guest instruction",
        why: "bare M-mode ALU/branch/mul loop: all rv64 fetch-decode-execute; MMU, engine and simos idle",
        setup_reps: 5,
        warmup_chunks: 4,
        seeded: true,
        build: guest_alu::build,
    },
    Spec {
        name: "guest_xcall",
        op: "xcall/xret round trip",
        why: "xcall round trips under Sv39 with control-plane cycles: satp switches, TLB flushes, fresh code pages",
        setup_reps: 5,
        warmup_chunks: 4,
        seeded: true,
        build: guest_xcall::build,
    },
    Spec {
        name: "closed_sweep",
        op: "simulated request",
        why: "closed-loop load over the 12-system roster: kernels, MultiWorld::exec_into, load heap and arena; rv64 idle",
        setup_reps: 5,
        warmup_chunks: 6,
        seeded: true,
        build: closed_sweep::build,
    },
    Spec {
        name: "open_serve",
        op: "offered arrival",
        why: "open-loop traces through serve_with: same pricing layers as closed_sweep, the other event loop",
        setup_reps: 5,
        warmup_chunks: 4,
        seeded: true,
        build: open_serve::build,
    },
    Spec {
        name: "figures_all",
        op: "registry experiment",
        why: "what users run: every figure plus the JSON tail; services, minidb and ycsb do most of the work",
        setup_reps: 3,
        warmup_chunks: 25,
        seeded: false,
        build: figures_all::build,
    },
];

/// Recipe service-id space of the chain recipes: the client plus the
/// four hops.
pub const CHAIN_SERVICES: usize = 5;

/// The depth-4 fused chain `closed_sweep`, `open_serve` and the probes
/// dispatch: client 0 calls services 1..=4 in order, `hop_bytes` and
/// `hop_cycles` per hop (handed over in the relay segment when
/// `handover`), `reply_bytes` back.
pub fn chain(hop_bytes: u64, hop_cycles: u64, reply_bytes: u64, handover: bool) -> CallProgram {
    let mut r = Recipe::new(0);
    for service in 1..CHAIN_SERVICES {
        r = if handover {
            r.handover(service, hop_bytes)
        } else {
            r.hop(service, hop_bytes)
        };
        r = r.compute(hop_cycles);
    }
    r.reply(reply_bytes)
        .build()
        .expect("depth 4 is within bounds")
}

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}
