//! `xpc` probes: the `XpcKernel` control plane, one call family at a
//! time. `boot_ms` and `create_process_per_s` are what `guest_xcall`
//! pays at the head of every chunk; the rest is its control-plane cycle.

use super::{per_second, REPS};
use crate::harness::{median_seconds, median_seconds_fresh};
use crate::metrics::Metrics;
use ::xpc::kernel::{XpcKernel, XpcKernelConfig};
use ::xpc::{ThreadId, XpcError};
use std::hint::black_box;

const PROCESSES: u64 = 200;
const ENTRIES: u64 = 200;
/// Contiguous frames are bump-allocated and never reused, so a kernel
/// can hand out about 16 000 one-page segments over its life; stay
/// well inside that.
const SEGS: u64 = 8_000;
const HANDOVERS: u64 = 100_000;
const SWITCHES: u64 = 100_000;

/// Bytes per `write_seg` / `read_seg` pair, and pairs per timed run.
const RW_BYTES: usize = 64 << 10;
const RW_PAIRS: u64 = 256;

/// Calls made and `Err`s returned over all the probes.
#[derive(Default)]
struct Calls {
    made: u64,
    failed: u64,
}

impl Calls {
    fn note<T>(&mut self, r: Result<T, XpcError>) -> Option<T> {
        self.made += 1;
        self.failed += u64::from(r.is_err());
        r.ok()
    }
}

fn boot() -> XpcKernel {
    XpcKernel::boot(XpcKernelConfig::default())
}

/// A booted kernel with two threads in two processes.
fn two_threads() -> (XpcKernel, ThreadId, ThreadId) {
    let mut k = boot();
    let pa = k.create_process().expect("process");
    let pb = k.create_process().expect("process");
    let a = k.create_thread(pa).expect("thread");
    let b = k.create_thread(pb).expect("thread");
    (k, a, b)
}

pub fn run(m: &mut Metrics) {
    let mut calls = Calls::default();

    m.set(
        "xpc.boot_ms",
        median_seconds(REPS, || drop(black_box(boot()))) * 1e3,
    );

    // Processes and x-entries are never freed, so these two take a fresh
    // kernel per repetition, booted outside the timed part.
    let (seconds, _) = median_seconds_fresh(REPS, boot, |k| {
        for _ in 0..PROCESSES {
            calls.note(k.create_process());
        }
    });
    m.set("xpc.create_process_per_s", PROCESSES as f64 / seconds);

    let (seconds, _) = median_seconds_fresh(REPS, two_threads, |(k, server, client)| {
        for _ in 0..ENTRIES {
            if let Some(e) = calls.note(k.register_entry(*server, *server, 0x1_0000, 1)) {
                calls.note(k.grant_xcall(*server, *client, e));
            }
        }
    });
    m.set("xpc.register_grant_per_s", ENTRIES as f64 / seconds);

    let (seconds, _) = median_seconds_fresh(REPS, two_threads, |(k, a, _)| {
        for _ in 0..SEGS {
            if let Some(seg) = calls.note(k.alloc_relay_seg(*a, 4096)) {
                calls.note(k.free_relay_seg(*a, seg));
            }
        }
    });
    m.set("xpc.seg_alloc_free_per_s", SEGS as f64 / seconds);

    let (mut k, a, b) = two_threads();
    let seg = k.alloc_relay_seg(a, 4096).expect("segment");
    let rate = per_second(HANDOVERS, || {
        for _ in 0..HANDOVERS / 2 {
            calls.note(k.install_seg(a, seg));
            calls.note(k.handover_seg(a, b, seg));
            calls.note(k.install_seg(b, seg));
            calls.note(k.handover_seg(b, a, seg));
        }
    });
    m.set("xpc.handover_per_s", rate);

    let big = k.alloc_relay_seg(a, RW_BYTES as u64).expect("segment");
    let payload = vec![0xa5u8; RW_BYTES];
    let seconds = median_seconds(REPS, || {
        for _ in 0..RW_PAIRS {
            calls.note(k.write_seg(big, 0, &payload));
            black_box(calls.note(k.read_seg(big, 0, RW_BYTES)));
        }
    });
    let mib = (2 * RW_PAIRS as usize * RW_BYTES) as f64 / (1 << 20) as f64;
    m.set("xpc.seg_rw_mib_per_s", mib / seconds);

    let rate = per_second(SWITCHES, || {
        for _ in 0..SWITCHES / 2 {
            calls.note(k.enter_thread(a, 0x1_0000, &[1, 2]));
            calls.note(k.resume_thread(b));
        }
    });
    m.set("xpc.enter_resume_per_s", rate);

    m.set("xpc.errors", calls.failed as f64 / calls.made as f64);
}
