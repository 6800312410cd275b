//! `xpc-engine` probes: bare `xcall`/`xret` laps and `swapseg` on the
//! emulator, with the engine cache off and on.

use super::per_second;
use crate::metrics::Metrics;
use ::rv64::{reg, Assembler, Exit};
use ::xpc::kernel::{XpcKernel, XpcKernelConfig};
use ::xpc::layout::USER_CODE_VA;
use xpc_bench::harness::measure_swapseg;
use xpc_bench::{CallBench, CallBenchConfig};
use xpc_engine::{XpcAsm, XpcStats};

/// Instructions per timed run of a call bench (a lap is ~50).
const LAP_INSTRUCTIONS: u64 = 400_000;

/// `swapseg`s per timed run.
const SWAPS: u64 = 100_000;

/// Round trips per host second of `cfg`'s endless caller loop, and the
/// engine counters after it.
fn roundtrips(cfg: &CallBenchConfig) -> (f64, XpcStats) {
    let mut bench = CallBench::new(cfg);
    let mut laps = 0;
    let seconds = crate::harness::median_seconds(super::REPS, || {
        let before = bench.k.engine().stats.xrets;
        let r = bench.k.machine.run(LAP_INSTRUCTIONS).expect("laps run");
        assert_eq!(r.exit, Exit::LimitReached, "the caller loops for ever");
        laps = bench.k.engine().stats.xrets - before;
    });
    (laps as f64 / seconds, bench.k.engine().stats)
}

/// A one-process world whose thread swaps its live segment with
/// seg-list slot 0 [`SWAPS`] times per run.
fn swapseg_world() -> (XpcKernel, u64) {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pid = k.create_process().expect("process");
    let tid = k.create_thread(pid).expect("thread");
    let live = k.alloc_relay_seg(tid, 4096).expect("segment");
    let stashed = k.alloc_relay_seg(tid, 4096).expect("segment");
    k.stash_seg(pid, 0, stashed).expect("stash");
    k.install_seg(tid, live).expect("install");
    let mut a = Assembler::new(USER_CODE_VA);
    a.li(reg::A0, 0);
    a.label("loop");
    a.swapseg(reg::A0);
    a.addi(reg::S1, reg::S1, -1);
    a.bne(reg::S1, reg::ZERO, "loop");
    a.ebreak();
    let entry = k.load_code(pid, &a.assemble()).expect("code");
    k.enter_thread(tid, entry, &[]).expect("enter");
    (k, entry)
}

pub fn run(m: &mut Metrics) {
    let (plain, plain_stats) = roundtrips(&CallBenchConfig::paper_default());
    m.set("xpc-engine.roundtrips_per_s", plain);
    let (cached, cached_stats) = roundtrips(&CallBenchConfig::engine_cache());
    m.set("xpc-engine.cached_roundtrips_per_s", cached);
    m.set(
        "xpc-engine.cache_hit_ratio",
        cached_stats.cache_hits as f64 / cached_stats.xcalls as f64,
    );

    let (mut k, entry) = swapseg_world();
    let swaps = per_second(SWAPS, || {
        k.machine.core.cpu.pc = entry;
        k.machine.core.cpu.set_x(reg::S1, SWAPS);
        let r = k.machine.run(SWAPS * 4).expect("swaps run");
        assert_eq!(r.exit, Exit::Break, "the swap loop ends at its ebreak");
    });
    m.set("xpc-engine.swapseg_per_s", swaps);
    let swap_stats = k.engine().stats;
    m.set(
        "xpc-engine.exceptions",
        (plain_stats.exceptions + cached_stats.exceptions + swap_stats.exceptions) as f64,
    );

    let call = CallBench::new(&CallBenchConfig::paper_default()).measure(3);
    m.set("xpc-engine.xcall_cycles", call.xcall as f64);
    m.set("xpc-engine.xret_cycles", call.xret as f64);
    m.set("xpc-engine.roundtrip_cycles", call.roundtrip as f64);
    m.set(
        "xpc-engine.swapseg_cycles",
        measure_swapseg(&CallBenchConfig::paper_default()) as f64,
    );
}
