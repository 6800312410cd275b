//! `rv64` probes: five guest kernels through `Machine::run`, and the
//! interpreter's counters on a `guest_xcall` world.
//!
//! Prediction: a decode cache moves `alu_mips` (and `ops_per_s` on
//! `guest_alu`) most and `tlb_thrash_mips` least, because the thrash
//! kernel spends its host time in page walks, not in decode.

use super::REPS;
use crate::harness::{median_seconds, median_seconds_fresh};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::workloads::guest_xcall;
use ::rv64::mem::DRAM_BASE;
use ::rv64::{reg, Assembler, Exit, Machine, MachineConfig};
use ::xpc::kernel::{XpcKernel, XpcKernelConfig};
use ::xpc::layout::USER_CODE_VA;

/// Loop iterations per timed run of a probe kernel.
const ITERS: u64 = 150_000;

/// Round trips driven through the `guest_xcall` world for `step_ns` and
/// the hit ratios (two control-plane cycles).
const XCALL_CALLS: u64 = 2_000;

/// ALU / branch / `mul` only: 8 instructions per iteration, no memory.
fn alu_kernel(base: u64) -> Vec<u32> {
    let mut a = Assembler::new(base);
    a.li(reg::S2, 0x9e37_79b9_7f4a_7c15u64 as i64);
    a.label("loop");
    a.mul(reg::A0, reg::A0, reg::S2);
    a.addi(reg::A0, reg::A0, 1);
    a.srli(reg::T0, reg::A0, 29);
    a.xor(reg::A1, reg::A1, reg::T0);
    a.slli(reg::T1, reg::A1, 3);
    a.add(reg::A1, reg::A1, reg::T1);
    a.addi(reg::S1, reg::S1, -1);
    a.bne(reg::S1, reg::ZERO, "loop");
    a.ebreak();
    a.assemble()
}

/// One load and one store per iteration, walking `[buf, buf + span)`
/// in steps of `stride` bytes: 7 or 8 instructions per iteration.
fn mem_kernel(base: u64, buf: u64, span: u64, stride: u64) -> Vec<u32> {
    let mut a = Assembler::new(base);
    a.li(reg::S0, buf as i64);
    a.li(reg::S3, (buf + span) as i64);
    a.li(reg::S4, stride as i64);
    a.mv(reg::T1, reg::S0);
    a.label("loop");
    a.ld(reg::T2, reg::T1, 0);
    a.add(reg::A1, reg::A1, reg::T2);
    a.sd(reg::A1, reg::T1, 0);
    a.add(reg::T1, reg::T1, reg::S4);
    a.bltu(reg::T1, reg::S3, "next");
    a.mv(reg::T1, reg::S0);
    a.label("next");
    a.addi(reg::S1, reg::S1, -1);
    a.bne(reg::S1, reg::ZERO, "loop");
    a.ebreak();
    a.assemble()
}

/// Run the kernel at `entry` on `machine` [`REPS`] + 1 times; returns
/// (million instructions per host second, cycles per instruction).
fn run_kernel(machine: &mut Machine, entry: u64) -> (f64, f64) {
    let mut instret = 0;
    let mut cycles = 0;
    let seconds = median_seconds(REPS, || {
        let core = &mut machine.core;
        core.cpu.pc = entry;
        core.cpu.set_x(reg::A0, 1);
        core.cpu.set_x(reg::A1, 0);
        core.cpu.set_x(reg::S1, ITERS);
        let before = (core.instret, core.cycles);
        let r = machine.run(ITERS * 16).expect("probe kernel runs");
        assert_eq!(r.exit, Exit::Break, "probe kernel ends at its ebreak");
        instret = machine.core.instret - before.0;
        cycles = machine.core.cycles - before.1;
    });
    (
        instret as f64 / seconds / 1e6,
        cycles as f64 / instret as f64,
    )
}

/// A bare M-mode machine with `program` loaded at the base of DRAM.
fn bare(program: &[u32]) -> Machine {
    let mut machine = Machine::new(MachineConfig::rocket_u500());
    machine.load_program(program);
    machine
}

/// A U-mode process under Sv39 with `pages` data pages, running
/// `mem_kernel` over them.
fn paged(pages: u64, span: u64, stride: u64) -> (XpcKernel, u64) {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pid = k.create_process().expect("process");
    let tid = k.create_thread(pid).expect("thread");
    let (buf, _) = k.alloc_data(pid, pages).expect("data pages");
    let entry = k
        .load_code(pid, &mem_kernel(USER_CODE_VA, buf, span, stride))
        .expect("code page");
    k.enter_thread(tid, entry, &[]).expect("enter");
    (k, entry)
}

pub fn run(seed: u64, m: &mut Metrics) {
    let buf = DRAM_BASE + 0x10_0000;

    let (mips, cpi) = run_kernel(&mut bare(&alu_kernel(DRAM_BASE)), DRAM_BASE);
    m.set("rv64.alu_mips", mips);
    m.set("rv64.alu_cpi", cpi);

    // 2 KiB, every access a D-cache hit.
    let (mips, _) = run_kernel(&mut bare(&mem_kernel(DRAM_BASE, buf, 2048, 8)), DRAM_BASE);
    m.set("rv64.mem_hit_mips", mips);

    // 1 MiB in line-sized steps: 64 times the D-cache, every access a miss.
    let (mips, cpi) = run_kernel(
        &mut bare(&mem_kernel(DRAM_BASE, buf, 1 << 20, 64)),
        DRAM_BASE,
    );
    m.set("rv64.mem_miss_mips", mips);
    m.set("rv64.mem_miss_cpi", cpi);

    // Two pages under Sv39: translation on every access, TLB-resident.
    let (mut k, entry) = paged(2, 8192, 8);
    m.set("rv64.paged_mips", run_kernel(&mut k.machine, entry).0);

    // One access per page over 64 pages, twice the TLB's 32 entries; the
    // extra 64 B per step spreads the lines over the D-cache sets, so
    // the misses are the TLB's alone.
    let (mut k, entry) = paged(66, 64 * 4160, 4160);
    let (mips, cpi) = run_kernel(&mut k.machine, entry);
    m.set("rv64.tlb_thrash_mips", mips);
    m.set("rv64.tlb_thrash_cpi", cpi);

    xcall_world(seed, m);
}

/// Host nanoseconds per retired instruction on a `guest_xcall` world,
/// and what its caches and TLB saw.
fn xcall_world(seed: u64, m: &mut Metrics) {
    // Booting the world is not timed.
    let (seconds, world) = median_seconds_fresh(
        REPS,
        || guest_xcall::boot_world(&mut Tracer::new(false)).expect("world boots"),
        |w| {
            let (exit, errors) = w.drive(seed, XCALL_CALLS, &mut Tracer::new(false));
            assert!(exit.is_some() && errors == 0, "probe world runs clean");
        },
    );
    let core = &world.k.machine.core;
    let instret = core.instret;
    m.set("rv64.step_ns", seconds * 1e9 / instret as f64);
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses) as f64;
    m.set(
        "rv64.icache_hit_ratio",
        ratio(core.icache.hits, core.icache.misses),
    );
    m.set(
        "rv64.dcache_hit_ratio",
        ratio(core.dcache.hits, core.dcache.misses),
    );
    m.set(
        "rv64.tlb_hit_ratio",
        ratio(core.mmu.tlb.hits, core.mmu.tlb.misses),
    );
    m.set(
        "rv64.tlb_flushes_per_kinst",
        core.mmu.tlb.flushes as f64 * 1e3 / instret as f64,
    );
}
