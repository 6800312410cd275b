//! Emulator measurement harness: sets up a cross-process call scenario
//! and measures cycles at instruction granularity by stepping the
//! machine.

use rv64::{reg, Assembler, MachineConfig};
use simos::{CycleLedger, InvokeOpts, IpcSystem, Phase};
use xpc::kernel::{ThreadId, XEntryId, XpcKernel, XpcKernelConfig};
use xpc::layout::USER_CODE_VA;
use xpc::trampoline::{save_area_bytes, save_regs, ContextMode};
use xpc_engine::{XpcAsm, XpcEngineConfig};

/// Configuration of a [`CallBench`] (the Figure 5 axes).
#[derive(Debug, Clone)]
pub struct CallBenchConfig {
    /// Machine timing model (tagged vs untagged TLB lives here).
    pub machine: MachineConfig,
    /// Engine feature set (non-blocking link stack, engine cache).
    pub engine: XpcEngineConfig,
    /// Caller context convention.
    pub context: ContextMode,
    /// Prefetch the x-entry into the engine cache before each call.
    pub prefetch: bool,
}

impl CallBenchConfig {
    /// Figure 5 "Full-Cxt": full context, blocking stack, untagged TLB.
    pub(crate) fn full_ctx() -> Self {
        CallBenchConfig {
            machine: MachineConfig::rocket_u500(),
            engine: XpcEngineConfig::minimal(),
            context: ContextMode::Full,
            prefetch: false,
        }
    }

    /// Figure 5 "Partial-Cxt".
    pub(crate) fn partial_ctx() -> Self {
        CallBenchConfig {
            context: ContextMode::Partial,
            ..Self::full_ctx()
        }
    }

    /// Figure 5 "+Tagged-TLB".
    pub(crate) fn tagged_tlb() -> Self {
        CallBenchConfig {
            machine: MachineConfig::rocket_u500_tagged(),
            ..Self::partial_ctx()
        }
    }

    /// Figure 5 "+Nonblock Link Stack".
    pub(crate) fn nonblock() -> Self {
        let mut c = Self::tagged_tlb();
        c.engine.nonblocking_link_stack = true;
        c
    }

    /// Figure 5 "+Engine Cache".
    pub fn engine_cache() -> Self {
        let mut c = Self::nonblock();
        c.engine.engine_cache = true;
        c.prefetch = true;
        c
    }

    /// The five Figure 5 configurations in bar order.
    pub(crate) fn fig5_ladder() -> Vec<(&'static str, CallBenchConfig)> {
        vec![
            ("Full-Cxt", Self::full_ctx()),
            ("Partial-Cxt", Self::partial_ctx()),
            ("+Tagged-TLB", Self::tagged_tlb()),
            ("+Nonblock LinkStack", Self::nonblock()),
            ("+Engine Cache", Self::engine_cache()),
        ]
    }

    /// Table 3 / evaluation default: full context, non-blocking stack.
    pub fn paper_default() -> Self {
        CallBenchConfig {
            machine: MachineConfig::rocket_u500(),
            engine: XpcEngineConfig::paper_default(),
            context: ContextMode::Full,
            prefetch: false,
        }
    }
}

/// Cycle measurements of one IPC call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallMeasurement {
    /// Whole wrapped call: save + xcall + callee + xret + restore.
    pub roundtrip: u64,
    /// The `xcall` instruction alone.
    pub xcall: u64,
    /// The `xret` instruction alone.
    pub xret: u64,
}

/// A client/server pair on the emulator with measurement labels.
pub struct CallBench {
    /// The kernel + machine under test.
    pub k: XpcKernel,
    /// The registered (raw, trampoline-free) x-entry.
    pub entry: XEntryId,
    client: ThreadId,
    client_va: u64,
    wrapper_start: u64,
    xcall_pc: u64,
    ret_pc: u64,
    wrapper_end: u64,
}

impl CallBench {
    /// Build the scenario: two processes, a raw `xret`-only callee, and a
    /// looping wrapped caller.
    ///
    /// # Panics
    ///
    /// If the kernel booted from `cfg` cannot create the two processes,
    /// their threads, code or x-entry (a machine too small to hold them).
    pub fn new(cfg: &CallBenchConfig) -> Self {
        let mut k = XpcKernel::boot(XpcKernelConfig {
            machine: cfg.machine.clone(),
            engine: cfg.engine,
        });
        let pa = k.create_process().expect("client process");
        let pb = k.create_process().expect("server process");
        let server = k.create_thread(pb).expect("server thread");
        let client = k.create_thread(pa).expect("client thread");

        // Raw callee: nop + xret. The nop absorbs the post-switch fetch
        // walk so the xret measurement isolates the instruction itself
        // (the walk is part of the TLB component, measured separately).
        // No trampoline — the caller wrapper is the one Figure 5 measures.
        let mut s = Assembler::new(USER_CODE_VA);
        s.nop();
        s.xret();
        let callee_va = k.load_code(pb, &s.assemble()).expect("callee code");
        let entry = k
            .register_raw_entry(server, server, callee_va)
            .expect("entry");
        k.grant_xcall(server, client, entry).expect("grant");

        // Save area in the client.
        let (save_va, _) = k.alloc_data(pa, 1).expect("save area");
        assert!(save_area_bytes(cfg.context) <= 4096);

        // Client: an endless loop of wrapped calls (the host steps the
        // machine and decides when to stop; criterion may demand millions
        // of laps from one fixture).
        let mut a = Assembler::new(USER_CODE_VA);
        a.label("loop");
        if cfg.prefetch {
            a.li(reg::T6, -(entry.0 as i64));
            a.xcall(reg::T6);
        }
        let wrapper_start = a.here();
        // Emit the wrapper piecewise so inner PCs are exact.
        let regs = save_regs(cfg.context);
        a.li(reg::T5, save_va as i64);
        for (i, r) in regs.iter().enumerate() {
            a.sd(*r, reg::T5, (8 * i) as i64);
        }
        a.li(reg::T6, entry.0 as i64);
        let xcall_pc = a.here();
        a.xcall(reg::T6);
        let ret_pc = a.here();
        a.li(reg::T5, save_va as i64);
        for (i, r) in regs.iter().enumerate() {
            a.ld(*r, reg::T5, (8 * i) as i64);
        }
        let wrapper_end = a.here();
        a.j("loop");
        let client_va = k.load_code(pa, &a.assemble()).expect("client code");

        let mut bench = CallBench {
            k,
            entry,
            client,
            client_va,
            wrapper_start,
            xcall_pc,
            ret_pc,
            wrapper_end,
        };
        bench.start();
        bench
    }

    fn start(&mut self) {
        self.k
            .enter_thread(self.client, self.client_va, &[])
            .expect("enter client");
    }

    /// Step until the PC reaches `target`; panics on exit/trap (the bench
    /// scenario has none).
    fn step_to(&mut self, target: u64) {
        for _ in 0..1_000_000u64 {
            if self.k.machine.core.cpu.pc == target {
                return;
            }
            let r = self.k.machine.step().expect("no sim error in bench");
            assert!(r.is_none(), "unexpected exit during bench");
        }
        panic!("step_to({target:#x}) did not converge");
    }

    /// Cycles consumed by the single instruction at `pc` (the machine must
    /// be steered there first).
    fn measure_at(&mut self, pc: u64) -> u64 {
        self.step_to(pc);
        let before = self.k.machine.core.cycles;
        self.k.machine.step().expect("step ok");
        self.k.machine.core.cycles - before
    }

    /// Run `warmup` full iterations, then measure one call precisely.
    ///
    /// # Panics
    ///
    /// If the emulated machine faults, or the callee's `xret` does not
    /// return to the wrapper.
    pub fn measure(&mut self, warmup: u32) -> CallMeasurement {
        for _ in 0..warmup {
            self.step_to(self.wrapper_end);
            // Move past wrapper_end so the next step_to sees a fresh lap.
            self.k.machine.step().expect("step ok");
        }
        self.step_to(self.wrapper_start);
        let lap_start = self.k.machine.core.cycles;
        let xcall = self.measure_at(self.xcall_pc);
        // We are now at the callee; its xret brings us back to ret_pc.
        // Step over the callee's nop (absorbs the post-switch fetch walk).
        self.k.machine.step().expect("step ok");
        let xret = {
            let before = self.k.machine.core.cycles;
            self.k.machine.step().expect("step ok");
            assert_eq!(self.k.machine.core.cpu.pc, self.ret_pc, "xret returned");
            self.k.machine.core.cycles - before
        };
        self.step_to(self.wrapper_end);
        CallMeasurement {
            roundtrip: self.k.machine.core.cycles - lap_start,
            xcall,
            xret,
        }
    }
}

/// [`IpcSystem`] adapter over the emulator harness: every `oneway_into`
/// runs one real measured wrapped call and attributes its cycles to ledger
/// phases — [`Phase::Trampoline`] (the save/restore wrapper around the
/// call), [`Phase::Xcall`] and [`Phase::Xret`]. The relay-seg makes the
/// cost size-independent, so `msg_len` only sets `copied_bytes` (zero —
/// nothing is copied).
pub struct EmulatedXpc {
    label: &'static str,
    bench: CallBench,
}

impl EmulatedXpc {
    /// Boot the scenario for one [`CallBenchConfig`] (e.g. a Figure 5
    /// ablation rung) and warm it.
    pub(crate) fn new(label: &'static str, cfg: &CallBenchConfig) -> Self {
        EmulatedXpc {
            label,
            bench: CallBench::new(cfg),
        }
    }
}

impl IpcSystem for EmulatedXpc {
    fn name(&self) -> String {
        format!("emulated/{}", self.label)
    }

    fn oneway_into(&mut self, _msg_len: usize, _opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let m = self.bench.measure(2);
        out.charge(Phase::Trampoline, m.roundtrip - m.xcall - m.xret);
        out.charge(Phase::Xcall, m.xcall);
        out.charge(Phase::Xret, m.xret);
        0
    }

    fn supports_handover(&self) -> bool {
        true
    }
}

/// Measure `swapseg` on a warm machine (Table 3's third row).
///
/// # Panics
///
/// If the kernel booted from `cfg` cannot set up the process, its two
/// relay segments or its code, or the machine faults running the loop.
pub fn measure_swapseg(cfg: &CallBenchConfig) -> u64 {
    let mut k = XpcKernel::boot(XpcKernelConfig {
        machine: cfg.machine.clone(),
        engine: cfg.engine,
    });
    let pa = k.create_process().expect("process");
    let t = k.create_thread(pa).expect("thread");
    let seg_a = k.alloc_relay_seg(t, 4096).expect("seg a");
    let seg_b = k.alloc_relay_seg(t, 4096).expect("seg b");
    k.stash_seg(pa, 0, seg_b).expect("stash");
    k.install_seg(t, seg_a).expect("install");

    let mut a = Assembler::new(USER_CODE_VA);
    a.li(reg::S1, 100);
    a.li(reg::A0, 0);
    a.label("loop");
    let swap_off = a.here() - USER_CODE_VA;
    a.swapseg(reg::A0);
    a.addi(reg::S1, reg::S1, -1);
    a.bne(reg::S1, reg::ZERO, "loop");
    a.ebreak();
    let va = k.load_code(pa, &a.assemble()).expect("code");
    let swap_pc = va + swap_off;
    k.enter_thread(t, va, &[]).expect("enter");

    // Warm two iterations, then measure the third swapseg.
    let mut seen = 0;
    for _ in 0..100_000u64 {
        if k.machine.core.cpu.pc == swap_pc {
            seen += 1;
            if seen == 3 {
                break;
            }
        }
        let r = k.machine.step().expect("sim ok");
        assert!(r.is_none());
    }
    let before = k.machine.core.cycles;
    k.machine.step().expect("sim ok");
    k.machine.core.cycles - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_instruction_costs_on_default_config() {
        let mut b = CallBench::new(&CallBenchConfig::paper_default());
        let m = b.measure(3);
        assert_eq!(m.xcall, 18, "Table 3: xcall");
        assert_eq!(m.xret, 23, "Table 3: xret");
        let swap = measure_swapseg(&CallBenchConfig::paper_default());
        assert_eq!(swap, 11, "Table 3: swapseg");
    }

    #[test]
    fn fig5_ladder_is_monotonic() {
        let mut last = u64::MAX;
        for (name, cfg) in CallBenchConfig::fig5_ladder() {
            let mut b = CallBench::new(&cfg);
            let m = b.measure(3);
            assert!(
                m.roundtrip <= last,
                "{name} ({}) must not be slower than the previous bar ({last})",
                m.roundtrip
            );
            last = m.roundtrip;
        }
    }

    #[test]
    fn engine_cache_reduces_xcall_to_6() {
        let mut b = CallBench::new(&CallBenchConfig::engine_cache());
        let m = b.measure(3);
        assert_eq!(m.xcall, 6, "Figure 5: cached xcall = 6 cycles");
    }

    #[test]
    fn tagged_tlb_removes_walk_cycles() {
        let mut untagged = CallBench::new(&CallBenchConfig::partial_ctx());
        let mut tagged = CallBench::new(&CallBenchConfig::tagged_tlb());
        let u = untagged.measure(3).roundtrip;
        let t = tagged.measure(3).roundtrip;
        assert!(
            (20..=80).contains(&(u - t)),
            "TLB component ≈40 cycles, got {} ({} vs {})",
            u - t,
            u,
            t
        );
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    #[ignore]
    fn trace_one_lap() {
        let cfg = CallBenchConfig::paper_default();
        let mut b = CallBench::new(&cfg);
        for _ in 0..3 {
            b.step_to(b.wrapper_end);
            b.k.machine.step().unwrap();
        }
        b.step_to(b.wrapper_start);
        for _ in 0..60 {
            let pc = b.k.machine.core.cpu.pc;
            let before = b.k.machine.core.cycles;
            let dm0 = b.k.machine.core.dcache.misses;
            let im0 = b.k.machine.core.icache.misses;
            let tm0 = b.k.machine.core.mmu.tlb.misses;
            b.k.machine.step().unwrap();
            let d = b.k.machine.core.cycles - before;
            let dm = b.k.machine.core.dcache.misses - dm0;
            let im = b.k.machine.core.icache.misses - im0;
            let tm = b.k.machine.core.mmu.tlb.misses - tm0;
            let lm = b.k.machine.core.dcache.last_miss_pa;
            eprintln!(
                "pc={pc:#x} cost={d} dmiss={dm} imiss={im} tlbmiss={tm} lastmiss={lm:#x} set={}",
                (lm / 64) % 64
            );
            if pc == b.wrapper_end {
                break;
            }
        }
    }
}
