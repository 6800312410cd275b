//! The XPC engine state machine: registers, `xcall`/`xret`/`swapseg`
//! execution, CSR routing, engine cache, non-blocking link stack.

use rv64::cpu::Mode;
use rv64::ext::{ExtResult, IsaExtension};
use rv64::inst::OPCODE_CUSTOM0;
use rv64::machine::Core;
use rv64::mmu::SegWindow;
use rv64::reg;
use rv64::trap::{Cause, Trap};

use crate::config::XpcEngineConfig;
use crate::csr_map as csr;
use crate::layout::{
    LinkageRecord, SegDescriptor, SegMask, SegReg, XEntry, LINK_RECORD_BYTES, LINK_STACK_BYTES,
};

/// The engine's architectural registers (Table 2), exposed so that
/// host-side kernel models can save/restore them on context switches the
/// same way guest kernels do through CSR instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XpcRegs {
    /// `x-entry-table-reg`.
    pub x_entry_table: u64,
    /// `x-entry-table-size` (entries).
    pub x_entry_table_size: u64,
    /// `xcall-cap-reg` (per-thread bitmap address).
    pub xcall_cap: u64,
    /// `link-reg` (per-thread link stack base).
    pub link: u64,
    /// Link stack top offset in bytes (implementation register).
    pub link_sp: u64,
    /// `seg-reg`.
    pub seg: SegReg,
    /// `seg-mask`.
    pub mask: SegMask,
    /// `seg-list-reg` (per-process relay segment list base).
    pub seg_list: u64,
    /// Seg-list capacity in slots (implementation register).
    pub seg_list_size: u64,
}

/// Counters for experiment output and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XpcStats {
    /// Completed `xcall`s.
    pub xcalls: u64,
    /// Completed `xret`s.
    pub xrets: u64,
    /// Completed `swapseg`s.
    pub swapsegs: u64,
    /// Engine-cache prefetch operations.
    pub prefetches: u64,
    /// `xcall`s served from the engine cache.
    pub cache_hits: u64,
    /// XPC exceptions raised.
    pub exceptions: u64,
}

/// The XPC engine. Install into a machine with
/// `Machine::with_extension(cfg, Box::new(XpcEngine::new(...)))`.
#[derive(Debug)]
pub struct XpcEngine {
    /// Feature/timing configuration.
    pub cfg: XpcEngineConfig,
    /// Architectural registers.
    pub regs: XpcRegs,
    /// One-entry software-managed cache of (id, entry).
    cache: Option<(u64, XEntry)>,
    /// Statistics.
    pub stats: XpcStats,
}

const F3_XCALL: u32 = 0;
const F3_XRET: u32 = 1;
const F3_SWAPSEG: u32 = 2;

impl XpcEngine {
    /// A reset engine with configuration `cfg`.
    pub fn new(cfg: XpcEngineConfig) -> Self {
        XpcEngine {
            cfg,
            regs: XpcRegs::default(),
            cache: None,
            stats: XpcStats::default(),
        }
    }

    /// Push the current `seg-reg` into the core's MMU window (the relay
    /// segment is an extension of the TLB module, §3.3).
    pub fn sync_seg_window(&self, core: &mut Core) {
        core.mmu.seg_window = if self.regs.seg.is_valid() {
            Some(SegWindow {
                va_base: self.regs.seg.va_base,
                pa_base: self.regs.seg.pa_base,
                len: self.regs.seg.len,
                writable: self.regs.seg.writable,
                paged: self.regs.seg.paged,
            })
        } else {
            None
        };
    }

    /// Invalidate the engine cache (kernel does this when it rewrites the
    /// x-entry table).
    pub fn invalidate_cache(&mut self) {
        self.cache = None;
    }

    fn switch_space(&self, core: &mut Core, satp_raw: u64) {
        core.cpu.csr.satp = satp_raw;
        if !core.mmu.tlb.tagged() {
            core.mmu.tlb.flush_all();
        }
        core.charge(self.cfg.timings.space_switch_barrier);
    }

    fn trap(&mut self, cause: Cause, tval: u64) -> ExtResult {
        self.stats.exceptions += 1;
        ExtResult::Trapped(Trap::new(cause, tval))
    }

    fn exec_xcall(&mut self, core: &mut Core, rs1: u8) -> ExtResult {
        let t = self.cfg.timings;
        core.charge(t.xcall_logic);
        let idv = core.cpu.x(rs1) as i64;

        // Negative ID = prefetch into the engine cache (§4.1).
        if idv < 0 {
            if !self.cfg.engine_cache {
                return self.trap(Cause::InvalidXEntry, idv as u64);
            }
            let id = (-idv) as u64;
            if id >= self.regs.x_entry_table_size {
                return self.trap(Cause::InvalidXEntry, id);
            }
            core.charge(t.entry_fetch_extra);
            let entry = match XEntry::load(core, self.regs.x_entry_table, id) {
                Ok(e) => e,
                Err(tr) => return ExtResult::Trapped(tr),
            };
            self.cache = Some((id, entry));
            self.stats.prefetches += 1;
            core.cpu.pc += 4;
            return ExtResult::Done;
        }

        let id = idv as u64;
        if id >= self.regs.x_entry_table_size {
            return self.trap(Cause::InvalidXEntry, id);
        }

        // 1. Capability check: one bit of the per-thread bitmap.
        let byte = match core.phys_load(self.regs.xcall_cap + id / 8, 1) {
            Ok(b) => b,
            Err(tr) => return ExtResult::Trapped(tr),
        };
        core.charge(t.cap_check_extra);
        if (byte >> (id % 8)) & 1 == 0 {
            return self.trap(Cause::InvalidXcallCap, id);
        }

        // 2. x-entry fetch (engine cache may short-circuit it).
        let entry = match self.cache {
            Some((cid, e)) if self.cfg.engine_cache && cid == id => {
                self.stats.cache_hits += 1;
                e
            }
            _ => {
                core.charge(t.entry_fetch_extra);
                match XEntry::load(core, self.regs.x_entry_table, id) {
                    Ok(e) => e,
                    Err(tr) => return ExtResult::Trapped(tr),
                }
            }
        };
        if !entry.valid {
            return self.trap(Cause::InvalidXEntry, id);
        }

        // Defensive re-validation of the mask before it transfers.
        if !self.regs.mask.valid_for(&self.regs.seg) {
            return self.trap(Cause::InvalidSegMask, self.regs.mask.va_base);
        }

        // 3. Push the linkage record.
        if self.regs.link_sp + LINK_RECORD_BYTES > LINK_STACK_BYTES {
            return self.trap(Cause::InvalidLinkage, self.regs.link_sp);
        }
        let record = LinkageRecord {
            satp: core.cpu.csr.satp,
            ret_pc: core.cpu.pc + 4,
            xcall_cap: self.regs.xcall_cap,
            seg_list: self.regs.seg_list,
            seg: self.regs.seg,
            mask: self.regs.mask,
            valid: true,
        };
        let charged = !self.cfg.nonblocking_link_stack;
        if let Err(tr) = record.store(core, self.regs.link, self.regs.link_sp, charged) {
            return ExtResult::Trapped(tr);
        }
        if charged {
            core.charge(t.link_push_drain);
        }
        self.regs.link_sp += LINK_RECORD_BYTES;

        // 4. Switch: address space, capability register, relay segment, PC.
        // The caller's xcall-cap-reg lands in t0 so the callee can identify
        // the caller (§3.2); it cannot be forged because only the engine
        // and the kernel ever set xcall-cap-reg.
        core.cpu.set_x(reg::T0, self.regs.xcall_cap);
        self.regs.xcall_cap = entry.cap_ptr;
        self.regs.seg = self.regs.seg.masked(self.regs.mask);
        self.regs.mask = SegMask::none();
        self.switch_space(core, entry.page_table);
        self.sync_seg_window(core);
        core.cpu.pc = entry.entry_pc;
        self.stats.xcalls += 1;
        ExtResult::Done
    }

    fn exec_xret(&mut self, core: &mut Core) -> ExtResult {
        let t = self.cfg.timings;
        core.charge(t.xret_logic);
        if self.regs.link_sp < LINK_RECORD_BYTES {
            return self.trap(Cause::InvalidLinkage, 0);
        }
        let off = self.regs.link_sp - LINK_RECORD_BYTES;
        let rec = match LinkageRecord::load(core, self.regs.link, off) {
            Ok(r) => r,
            Err(tr) => return ExtResult::Trapped(tr),
        };
        core.charge(t.valid_check);
        if !rec.valid {
            // Caller terminated (§4.2): leave the stack for the kernel's
            // handler, which pops the dead record and unwinds further.
            return self.trap(Cause::InvalidLinkage, off);
        }
        // The callee must return exactly the segment it was handed
        // (seg-reg == saved seg ∩ saved mask), or a malicious callee could
        // swap the caller's relay-seg into its own seg-list and return a
        // different one (§3.3 "Return a relay-seg").
        core.charge(t.seg_check);
        if self.regs.seg != rec.seg.masked(rec.mask) {
            return self.trap(Cause::InvalidLinkage, off + 1);
        }
        self.regs.link_sp = off;
        self.regs.xcall_cap = rec.xcall_cap;
        self.regs.seg_list = rec.seg_list;
        self.regs.seg = rec.seg;
        self.regs.mask = rec.mask;
        self.switch_space(core, rec.satp);
        core.charge(t.restore_extra);
        self.sync_seg_window(core);
        core.cpu.pc = rec.ret_pc;
        self.stats.xrets += 1;
        ExtResult::Done
    }

    fn exec_swapseg(&mut self, core: &mut Core, rs1: u8) -> ExtResult {
        let t = self.cfg.timings;
        core.charge(t.swapseg_logic);
        let idx = core.cpu.x(rs1);
        if self.regs.seg_list == 0 || idx >= self.regs.seg_list_size {
            return self.trap(Cause::SwapsegError, idx);
        }
        let slot = match SegDescriptor::load(core, self.regs.seg_list, idx) {
            Ok(s) => s,
            Err(tr) => return ExtResult::Trapped(tr),
        };
        if !slot.valid {
            return self.trap(Cause::SwapsegError, idx);
        }
        let old = SegDescriptor {
            seg: self.regs.seg,
            valid: true,
        };
        if let Err(tr) = old.store(core, self.regs.seg_list, idx) {
            return ExtResult::Trapped(tr);
        }
        self.regs.seg = slot.seg;
        self.regs.mask = SegMask::none();
        self.sync_seg_window(core);
        core.cpu.pc += 4;
        self.stats.swapsegs += 1;
        ExtResult::Done
    }

    fn kernel_only_write(&self, core: &Core) -> bool {
        core.cpu.mode == Mode::User
    }
}

impl IsaExtension for XpcEngine {
    fn name(&self) -> &'static str {
        "xpc"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn execute(&mut self, raw: u32, core: &mut Core) -> ExtResult {
        if raw & 0x7f != OPCODE_CUSTOM0 {
            return ExtResult::NotClaimed;
        }
        let funct3 = (raw >> 12) & 7;
        let rs1 = ((raw >> 15) & 31) as u8;
        match funct3 {
            F3_XCALL => self.exec_xcall(core, rs1),
            F3_XRET => self.exec_xret(core),
            F3_SWAPSEG => self.exec_swapseg(core, rs1),
            _ => ExtResult::NotClaimed,
        }
    }

    fn csr_read(&mut self, addr: u16, _core: &mut Core) -> Option<Result<u64, Trap>> {
        let v = match addr {
            csr::XPC_XENTRY_TABLE => self.regs.x_entry_table,
            csr::XPC_XENTRY_TABLE_SIZE => self.regs.x_entry_table_size,
            csr::XPC_XCALL_CAP => self.regs.xcall_cap,
            csr::XPC_LINK => self.regs.link,
            csr::XPC_LINK_SP => self.regs.link_sp,
            csr::XPC_SEG_LIST_SIZE => self.regs.seg_list_size,
            csr::XPC_SEG_VA => self.regs.seg.va_base,
            csr::XPC_SEG_PA => self.regs.seg.pa_base,
            csr::XPC_SEG_LEN_PERM => self.regs.seg.len_perm_raw(),
            csr::XPC_SEG_MASK_VA => self.regs.mask.va_base,
            csr::XPC_SEG_MASK_LEN => self.regs.mask.len,
            csr::XPC_SEG_LIST => self.regs.seg_list,
            _ => return None,
        };
        Some(Ok(v))
    }

    fn csr_write(&mut self, addr: u16, value: u64, core: &mut Core) -> Option<Result<(), Trap>> {
        let illegal = || Some(Err(Trap::new(Cause::IllegalInst, addr as u64)));
        match addr {
            csr::XPC_XENTRY_TABLE => {
                self.regs.x_entry_table = value;
                self.invalidate_cache();
            }
            csr::XPC_XENTRY_TABLE_SIZE => {
                self.regs.x_entry_table_size = value;
                self.invalidate_cache();
            }
            csr::XPC_XCALL_CAP => self.regs.xcall_cap = value,
            csr::XPC_LINK => self.regs.link = value,
            csr::XPC_LINK_SP => self.regs.link_sp = value,
            csr::XPC_SEG_LIST_SIZE => self.regs.seg_list_size = value,
            csr::XPC_SEG_VA => {
                if self.kernel_only_write(core) {
                    return illegal();
                }
                self.regs.seg.va_base = value;
                self.sync_seg_window(core);
            }
            csr::XPC_SEG_PA => {
                if self.kernel_only_write(core) {
                    return illegal();
                }
                self.regs.seg.pa_base = value;
                self.sync_seg_window(core);
            }
            csr::XPC_SEG_LEN_PERM => {
                if self.kernel_only_write(core) {
                    return illegal();
                }
                self.regs.seg.set_len_perm_raw(value);
                self.sync_seg_window(core);
            }
            csr::XPC_SEG_MASK_VA => self.regs.mask.va_base = value,
            csr::XPC_SEG_MASK_LEN => {
                // The validating write (Table 2's "invalid seg-mask"
                // exception): convention is VA base first, then length.
                let candidate = SegMask {
                    va_base: self.regs.mask.va_base,
                    len: value,
                };
                if !candidate.valid_for(&self.regs.seg) {
                    self.stats.exceptions += 1;
                    return Some(Err(Trap::new(Cause::InvalidSegMask, candidate.va_base)));
                }
                self.regs.mask = candidate;
            }
            csr::XPC_SEG_LIST => {
                if self.kernel_only_write(core) {
                    return illegal();
                }
                self.regs.seg_list = value;
            }
            _ => return None,
        }
        Some(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm_ext::XpcAsm;
    use rv64::mem::DRAM_BASE;
    use rv64::{Assembler, Exit, Machine, MachineConfig};

    /// Addresses used by the test fixture.
    const TABLE: u64 = DRAM_BASE + 0x10_0000;
    const CAP_A: u64 = DRAM_BASE + 0x11_0000;
    const CAP_B: u64 = DRAM_BASE + 0x12_0000;
    const LINK: u64 = DRAM_BASE + 0x13_0000;
    const CALLEE: u64 = DRAM_BASE + 0x2_0000;

    /// Machine with engine installed, one x-entry (id 1) pointing at
    /// CALLEE, caller granted the capability, all in bare (M-mode-less,
    /// satp-off) addressing for unit simplicity.
    fn fixture(cfg: XpcEngineConfig) -> Machine {
        let mut m =
            Machine::with_extension(MachineConfig::rocket_u500(), Box::new(XpcEngine::new(cfg)));
        // Callee: a1 = 77; xret.
        let mut c = Assembler::new(CALLEE);
        c.li(rv64::reg::A1, 77);
        c.xret();
        let callee = c.assemble();
        m.load_program_at(CALLEE, &callee);

        // x-entry 1.
        {
            let eng = engine(&mut m);
            eng.regs.x_entry_table = TABLE;
            eng.regs.x_entry_table_size = 16;
            eng.regs.xcall_cap = CAP_A;
            eng.regs.link = LINK;
            eng.regs.link_sp = 0;
        }
        let e = XEntry {
            page_table: 0,
            cap_ptr: CAP_B,
            entry_pc: CALLEE,
            valid: true,
        };
        e.store(&mut m.core, TABLE, 1).unwrap();
        // Grant capability bit 1 to caller A.
        m.core.mem.write(CAP_A, 1, 0b10).unwrap();
        m
    }

    fn engine(m: &mut Machine) -> &mut XpcEngine {
        m.extension()
            .as_any_mut()
            .downcast_mut::<XpcEngine>()
            .expect("xpc engine installed")
    }

    fn run_caller(m: &mut Machine, body: impl FnOnce(&mut Assembler)) -> Exit {
        let mut a = Assembler::new(DRAM_BASE);
        body(&mut a);
        m.load_program(&a.assemble());
        m.run(100_000).expect("sim ok").exit
    }

    #[test]
    fn xcall_xret_round_trip() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::A0, 1); // x-entry id
            a.xcall(rv64::reg::A0);
            a.ebreak(); // back here after xret
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.x(rv64::reg::A1), 77, "callee executed");
        let st = engine(&mut m).stats;
        assert_eq!(st.xcalls, 1);
        assert_eq!(st.xrets, 1);
        assert_eq!(engine(&mut m).regs.link_sp, 0, "stack balanced");
    }

    #[test]
    fn callee_sees_caller_cap_in_t0() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        // Callee copies t0 to a2 before returning.
        let mut c = Assembler::new(CALLEE);
        c.mv(rv64::reg::A2, rv64::reg::T0);
        c.xret();
        let callee = c.assemble();
        m.load_program_at(CALLEE, &callee);
        run_caller(&mut m, |a| {
            a.li(rv64::reg::A0, 1);
            a.xcall(rv64::reg::A0);
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(rv64::reg::A2), CAP_A, "caller identity");
    }

    #[test]
    fn missing_capability_raises_invalid_xcall_cap() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        m.core.mem.write(CAP_A, 1, 0).unwrap(); // revoke
                                                // Install an M-mode trap handler that stops.
        let mut h = Assembler::new(DRAM_BASE + 0x8000);
        h.csrr(rv64::reg::A0, 0x342); // mcause
        h.ebreak();
        let handler = h.assemble();
        m.load_program_at(DRAM_BASE + 0x8000, &handler);
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, rv64::reg::T1); // mtvec
            a.li(rv64::reg::A0, 1);
            a.xcall(rv64::reg::A0);
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.x(rv64::reg::A0), Cause::InvalidXcallCap.code());
        assert_eq!(engine(&mut m).stats.exceptions, 1);
    }

    #[test]
    fn invalid_entry_raises() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        let mut h = Assembler::new(DRAM_BASE + 0x8000);
        h.csrr(rv64::reg::A0, 0x342);
        h.ebreak();
        let handler = h.assemble();
        m.load_program_at(DRAM_BASE + 0x8000, &handler);
        // Grant cap bit 2, but entry 2 is invalid (zeroed memory).
        m.core.mem.write(CAP_A, 1, 0b110).unwrap();
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, rv64::reg::T1);
            a.li(rv64::reg::A0, 2);
            a.xcall(rv64::reg::A0);
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.x(rv64::reg::A0), Cause::InvalidXEntry.code());
    }

    #[test]
    fn out_of_range_id_raises_invalid_x_entry() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        let mut h = Assembler::new(DRAM_BASE + 0x8000);
        h.csrr(rv64::reg::A0, 0x342);
        h.ebreak();
        let handler = h.assemble();
        m.load_program_at(DRAM_BASE + 0x8000, &handler);
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, rv64::reg::T1);
            a.li(rv64::reg::A0, 1000); // >= table size 16
            a.xcall(rv64::reg::A0);
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.x(rv64::reg::A0), Cause::InvalidXEntry.code());
    }

    #[test]
    fn xret_on_empty_stack_raises_invalid_linkage() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        let mut h = Assembler::new(DRAM_BASE + 0x8000);
        h.csrr(rv64::reg::A0, 0x342);
        h.ebreak();
        let handler = h.assemble();
        m.load_program_at(DRAM_BASE + 0x8000, &handler);
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, rv64::reg::T1);
            a.xret();
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.x(rv64::reg::A0), Cause::InvalidLinkage.code());
    }

    #[test]
    fn invalidated_linkage_record_raises_on_xret() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        // Callee: clobber nothing, just xret; but before running, the
        // "kernel" (host) marks the record invalid mid-call. We emulate by
        // having the callee spin once; easier: call, then during the callee
        // we can't intervene — instead pre-push a dead record and xret.
        {
            let eng = engine(&mut m);
            eng.regs.link_sp = LINK_RECORD_BYTES;
        }
        let rec = LinkageRecord {
            satp: 0,
            ret_pc: DRAM_BASE,
            xcall_cap: CAP_A,
            seg_list: 0,
            seg: SegReg::default(),
            mask: SegMask::none(),
            valid: false, // terminated caller
        };
        rec.store(&mut m.core, LINK, 0, true).unwrap();
        let mut h = Assembler::new(DRAM_BASE + 0x8000);
        h.csrr(rv64::reg::A0, 0x342);
        h.ebreak();
        let handler = h.assemble();
        m.load_program_at(DRAM_BASE + 0x8000, &handler);
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, rv64::reg::T1);
            a.xret();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.x(rv64::reg::A0), Cause::InvalidLinkage.code());
    }

    #[test]
    fn engine_cache_hit_is_faster_and_counted() {
        let mut warm = fixture(XpcEngineConfig::paper_default());
        run_caller(&mut warm, |a| {
            a.li(rv64::reg::A0, 1);
            a.xcall(rv64::reg::A0); // warm caches
            a.xcall(rv64::reg::A0); // measured-equivalent second call
            a.ebreak();
        });
        let base_cycles = warm.core.cycles;

        let mut cached = fixture(XpcEngineConfig::all_optimizations());
        run_caller(&mut cached, |a| {
            a.li(rv64::reg::A0, 1);
            a.xcall(rv64::reg::A0);
            a.li(rv64::reg::A0, -1); // prefetch entry 1
            a.xcall(rv64::reg::A0);
            a.li(rv64::reg::A0, 1);
            a.xcall(rv64::reg::A0); // hit
            a.ebreak();
        });
        assert_eq!(engine(&mut cached).stats.prefetches, 1);
        assert_eq!(engine(&mut cached).stats.cache_hits, 1);
        let _ = base_cycles; // cycle comparison done in bench, not here
    }

    #[test]
    fn swapseg_swaps_and_clears_mask() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        let list = DRAM_BASE + 0x14_0000;
        let seg0 = SegReg {
            va_base: 0x4000_0000,
            pa_base: DRAM_BASE + 0x20_0000,
            len: 4096,
            writable: true,
            paged: false,
        };
        let slot_seg = SegReg {
            va_base: 0x5000_0000,
            pa_base: DRAM_BASE + 0x21_0000,
            len: 8192,
            writable: false,
            paged: false,
        };
        SegDescriptor {
            seg: slot_seg,
            valid: true,
        }
        .store(&mut m.core, list, 3)
        .unwrap();
        {
            let eng = engine(&mut m);
            eng.regs.seg = seg0;
            eng.regs.seg_list = list;
            eng.regs.seg_list_size = 8;
        }
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::A0, 3);
            a.swapseg(rv64::reg::A0);
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        let eng = engine(&mut m);
        assert_eq!(eng.regs.seg, slot_seg);
        assert!(!eng.regs.mask.is_set());
        // Old segment landed in the slot.
        let stored = SegDescriptor::load(&mut m.core, list, 3).unwrap();
        assert_eq!(stored.seg, seg0);
    }

    #[test]
    fn swapseg_in_a_loop_reaches_the_engine_every_iteration() {
        // The machine memoises "not a base instruction" for the custom-0
        // word; every execution must still be handed to the engine.
        const ITERS: u64 = 50;
        let mut m = fixture(XpcEngineConfig::paper_default());
        let list = DRAM_BASE + 0x14_0000;
        let seg = |va_base, pa_base| SegReg {
            va_base,
            pa_base,
            len: 4096,
            writable: true,
            paged: false,
        };
        let (seg0, slot_seg) = (
            seg(0x4000_0000, DRAM_BASE + 0x20_0000),
            seg(0x5000_0000, DRAM_BASE + 0x21_0000),
        );
        SegDescriptor {
            seg: slot_seg,
            valid: true,
        }
        .store(&mut m.core, list, 3)
        .unwrap();
        {
            let eng = engine(&mut m);
            eng.regs.seg = seg0;
            eng.regs.seg_list = list;
            eng.regs.seg_list_size = 8;
        }
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::A0, 3);
            a.li(rv64::reg::S1, ITERS as i64);
            a.label("loop");
            a.swapseg(rv64::reg::A0);
            a.addi(rv64::reg::S1, rv64::reg::S1, -1);
            a.bne(rv64::reg::S1, rv64::reg::ZERO, "loop");
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        let eng = engine(&mut m);
        assert_eq!(eng.stats.swapsegs, ITERS);
        assert_eq!(eng.regs.seg, seg0, "an even number of swaps");
    }

    #[test]
    fn swapseg_invalid_slot_raises() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        {
            let eng = engine(&mut m);
            eng.regs.seg_list = DRAM_BASE + 0x14_0000;
            eng.regs.seg_list_size = 4;
        }
        let mut h = Assembler::new(DRAM_BASE + 0x8000);
        h.csrr(rv64::reg::A0, 0x342);
        h.ebreak();
        let handler = h.assemble();
        m.load_program_at(DRAM_BASE + 0x8000, &handler);
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, rv64::reg::T1);
            a.li(rv64::reg::A0, 2); // slot exists but invalid (zeroed)
            a.swapseg(rv64::reg::A0);
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.x(rv64::reg::A0), Cause::SwapsegError.code());
    }

    #[test]
    fn malicious_callee_returning_wrong_seg_is_caught() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        // Give the caller a relay segment; the callee swaps it away and
        // xrets with a different one -> invalid linkage exception.
        let list = DRAM_BASE + 0x14_0000;
        let caller_seg = SegReg {
            va_base: 0x4000_0000,
            pa_base: DRAM_BASE + 0x20_0000,
            len: 4096,
            writable: true,
            paged: false,
        };
        let callee_own = SegReg {
            va_base: 0x6000_0000,
            pa_base: DRAM_BASE + 0x22_0000,
            len: 4096,
            writable: true,
            paged: false,
        };
        SegDescriptor {
            seg: callee_own,
            valid: true,
        }
        .store(&mut m.core, list, 0)
        .unwrap();
        {
            let (core, ext) = m.split();
            let eng = ext.as_any_mut().downcast_mut::<XpcEngine>().unwrap();
            eng.regs.seg = caller_seg;
            eng.regs.seg_list = list;
            eng.regs.seg_list_size = 4;
            eng.sync_seg_window(core);
        }
        // Callee: swapseg slot 0 (steals caller's seg), then xret.
        let mut c = Assembler::new(CALLEE);
        c.li(rv64::reg::A3, 0);
        c.swapseg(rv64::reg::A3);
        c.xret();
        let callee = c.assemble();
        m.load_program_at(CALLEE, &callee);

        let mut h = Assembler::new(DRAM_BASE + 0x8000);
        h.csrr(rv64::reg::A0, 0x342);
        h.ebreak();
        let handler = h.assemble();
        m.load_program_at(DRAM_BASE + 0x8000, &handler);
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, rv64::reg::T1);
            a.li(rv64::reg::A0, 1);
            a.xcall(rv64::reg::A0);
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(
            m.core.cpu.x(rv64::reg::A0),
            Cause::InvalidLinkage.code(),
            "seg-reg mismatch on xret must trap"
        );
    }

    #[test]
    fn seg_mask_csr_write_validates() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        {
            let eng = engine(&mut m);
            eng.regs.seg = SegReg {
                va_base: 0x4000_0000,
                pa_base: DRAM_BASE + 0x20_0000,
                len: 4096,
                writable: true,
                paged: false,
            };
        }
        let mut h = Assembler::new(DRAM_BASE + 0x8000);
        h.csrr(rv64::reg::A0, 0x342);
        h.ebreak();
        let handler = h.assemble();
        m.load_program_at(DRAM_BASE + 0x8000, &handler);
        let exit = run_caller(&mut m, |a| {
            a.li(rv64::reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, rv64::reg::T1);
            // Valid shrink: [0x40000100, +256)
            a.li(rv64::reg::T2, 0x4000_0100);
            a.csrw(csr::XPC_SEG_MASK_VA, rv64::reg::T2);
            a.li(rv64::reg::T2, 256);
            a.csrw(csr::XPC_SEG_MASK_LEN, rv64::reg::T2);
            // Invalid shrink: escapes the segment -> trap.
            a.li(rv64::reg::T2, 0x4000_0100);
            a.csrw(csr::XPC_SEG_MASK_VA, rv64::reg::T2);
            a.li(rv64::reg::T2, 8192);
            a.csrw(csr::XPC_SEG_MASK_LEN, rv64::reg::T2);
            a.ebreak();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.x(rv64::reg::A0), Cause::InvalidSegMask.code());
    }

    #[test]
    fn xcall_applies_mask_to_callee_segment() {
        let mut m = fixture(XpcEngineConfig::paper_default());
        let caller_seg = SegReg {
            va_base: 0x4000_0000,
            pa_base: DRAM_BASE + 0x20_0000,
            len: 4096,
            writable: true,
            paged: false,
        };
        {
            let (core, ext) = m.split();
            let eng = ext.as_any_mut().downcast_mut::<XpcEngine>().unwrap();
            eng.regs.seg = caller_seg;
            eng.regs.mask = SegMask {
                va_base: 0x4000_0800,
                len: 1024,
            };
            eng.sync_seg_window(core);
        }
        // Callee: read seg CSRs into a2/a3 then xret.
        let mut c = Assembler::new(CALLEE);
        c.csrr(rv64::reg::A2, csr::XPC_SEG_VA);
        c.csrr(rv64::reg::A3, csr::XPC_SEG_LEN_PERM);
        c.xret();
        let callee = c.assemble();
        m.load_program_at(CALLEE, &callee);
        run_caller(&mut m, |a| {
            a.li(rv64::reg::A0, 1);
            a.xcall(rv64::reg::A0);
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(rv64::reg::A2), 0x4000_0800, "masked base");
        assert_eq!(
            m.core.cpu.x(rv64::reg::A3) & 0xffff_ffff,
            1024,
            "masked len"
        );
        // After return the caller's full segment is restored.
        let eng = engine(&mut m);
        assert_eq!(eng.regs.seg, caller_seg);
        assert!(
            eng.regs.mask.is_set(),
            "caller's own mask survives the call"
        );
    }

    #[test]
    fn seg_pa_near_the_top_of_memory_ends_as_an_access_fault() {
        // S-mode may write any `seg-pa`; `pa_base + offset` used to
        // overflow on the host (a panic in debug builds).
        use rv64::csr::{addr, mstatus};
        const HANDLER: u64 = DRAM_BASE + 0x8000;
        const KERNEL: u64 = DRAM_BASE + 0x4000;
        const USER: u64 = DRAM_BASE + 0x5000;
        const SEG_VA: u64 = 0x4000_0000;
        let mut m = fixture(XpcEngineConfig::paper_default());
        let mut h = Assembler::new(HANDLER);
        h.csrr(rv64::reg::A0, addr::MCAUSE);
        h.csrr(rv64::reg::A2, addr::MTVAL);
        h.ebreak();
        m.load_program_at(HANDLER, &h.assemble());
        let mut k = Assembler::new(KERNEL);
        for (csr, value) in [
            (csr::XPC_SEG_VA, SEG_VA),
            (csr::XPC_SEG_PA, u64::MAX - 7),
            (csr::XPC_SEG_LEN_PERM, 4096),
            (addr::SEPC, USER),
        ] {
            k.li(rv64::reg::T1, value as i64);
            k.csrw(csr, rv64::reg::T1);
        }
        k.sret(); // SPP is User after reset
        m.load_program_at(KERNEL, &k.assemble());
        let mut u = Assembler::new(USER);
        u.li(rv64::reg::T1, SEG_VA as i64);
        u.ld(rv64::reg::A1, rv64::reg::T1, 0);
        u.ebreak();
        m.load_program_at(USER, &u.assemble());
        let exit = run_caller(&mut m, |a| {
            for (csr, value) in [(addr::MTVEC, HANDLER), (addr::MEPC, KERNEL)] {
                a.li(rv64::reg::T1, value as i64);
                a.csrw(csr, rv64::reg::T1);
            }
            a.li(rv64::reg::T1, (1 << mstatus::MPP_SHIFT) as i64); // MPP = S
            a.csrrs(rv64::reg::ZERO, addr::MSTATUS, rv64::reg::T1);
            a.mret();
        });
        assert_eq!(exit, Exit::Break);
        assert_eq!(m.core.cpu.pc, HANDLER + 8, "stopped in the handler");
        assert_eq!(m.core.cpu.x(rv64::reg::A0), Cause::LoadAccessFault.code());
        assert_eq!(m.core.cpu.x(rv64::reg::A2), u64::MAX - 7, "the wrapped PA");
    }

    #[test]
    fn user_mode_cannot_write_seg_reg() {
        // Core blocks 0x5xx addresses for U-mode; the engine must itself
        // block user writes to the kernel-owned 0x8xx registers while
        // allowing user writes to seg-mask.
        let mut core = Core::new(MachineConfig::rocket_u500());
        core.cpu.mode = Mode::User;
        let mut eng = XpcEngine::new(XpcEngineConfig::paper_default());
        let r = eng.csr_write(csr::XPC_SEG_VA, 0x1234, &mut core);
        assert!(matches!(r, Some(Err(_))));
        let r = eng.csr_write(csr::XPC_SEG_LIST, 0x1234, &mut core);
        assert!(matches!(r, Some(Err(_))));
        let r = eng.csr_write(csr::XPC_SEG_MASK_VA, 0x1234, &mut core);
        assert!(matches!(r, Some(Ok(()))));
    }
}
