//! The machine: one hart (core) plus an optional ISA extension, with the
//! fetch/decode/execute loop and trap delivery.
//!
//! The page memo in front of [`Mmu::translate`] is a cache keyed by value
//! on everything the TLB-hit path reads (`va >> 12`, raw `satp`, mode and
//! `mstatus.{SUM, MXR}`, per [`Access`] kind) plus the private `Tlb::gen`.
//! Nothing outside `tlb.rs` has to invalidate it: the engine and the kernel
//! model write those `pub` fields directly and a changed value just fails
//! the compare; TLB residency, the one input it cannot see by value, bumps
//! the generation whenever it changes.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::cpu::{Cpu, Mode};
use crate::csr::mstatus;
use crate::ext::{ExtResult, IsaExtension, NullExtension};
use crate::inst::{self, AluOp, AmoOp, BranchOp, CsrOp, CsrSrc, Inst, LoadOp};
use crate::mem::{Memory, DRAM_BASE};
use crate::mmu::{Access, Mmu, Satp};
use crate::trap::{Cause, Trap};

/// Machine timer interrupt bit in `mie`/`mip` (MTIE/MTIP).
pub const MTIE: u64 = 1 << 7;

/// `mcause` value of a machine timer interrupt (interrupt bit | 7).
pub const MCAUSE_TIMER: u64 = (1 << 63) | 7;

/// Slots of the decode memo: direct-mapped on the word's physical
/// address, 24 KiB per [`Core`], allocated once.
const MEMO_SLOTS: usize = 1024;

/// One page-memo entry: the inputs of a TLB hit, by value, and its answer.
#[derive(Debug, Clone, Copy)]
struct PageMemo {
    /// `(va >> 12, raw satp, mode | mstatus.{SUM, MXR}, Tlb::gen)`: all 52
    /// bits of the page, so no non-canonical alias (or `u64::MAX`) matches.
    key: (u64, u64, u64, u64),
    /// TLB slot that hit.
    slot: usize,
    /// Physical address of the page.
    pa_page: u64,
}

/// Why `run` stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Guest executed `ebreak`.
    Break,
    /// Guest stored to the MMIO exit port.
    Exited(u64),
    /// Instruction budget exhausted.
    LimitReached,
}

/// Host-level simulation failures (guest bugs the harness wants surfaced
/// rather than looped on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A trap occurred but the handling mode's `tvec` is 0 — the guest
    /// never installed a handler, so delivering would livelock at PC 0.
    UnhandledTrap(Trap),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnhandledTrap(t) => write!(f, "unhandled guest trap: {t}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Why execution stopped.
    pub exit: Exit,
    /// Cycle counter at stop.
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
}

/// The core: everything an [`IsaExtension`] may touch.
#[derive(Debug)]
pub struct Core {
    /// Architectural register state.
    pub cpu: Cpu,
    /// Physical memory.
    pub mem: Memory,
    /// MMU (TLB + relay-segment window).
    pub mmu: Mmu,
    /// Instruction cache timing model.
    pub icache: Cache,
    /// Data cache timing model.
    pub dcache: Cache,
    /// Timing configuration.
    pub cfg: MachineConfig,
    /// Cycle counter.
    pub cycles: u64,
    /// Retired instruction counter.
    pub instret: u64,
    /// LR/SC reservation (physical address), single-hart semantics.
    reservation: Option<u64>,
    /// Decode memo: `(word, inst::decode(word))` per slot. The tag is the
    /// word itself and `decode` is pure, so a slot can never be stale —
    /// there is nothing to invalidate on stores, `fence.i` or `satp`.
    memo: Box<[(u32, Option<Inst>)]>,
    /// Page memo, indexed by [`Access`] kind (see the module doc).
    page_memo: [PageMemo; 3],
}

impl Core {
    /// Build a reset core for `cfg`.
    pub fn new(cfg: MachineConfig) -> Self {
        Core {
            cpu: Cpu::new(),
            mem: Memory::new(cfg.dram_size),
            mmu: Mmu::new(&cfg),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            cfg,
            cycles: 0,
            instret: 0,
            reservation: None,
            memo: vec![(0, inst::decode(0)); MEMO_SLOTS].into(),
            page_memo: [PageMemo {
                key: (u64::MAX, 0, 0, 0),
                slot: 0,
                pa_page: 0,
            }; 3],
        }
    }

    /// Charge `n` cycles to the clock.
    #[inline]
    pub fn charge(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Current `satp` fields.
    #[inline]
    pub fn satp(&self) -> Satp {
        Satp::from_raw(self.cpu.csr.satp)
    }

    /// What a page-memo entry for `va` must have been recorded under.
    #[inline]
    fn memo_key(&self, va: u64) -> (u64, u64, u64, u64) {
        let csr = &self.cpu.csr;
        let ctx = self.cpu.mode.to_bits() | (csr.mstatus & (mstatus::SUM | mstatus::MXR));
        (va >> 12, csr.satp, ctx, self.mmu.tlb.gen())
    }

    /// Translate a data/fetch address, charging walk cycles. Answers only
    /// what [`Mmu::translate`] would have, in its order: bare mode is the
    /// identity, a contiguous-window load or permitted store is the add,
    /// and a page-memo hit replays the TLB hit it recorded.
    ///
    /// # Errors
    ///
    /// The page fault of [`Mmu::translate`].
    #[inline(always)]
    pub fn translate(&mut self, va: u64, size: u64, access: Access) -> Result<u64, Trap> {
        let satp = self.cpu.csr.satp;
        let bare = self.cpu.mode == Mode::Machine || satp >> 60 != 8;
        match &self.mmu.seg_window {
            None if bare => return Ok(va),
            Some(seg) if seg.contains(va, size) => {
                let plain = access == Access::Load || (access == Access::Store && seg.writable);
                if plain && !seg.paged {
                    return Ok(seg.translate(va));
                }
                return self.translate_slow(va, size, access);
            }
            _ => {}
        }
        let m = &self.page_memo[access as usize];
        if m.key == self.memo_key(va) {
            self.mmu.tlb.touch(m.slot);
            return Ok(m.pa_page | (va & 0xfff));
        }
        self.translate_slow(va, size, access)
    }

    /// [`Mmu::translate`], recording a TLB hit in the page memo.
    #[inline(never)]
    fn translate_slow(&mut self, va: u64, size: u64, access: Access) -> Result<u64, Trap> {
        let t = self.mmu.translate(
            va,
            size,
            access,
            self.cpu.mode,
            self.satp(),
            self.cpu.csr.sum(),
            self.cpu.csr.mxr(),
            &mut self.mem,
            &mut self.dcache,
            &self.cfg,
        )?;
        if let Some(slot) = t.tlb_slot {
            self.page_memo[access as usize] = PageMemo {
                key: self.memo_key(va),
                slot,
                pa_page: t.pa & !0xfff,
            };
        }
        self.cycles += t.cycles;
        Ok(t.pa)
    }

    /// Load `size` bytes at virtual address `va`, charging cache cycles.
    ///
    /// # Errors
    ///
    /// Misaligned-load or translation/access traps.
    #[inline]
    pub fn load(&mut self, va: u64, size: u64) -> Result<u64, Trap> {
        if va & (size - 1) != 0 {
            return Err(Trap::new(Cause::LoadAddrMisaligned, va));
        }
        let pa = self.translate(va, size, Access::Load)?;
        let cost = self.dcache.access(pa).cycles;
        self.charge(cost);
        self.mem.read(pa, size)
    }

    /// Store `size` bytes at virtual address `va`, charging cache cycles.
    ///
    /// # Errors
    ///
    /// Misaligned-store or translation/access traps.
    #[inline]
    pub fn store(&mut self, va: u64, size: u64, value: u64) -> Result<(), Trap> {
        if va & (size - 1) != 0 {
            return Err(Trap::new(Cause::StoreAddrMisaligned, va));
        }
        let pa = self.translate(va, size, Access::Store)?;
        let cost = self.dcache.access(pa).cycles;
        self.charge(cost);
        self.mem.write(pa, size, value)
    }

    /// Physical load used by hardware units (XPC engine walks its tables
    /// physically), still charged through the D-cache.
    pub fn phys_load(&mut self, pa: u64, size: u64) -> Result<u64, Trap> {
        let cost = self.dcache.access(pa).cycles;
        self.charge(cost);
        self.mem.read(pa, size)
    }

    /// Physical store used by hardware units, charged through the D-cache.
    pub fn phys_store(&mut self, pa: u64, size: u64, value: u64) -> Result<(), Trap> {
        let cost = self.dcache.access(pa).cycles;
        self.charge(cost);
        self.mem.write(pa, size, value)
    }

    /// Fetch the instruction word at `pc` and its decoding (`None` for a
    /// word the base ISA does not implement). Translation, the I-cache
    /// charge and the memory read happen on every fetch; only the pure
    /// `inst::decode` is memoised.
    #[inline]
    fn fetch(&mut self, pc: u64) -> Result<(u32, Option<Inst>), Trap> {
        if pc & 3 != 0 {
            return Err(Trap::new(Cause::InstAddrMisaligned, pc));
        }
        let pa = self.translate(pc, 4, Access::Fetch)?;
        let cost = self.icache.access(pa).cycles;
        self.charge(cost);
        let w = self
            .mem
            .read(pa, 4)
            .map_err(|_| Trap::new(Cause::InstAccessFault, pc))? as u32;
        let slot = &mut self.memo[(pa >> 2) as usize & (MEMO_SLOTS - 1)];
        if slot.0 != w {
            *slot = (w, inst::decode(w));
        }
        Ok(*slot)
    }

    /// Deliver a trap: route to M or S mode per `medeleg`, update status
    /// CSRs, jump to the trap vector, charge the pipeline-flush cost.
    ///
    /// # Errors
    ///
    /// [`SimError::UnhandledTrap`] when the target `tvec` is 0.
    pub fn take_trap(&mut self, trap: Trap) -> Result<(), SimError> {
        let code = trap.cause.code();
        let delegate =
            self.cpu.mode != Mode::Machine && code < 64 && (self.cpu.csr.medeleg >> code) & 1 == 1;
        self.charge(self.cfg.trap_entry_cycles);
        if delegate {
            if self.cpu.csr.stvec == 0 {
                return Err(SimError::UnhandledTrap(trap));
            }
            self.cpu.csr.sepc = self.cpu.pc;
            self.cpu.csr.scause = code;
            self.cpu.csr.stval = trap.tval;
            let mut st = self.cpu.csr.mstatus;
            // SPIE <- SIE; SIE <- 0; SPP <- mode
            if st & mstatus::SIE != 0 {
                st |= mstatus::SPIE;
            } else {
                st &= !mstatus::SPIE;
            }
            st &= !mstatus::SIE;
            if self.cpu.mode == Mode::Supervisor {
                st |= mstatus::SPP;
            } else {
                st &= !mstatus::SPP;
            }
            self.cpu.csr.mstatus = st;
            self.cpu.mode = Mode::Supervisor;
            self.cpu.pc = self.cpu.csr.stvec & !0b11;
        } else {
            if self.cpu.csr.mtvec == 0 {
                return Err(SimError::UnhandledTrap(trap));
            }
            self.cpu.csr.mepc = self.cpu.pc;
            self.cpu.csr.mcause = code;
            self.cpu.csr.mtval = trap.tval;
            let mut st = self.cpu.csr.mstatus;
            if st & mstatus::MIE != 0 {
                st |= mstatus::MPIE;
            } else {
                st &= !mstatus::MPIE;
            }
            st &= !mstatus::MIE;
            st = (st & !mstatus::MPP_MASK) | (self.cpu.mode.to_bits() << mstatus::MPP_SHIFT);
            self.cpu.csr.mstatus = st;
            self.cpu.mode = Mode::Machine;
            self.cpu.pc = self.cpu.csr.mtvec & !0b11;
        }
        Ok(())
    }

    fn csr_read_any(&mut self, addr: u16, ext: &mut dyn IsaExtension) -> Result<u64, Trap> {
        if let Some(r) = self
            .cpu
            .csr
            .read(addr, self.cpu.mode, self.cycles, self.instret)
        {
            return r;
        }
        if let Some(r) = ext.csr_read(addr, self) {
            return r;
        }
        Err(Trap::new(Cause::IllegalInst, addr as u64))
    }

    fn csr_write_any(
        &mut self,
        addr: u16,
        value: u64,
        ext: &mut dyn IsaExtension,
    ) -> Result<(), Trap> {
        if let Some(r) = self.cpu.csr.write(addr, value, self.cpu.mode) {
            let satp_written = r?;
            if satp_written {
                self.charge(self.cfg.satp_write_cycles);
                if !self.mmu.tlb.tagged() {
                    self.mmu.tlb.flush_all();
                }
                ext.on_satp_write(self);
            }
            return Ok(());
        }
        if let Some(r) = ext.csr_write(addr, value, self) {
            return r;
        }
        Err(Trap::new(Cause::IllegalInst, addr as u64))
    }

    #[inline]
    fn alu(op: AluOp, a: u64, b: u64) -> u64 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a << (b & 63),
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a >> (b & 63),
            AluOp::Sra => ((a as i64) >> (b & 63)) as u64,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            AluOp::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
            AluOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    a
                } else {
                    ((a as i64) / (b as i64)) as u64
                }
            }
            AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    0
                } else {
                    ((a as i64) % (b as i64)) as u64
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }

    #[inline]
    fn alu32(op: AluOp, a: u64, b: u64) -> u64 {
        let a32 = a as u32;
        let b32 = b as u32;
        let r = match op {
            AluOp::Add => a32.wrapping_add(b32),
            AluOp::Sub => a32.wrapping_sub(b32),
            AluOp::Sll => a32 << (b32 & 31),
            AluOp::Srl => a32 >> (b32 & 31),
            AluOp::Sra => ((a32 as i32) >> (b32 & 31)) as u32,
            AluOp::Mul => a32.wrapping_mul(b32),
            AluOp::Div => {
                if b32 == 0 {
                    u32::MAX
                } else if a32 as i32 == i32::MIN && b32 as i32 == -1 {
                    a32
                } else {
                    ((a32 as i32) / (b32 as i32)) as u32
                }
            }
            AluOp::Divu => a32.checked_div(b32).unwrap_or(u32::MAX),
            AluOp::Rem => {
                if b32 == 0 {
                    a32
                } else if a32 as i32 == i32::MIN && b32 as i32 == -1 {
                    0
                } else {
                    ((a32 as i32) % (b32 as i32)) as u32
                }
            }
            AluOp::Remu => {
                if b32 == 0 {
                    a32
                } else {
                    a32 % b32
                }
            }
            _ => unreachable!("not an RV64 *W op"),
        };
        r as i32 as i64 as u64
    }

    /// Execute one decoded instruction; `pc` advancement included.
    #[inline]
    fn execute(&mut self, i: Inst, ext: &mut dyn IsaExtension) -> Result<(), Trap> {
        let pc = self.cpu.pc;
        let mut next = pc.wrapping_add(4);
        match i {
            Inst::Lui { rd, imm } => self.cpu.set_x(rd, imm as u64),
            Inst::Auipc { rd, imm } => self.cpu.set_x(rd, pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, imm } => {
                self.cpu.set_x(rd, next);
                next = pc.wrapping_add(imm as u64);
            }
            Inst::Jalr { rd, rs1, imm } => {
                let t = self.cpu.x(rs1).wrapping_add(imm as u64) & !1;
                self.cpu.set_x(rd, next);
                next = t;
            }
            Inst::Branch { op, rs1, rs2, imm } => {
                let a = self.cpu.x(rs1);
                let b = self.cpu.x(rs2);
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i64) < (b as i64),
                    BranchOp::Ge => (a as i64) >= (b as i64),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    next = pc.wrapping_add(imm as u64);
                    // Taken-branch bubble on the in-order pipeline.
                    self.charge(1);
                }
            }
            Inst::Load { op, rd, rs1, imm } => {
                let va = self.cpu.x(rs1).wrapping_add(imm as u64);
                let raw = self.load(va, op.size())?;
                let v = match op {
                    LoadOp::Lb => raw as u8 as i8 as i64 as u64,
                    LoadOp::Lh => raw as u16 as i16 as i64 as u64,
                    LoadOp::Lw => raw as u32 as i32 as i64 as u64,
                    LoadOp::Ld => raw,
                    LoadOp::Lbu | LoadOp::Lhu | LoadOp::Lwu => raw,
                };
                self.cpu.set_x(rd, v);
            }
            Inst::Store { op, rs1, rs2, imm } => {
                let va = self.cpu.x(rs1).wrapping_add(imm as u64);
                self.store(va, op.size(), self.cpu.x(rs2))?;
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let v = Self::alu(op, self.cpu.x(rs1), imm as u64);
                self.cpu.set_x(rd, v);
            }
            Inst::OpImm32 { op, rd, rs1, imm } => {
                let v = Self::alu32(op, self.cpu.x(rs1), imm as u64);
                self.cpu.set_x(rd, v);
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let v = Self::alu(op, self.cpu.x(rs1), self.cpu.x(rs2));
                self.cpu.set_x(rd, v);
            }
            Inst::Op32 { op, rd, rs1, rs2 } => {
                let v = Self::alu32(op, self.cpu.x(rs1), self.cpu.x(rs2));
                self.cpu.set_x(rd, v);
            }
            Inst::Fence | Inst::FenceI | Inst::Wfi => {}
            Inst::SfenceVma { rs1: _, rs2 } => {
                if self.cpu.mode == Mode::User {
                    return Err(Trap::new(Cause::IllegalInst, 0));
                }
                if rs2 == 0 {
                    self.mmu.tlb.flush_all();
                } else {
                    let asid = self.cpu.x(rs2) as u16;
                    self.mmu.tlb.flush_asid(asid);
                }
                self.charge(2);
            }
            Inst::Ecall => {
                let cause = match self.cpu.mode {
                    Mode::User => Cause::EcallFromU,
                    Mode::Supervisor => Cause::EcallFromS,
                    Mode::Machine => Cause::EcallFromM,
                };
                return Err(Trap::bare(cause));
            }
            Inst::Ebreak => return Err(Trap::bare(Cause::Breakpoint)),
            Inst::Mret => {
                if self.cpu.mode != Mode::Machine {
                    return Err(Trap::new(Cause::IllegalInst, 0));
                }
                let st = self.cpu.csr.mstatus;
                let mpp = Mode::from_bits((st & mstatus::MPP_MASK) >> mstatus::MPP_SHIFT);
                let mut new = st;
                if st & mstatus::MPIE != 0 {
                    new |= mstatus::MIE;
                } else {
                    new &= !mstatus::MIE;
                }
                new |= mstatus::MPIE;
                new &= !mstatus::MPP_MASK;
                self.cpu.csr.mstatus = new;
                self.cpu.mode = mpp;
                next = self.cpu.csr.mepc;
                self.charge(self.cfg.trap_return_cycles);
            }
            Inst::Sret => {
                if self.cpu.mode == Mode::User {
                    return Err(Trap::new(Cause::IllegalInst, 0));
                }
                let st = self.cpu.csr.mstatus;
                let spp = if st & mstatus::SPP != 0 {
                    Mode::Supervisor
                } else {
                    Mode::User
                };
                let mut new = st;
                if st & mstatus::SPIE != 0 {
                    new |= mstatus::SIE;
                } else {
                    new &= !mstatus::SIE;
                }
                new |= mstatus::SPIE;
                new &= !mstatus::SPP;
                self.cpu.csr.mstatus = new;
                self.cpu.mode = spp;
                next = self.cpu.csr.sepc;
                self.charge(self.cfg.trap_return_cycles);
            }
            Inst::Csr { op, rd, csr, src } => {
                let srcv = match src {
                    CsrSrc::Reg(r) => self.cpu.x(r),
                    CsrSrc::Imm(v) => v as u64,
                };
                let write_needed = match (op, src) {
                    (CsrOp::Rw, _) => true,
                    (_, CsrSrc::Reg(r)) => r != 0,
                    (_, CsrSrc::Imm(v)) => v != 0,
                };
                let old = self.csr_read_any(csr, ext)?;
                if write_needed {
                    let newv = match op {
                        CsrOp::Rw => srcv,
                        CsrOp::Rs => old | srcv,
                        CsrOp::Rc => old & !srcv,
                    };
                    self.csr_write_any(csr, newv, ext)?;
                }
                self.cpu.set_x(rd, old);
            }
            Inst::Lr { rd, rs1, word } => {
                let size = if word { 4 } else { 8 };
                let va = self.cpu.x(rs1);
                if va & (size - 1) != 0 {
                    return Err(Trap::new(Cause::LoadAddrMisaligned, va));
                }
                let pa = self.translate(va, size, Access::Load)?;
                let cost = self.dcache.access(pa).cycles;
                self.charge(cost + 1); // AMO ordering cost
                let raw = self.mem.read(pa, size)?;
                let v = if word {
                    raw as u32 as i32 as i64 as u64
                } else {
                    raw
                };
                self.reservation = Some(pa);
                self.cpu.set_x(rd, v);
            }
            Inst::Sc { rd, rs1, rs2, word } => {
                let size = if word { 4 } else { 8 };
                let va = self.cpu.x(rs1);
                if va & (size - 1) != 0 {
                    return Err(Trap::new(Cause::StoreAddrMisaligned, va));
                }
                let pa = self.translate(va, size, Access::Store)?;
                let cost = self.dcache.access(pa).cycles;
                self.charge(cost + 1);
                if self.reservation == Some(pa) {
                    self.mem.write(pa, size, self.cpu.x(rs2))?;
                    self.cpu.set_x(rd, 0);
                } else {
                    self.cpu.set_x(rd, 1);
                }
                self.reservation = None;
            }
            Inst::Amo {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let size = if word { 4 } else { 8 };
                let va = self.cpu.x(rs1);
                if va & (size - 1) != 0 {
                    return Err(Trap::new(Cause::StoreAddrMisaligned, va));
                }
                let pa = self.translate(va, size, Access::Store)?;
                let cost = self.dcache.access(pa).cycles;
                self.charge(cost + 2); // read-modify-write turnaround
                let raw = self.mem.read(pa, size)?;
                let old = if word {
                    raw as u32 as i32 as i64 as u64
                } else {
                    raw
                };
                let src = self.cpu.x(rs2);
                let new = Self::amo(op, old, src, word);
                let stored = if word { new as u32 as u64 } else { new };
                self.mem.write(pa, size, stored)?;
                self.cpu.set_x(rd, old);
            }
        }
        self.cpu.pc = next;
        Ok(())
    }

    fn amo(op: AmoOp, old: u64, src: u64, word: bool) -> u64 {
        let (a, b) = if word {
            (
                old as u32 as i32 as i64 as u64,
                src as u32 as i32 as i64 as u64,
            )
        } else {
            (old, src)
        };
        match op {
            AmoOp::Swap => b,
            AmoOp::Add => a.wrapping_add(b),
            AmoOp::Xor => a ^ b,
            AmoOp::And => a & b,
            AmoOp::Or => a | b,
            AmoOp::Min => {
                if (a as i64) < (b as i64) {
                    a
                } else {
                    b
                }
            }
            AmoOp::Max => {
                if (a as i64) > (b as i64) {
                    a
                } else {
                    b
                }
            }
            AmoOp::Minu => a.min(b),
            AmoOp::Maxu => a.max(b),
        }
    }
}

/// One emulated hart with its extension.
pub struct Machine {
    /// The core (registers, memory, MMU, caches, clock).
    pub core: Core,
    ext: Box<dyn IsaExtension>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.core.cpu.pc)
            .field("cycles", &self.core.cycles)
            .field("ext", &self.ext.name())
            .finish()
    }
}

impl Machine {
    /// A machine with no ISA extension (baseline platform).
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            core: Core::new(cfg),
            ext: Box::new(NullExtension),
        }
    }

    /// A machine with an ISA extension installed (e.g. the XPC engine).
    pub fn with_extension(cfg: MachineConfig, ext: Box<dyn IsaExtension>) -> Self {
        Machine {
            core: Core::new(cfg),
            ext,
        }
    }

    /// Access the installed extension (for test inspection).
    pub fn extension(&mut self) -> &mut dyn IsaExtension {
        self.ext.as_mut()
    }

    /// Borrow the core and the extension at the same time — host-side
    /// control planes (the `xpc` kernel model) need both to mirror what a
    /// guest kernel would do through CSR instructions.
    pub fn split(&mut self) -> (&mut Core, &mut dyn IsaExtension) {
        (&mut self.core, self.ext.as_mut())
    }

    /// Load instruction words at [`DRAM_BASE`] and point the PC there.
    pub fn load_program(&mut self, words: &[u32]) {
        self.load_program_at(DRAM_BASE, words);
        self.core.cpu.pc = DRAM_BASE;
    }

    /// Load instruction words at `pa` without touching the PC.
    pub fn load_program_at(&mut self, pa: u64, words: &[u32]) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.core.mem.load_bytes(pa, &bytes);
    }

    /// Deliver a machine timer interrupt if one is pending and enabled.
    fn check_timer(&mut self) -> Result<bool, SimError> {
        let c = &self.core.cpu.csr;
        let pending = c.mtimecmp != 0 && self.core.cycles >= c.mtimecmp;
        if !pending || c.mie & MTIE == 0 {
            return Ok(false);
        }
        // M-interrupts fire in U/S unconditionally, in M only with MIE.
        if self.core.cpu.mode == Mode::Machine && c.mstatus & mstatus::MIE == 0 {
            return Ok(false);
        }
        if self.core.cpu.csr.mtvec == 0 {
            return Err(SimError::UnhandledTrap(Trap::bare(Cause::Breakpoint)));
        }
        let core = &mut self.core;
        core.charge(core.cfg.trap_entry_cycles);
        core.cpu.csr.mepc = core.cpu.pc;
        core.cpu.csr.mcause = MCAUSE_TIMER;
        core.cpu.csr.mtval = 0;
        let mut st = core.cpu.csr.mstatus;
        if st & mstatus::MIE != 0 {
            st |= mstatus::MPIE;
        } else {
            st &= !mstatus::MPIE;
        }
        st &= !mstatus::MIE;
        st = (st & !mstatus::MPP_MASK) | (core.cpu.mode.to_bits() << mstatus::MPP_SHIFT);
        core.cpu.csr.mstatus = st;
        core.cpu.mode = Mode::Machine;
        core.cpu.pc = core.cpu.csr.mtvec & !0b11;
        Ok(true)
    }

    /// Execute one instruction (including trap and timer-interrupt
    /// delivery).
    ///
    /// # Errors
    ///
    /// [`SimError`] on unrecoverable guest state.
    #[inline]
    pub fn step(&mut self) -> Result<Option<Exit>, SimError> {
        if self.check_timer()? {
            return Ok(None);
        }
        let pc = self.core.cpu.pc;
        self.core.charge(1); // base issue cost
        let (raw, decoded) = match self.core.fetch(pc) {
            Ok(f) => f,
            Err(t) => {
                self.core.take_trap(t)?;
                return Ok(None);
            }
        };
        let result = match decoded {
            Some(Inst::Ebreak) => return Ok(Some(Exit::Break)),
            Some(i) => {
                self.core.instret += 1;
                self.core.execute(i, self.ext.as_mut())
            }
            None => {
                self.core.instret += 1;
                match self.ext.execute(raw, &mut self.core) {
                    ExtResult::Done => Ok(()),
                    ExtResult::Trapped(t) => Err(t),
                    ExtResult::NotClaimed => Err(Trap::new(Cause::IllegalInst, raw as u64)),
                }
            }
        };
        if let Err(t) = result {
            self.core.take_trap(t)?;
            return Ok(None);
        }
        if let Some(code) = self.core.mem.exit_code.take() {
            return Ok(Some(Exit::Exited(code)));
        }
        Ok(None)
    }

    /// Run until exit or `max_instr` steps.
    ///
    /// # Errors
    ///
    /// [`SimError`] on unrecoverable guest state.
    pub fn run(&mut self, max_instr: u64) -> Result<RunResult, SimError> {
        for _ in 0..max_instr {
            if let Some(exit) = self.step()? {
                return Ok(RunResult {
                    exit,
                    cycles: self.core.cycles,
                    instret: self.core.instret,
                });
            }
        }
        Ok(RunResult {
            exit: Exit::LimitReached,
            cycles: self.core.cycles,
            instret: self.core.instret,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::csr::addr as csr_addr;
    use crate::reg;

    fn run_prog(build: impl FnOnce(&mut Assembler)) -> Machine {
        let mut a = Assembler::new(DRAM_BASE);
        build(&mut a);
        let mut m = Machine::new(MachineConfig::rocket_u500());
        m.load_program(&a.assemble());
        let r = m.run(100_000).expect("no sim error");
        assert_eq!(r.exit, Exit::Break, "program should hit ebreak");
        m
    }

    #[test]
    fn arithmetic_loop() {
        let m = run_prog(|a| {
            a.li(reg::A0, 0);
            a.li(reg::A1, 10);
            a.label("loop");
            a.add(reg::A0, reg::A0, reg::A1);
            a.addi(reg::A1, reg::A1, -1);
            a.bne(reg::A1, reg::ZERO, "loop");
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(reg::A0), (1..=10).sum::<u64>());
    }

    #[test]
    fn li_64bit_constants() {
        for v in [
            0i64,
            1,
            -1,
            2047,
            -2048,
            0x7fff_f800,
            0x1234_5678,
            -0x1234_5678,
            0x0123_4567_89ab_cdef,
            -0x0123_4567_89ab_cdef,
            i64::MAX,
            i64::MIN,
            0x8000_0000u32 as i64, // positive 2^31, needs 64-bit path
        ] {
            let m = run_prog(|a| {
                a.li(reg::A0, v);
                a.ebreak();
            });
            assert_eq!(m.core.cpu.x(reg::A0) as i64, v, "li {v:#x}");
        }
    }

    #[test]
    fn loads_and_stores() {
        let m = run_prog(|a| {
            a.li(reg::T0, (DRAM_BASE + 0x1000) as i64);
            a.li(reg::T1, -2);
            a.sd(reg::T1, reg::T0, 0);
            a.lw(reg::A0, reg::T0, 0); // sign-extended -2
            a.lbu(reg::A1, reg::T0, 0); // 0xfe
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(reg::A0) as i64, -2);
        assert_eq!(m.core.cpu.x(reg::A1), 0xfe);
    }

    #[test]
    fn ecall_to_mmode_and_mret() {
        // mtvec handler sets a0=99 then mret back.
        let mut a = Assembler::new(DRAM_BASE);
        a.li(reg::T0, (DRAM_BASE + 0x100) as i64);
        a.csrw(csr_addr::MTVEC, reg::T0);
        a.ecall();
        a.ebreak(); // returns here
        let body = a.assemble();

        let mut h = Assembler::new(DRAM_BASE + 0x100);
        h.li(reg::A0, 99);
        h.csrr(reg::T1, csr_addr::MEPC);
        h.addi(reg::T1, reg::T1, 4);
        h.csrw(csr_addr::MEPC, reg::T1);
        h.mret();
        let handler = h.assemble();

        let mut m = Machine::new(MachineConfig::rocket_u500());
        m.load_program(&body);
        m.load_program_at(DRAM_BASE + 0x100, &handler);
        let r = m.run(1000).unwrap();
        assert_eq!(r.exit, Exit::Break);
        assert_eq!(m.core.cpu.x(reg::A0), 99);
        assert_eq!(m.core.cpu.csr.mcause, Cause::EcallFromM.code());
    }

    #[test]
    fn mret_drops_to_user_and_ecall_comes_back() {
        // M-mode: set mtvec, set MPP=U, mepc=user code, mret; user ecalls.
        let mut a = Assembler::new(DRAM_BASE);
        a.li(reg::T0, (DRAM_BASE + 0x100) as i64);
        a.csrw(csr_addr::MTVEC, reg::T0);
        a.li(reg::T0, (DRAM_BASE + 0x200) as i64);
        a.csrw(csr_addr::MEPC, reg::T0);
        // MPP stays 0 (User) after reset; just mret.
        a.mret();
        let boot = a.assemble();

        let mut h = Assembler::new(DRAM_BASE + 0x100);
        h.ebreak(); // trap handler: stop.
        let handler = h.assemble();

        let mut u = Assembler::new(DRAM_BASE + 0x200);
        u.li(reg::A0, 7);
        u.ecall();
        let user = u.assemble();

        let mut m = Machine::new(MachineConfig::rocket_u500());
        m.load_program(&boot);
        m.load_program_at(DRAM_BASE + 0x100, &handler);
        m.load_program_at(DRAM_BASE + 0x200, &user);
        let r = m.run(1000).unwrap();
        assert_eq!(r.exit, Exit::Break);
        assert_eq!(m.core.cpu.x(reg::A0), 7);
        assert_eq!(m.core.cpu.csr.mcause, Cause::EcallFromU.code());
        assert_eq!(
            m.core.cpu.csr.mepc,
            DRAM_BASE + 0x200 + 4 * (user.len() as u64 - 1)
        );
    }

    #[test]
    fn unhandled_trap_is_sim_error() {
        let mut a = Assembler::new(DRAM_BASE);
        a.ecall(); // no mtvec installed
        let mut m = Machine::new(MachineConfig::rocket_u500());
        m.load_program(&a.assemble());
        assert!(matches!(m.run(10), Err(SimError::UnhandledTrap(_))));
    }

    #[test]
    fn console_output() {
        let m = run_prog(|a| {
            a.li(reg::T0, crate::mem::MMIO_PUTCHAR as i64);
            a.li(reg::T1, b'X' as i64);
            a.sb(reg::T1, reg::T0, 0);
            a.ebreak();
        });
        assert_eq!(m.core.mem.console_string(), "X");
    }

    #[test]
    fn mmio_exit() {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(reg::T0, crate::mem::MMIO_EXIT as i64);
        a.li(reg::T1, 42);
        a.sd(reg::T1, reg::T0, 0);
        let mut m = Machine::new(MachineConfig::rocket_u500());
        m.load_program(&a.assemble());
        let r = m.run(100).unwrap();
        assert_eq!(r.exit, Exit::Exited(42));
    }

    #[test]
    fn cycles_exceed_instret_with_cold_caches() {
        let m = run_prog(|a| {
            a.li(reg::A0, 5);
            a.ebreak();
        });
        assert!(m.core.cycles >= m.core.instret);
        assert!(m.core.cycles > 0);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(reg::T0, (DRAM_BASE + 0x100) as i64);
        a.csrw(csr_addr::MTVEC, reg::T0);
        a.raw(0xffff_ffff); // not a valid instruction
        let mut h = Assembler::new(DRAM_BASE + 0x100);
        h.csrr(reg::A0, csr_addr::MCAUSE);
        h.ebreak();
        let mut m = Machine::new(MachineConfig::rocket_u500());
        m.load_program(&a.assemble());
        m.load_program_at(DRAM_BASE + 0x100, &h.assemble());
        let r = m.run(100).unwrap();
        assert_eq!(r.exit, Exit::Break);
        assert_eq!(m.core.cpu.x(reg::A0), Cause::IllegalInst.code());
    }

    #[test]
    fn csr_read_write_program() {
        let m = run_prog(|a| {
            a.li(reg::T0, 0x1234);
            a.csrw(csr_addr::MSCRATCH, reg::T0);
            a.csrr(reg::A0, csr_addr::MSCRATCH);
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(reg::A0), 0x1234);
    }

    /// `main` loaded at [`DRAM_BASE`] and `routines` at their addresses;
    /// `mtvec` points at [`TRAP`], a lone `ebreak` unless a routine is
    /// loaded over it.
    fn boot(main: Assembler, routines: &[(u64, Vec<u32>)]) -> Machine {
        let mut m = Machine::new(MachineConfig::rocket_u500());
        let mut h = Assembler::new(TRAP);
        h.ebreak();
        m.load_program_at(TRAP, &h.assemble());
        for (pa, words) in routines {
            m.load_program_at(*pa, words);
        }
        m.load_program(&main.assemble());
        m.core.cpu.csr.mtvec = TRAP;
        m
    }

    fn run_to_break(mut m: Machine) -> Machine {
        let r = m.run(100_000).expect("no sim error");
        assert_eq!(r.exit, Exit::Break, "program should hit ebreak");
        m
    }

    const TRAP: u64 = DRAM_BASE + 0xf00;

    fn encoding(build: impl FnOnce(&mut Assembler)) -> u32 {
        let mut a = Assembler::new(0);
        build(&mut a);
        a.assemble()[0]
    }

    fn untouched(core: &Core) -> bool {
        core.memo.iter().all(|s| *s == (0, inst::decode(0)))
    }

    #[test]
    fn self_modifying_code_needs_no_fence_i() {
        // Pass 1 executes `addi a0, a0, 1`, then overwrites it with
        // `addi a0, a0, 2`; pass 2 must see the new word.
        let mut a = Assembler::new(DRAM_BASE);
        a.li(reg::T1, encoding(|e| e.addi(reg::A0, reg::A0, 2)) as i64);
        a.li(reg::S1, 2);
        a.auipc(reg::T0, 0);
        a.label("loop");
        a.addi(reg::A0, reg::A0, 1); // at t0 + 4
        a.sw(reg::T1, reg::T0, 4);
        a.addi(reg::S1, reg::S1, -1);
        a.bne(reg::S1, reg::ZERO, "loop");
        a.ebreak();
        let m = run_to_break(boot(a, &[]));
        assert_eq!(m.core.cpu.x(reg::A0), 1 + 2);
    }

    #[test]
    fn aliasing_routines_share_a_memo_slot_correctly() {
        let (first, second) = (
            DRAM_BASE + 0x1000,
            DRAM_BASE + 0x1000 + 4 * MEMO_SLOTS as u64,
        );
        let routine = |at: u64, add: i64| {
            let mut r = Assembler::new(at);
            r.addi(reg::A0, reg::A0, add);
            r.ret();
            (at, r.assemble())
        };
        let mut a = Assembler::new(DRAM_BASE);
        a.li(reg::S1, 100);
        a.li(reg::S2, first as i64);
        a.li(reg::S3, second as i64);
        a.label("loop");
        a.jalr(reg::RA, reg::S2, 0);
        a.jalr(reg::RA, reg::S3, 0);
        a.addi(reg::S1, reg::S1, -1);
        a.bne(reg::S1, reg::ZERO, "loop");
        a.ebreak();
        let m = run_to_break(boot(a, &[routine(first, 1), routine(second, 3)]));
        assert_eq!(m.core.cpu.x(reg::A0), 100 * (1 + 3));
    }

    #[test]
    fn undecodable_word_traps_identically_every_time() {
        // The handler records mtval and returns to the same word once.
        let mut h = Assembler::new(TRAP);
        h.bne(reg::S5, reg::ZERO, "second");
        h.li(reg::S5, 1);
        h.csrr(reg::A1, csr_addr::MTVAL);
        h.mret(); // mepc still points at the bad word
        h.label("second");
        h.csrr(reg::A2, csr_addr::MTVAL);
        h.ebreak();
        let mut a = Assembler::new(DRAM_BASE);
        a.raw(0xffff_ffff);
        let m = run_to_break(boot(a, &[(TRAP, h.assemble())]));
        assert_eq!(m.core.cpu.csr.mcause, Cause::IllegalInst.code());
        assert_eq!(m.core.cpu.x(reg::A1), 0xffff_ffff);
        assert_eq!(m.core.cpu.x(reg::A2), 0xffff_ffff);
    }

    #[test]
    fn faulting_fetches_trap_and_leave_the_memo_alone() {
        let mut core = Core::new(MachineConfig::rocket_u500());
        let e = core.fetch(DRAM_BASE + 2).unwrap_err();
        assert_eq!(
            (e.cause, e.tval),
            (Cause::InstAddrMisaligned, DRAM_BASE + 2)
        );
        for pc in [0x1000, u64::MAX - 3] {
            let e = core.fetch(pc).unwrap_err();
            assert_eq!((e.cause, e.tval), (Cause::InstAccessFault, pc));
        }
        assert!(untouched(&core));

        // The same through the machine: jump to an odd halfword.
        let mut a = Assembler::new(DRAM_BASE);
        a.li(reg::T0, (DRAM_BASE + 0x102) as i64);
        a.jalr(reg::ZERO, reg::T0, 0);
        let m = run_to_break(boot(a, &[]));
        assert_eq!(m.core.cpu.csr.mcause, Cause::InstAddrMisaligned.code());
        assert_eq!(m.core.cpu.csr.mtval, DRAM_BASE + 0x102);
    }

    /// `mcause` after `access` (addressing through `t1` = `addr`) traps
    /// into the lone-`ebreak` handler.
    fn fault_cause(
        window: Option<crate::mmu::SegWindow>,
        addr: i64,
        access: impl FnOnce(&mut Assembler),
    ) -> u64 {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(reg::T1, addr);
        access(&mut a);
        let mut m = boot(a, &[]);
        m.core.mmu.seg_window = window;
        let m = run_to_break(m);
        assert_eq!(m.core.cpu.pc, TRAP, "ended in the handler");
        m.core.cpu.csr.mcause
    }

    #[test]
    fn accesses_wrapping_the_address_space_fault_instead_of_panicking() {
        // pa + len used to overflow: a host panic reachable from the guest.
        let (load, store) = (
            Cause::LoadAccessFault.code(),
            Cause::StoreAccessFault.code(),
        );
        assert_eq!(fault_cause(None, -8, |a| a.ld(reg::A0, reg::T1, 0)), load);
        assert_eq!(fault_cause(None, -8, |a| a.sd(reg::A0, reg::T1, 0)), store);

        // With a relay window installed the window check sees va + size
        // first (va = u64::MAX - 3).
        let window = Some(crate::mmu::SegWindow {
            va_base: 0x5000_0000,
            pa_base: DRAM_BASE + 0x1_0000,
            len: 4096,
            writable: true,
            paged: false,
        });
        assert_eq!(fault_cause(window, -4, |a| a.lw(reg::A0, reg::T1, 0)), load);
        assert_eq!(
            fault_cause(window, -4, |a| a.sw(reg::A0, reg::T1, 0)),
            store
        );
    }
}

#[cfg(test)]
mod atomics_tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::reg;

    fn run_prog(build: impl FnOnce(&mut Assembler)) -> Machine {
        let mut a = Assembler::new(DRAM_BASE);
        build(&mut a);
        let mut m = Machine::new(MachineConfig::rocket_u500());
        m.load_program(&a.assemble());
        let r = m.run(100_000).expect("no sim error");
        assert_eq!(r.exit, Exit::Break);
        m
    }

    #[test]
    fn amoswap_returns_old_and_stores_new() {
        let m = run_prog(|a| {
            a.li(reg::T0, (DRAM_BASE + 0x1000) as i64);
            a.li(reg::T1, 77);
            a.sd(reg::T1, reg::T0, 0);
            a.li(reg::T2, 99);
            a.amoswap_d(reg::A0, reg::T2, reg::T0);
            a.ld(reg::A1, reg::T0, 0);
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(reg::A0), 77, "old value returned");
        assert_eq!(m.core.cpu.x(reg::A1), 99, "new value stored");
    }

    #[test]
    fn amoadd_accumulates() {
        let m = run_prog(|a| {
            a.li(reg::T0, (DRAM_BASE + 0x1000) as i64);
            a.li(reg::T1, 5);
            a.sd(reg::T1, reg::T0, 0);
            a.li(reg::T2, 3);
            a.amoadd_d(reg::A0, reg::T2, reg::T0);
            a.amoadd_d(reg::A0, reg::T2, reg::T0);
            a.ld(reg::A1, reg::T0, 0);
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(reg::A0), 8, "second amoadd sees 5+3");
        assert_eq!(m.core.cpu.x(reg::A1), 11);
    }

    #[test]
    fn amoadd_w_sign_extends() {
        let m = run_prog(|a| {
            a.li(reg::T0, (DRAM_BASE + 0x1000) as i64);
            a.li(reg::T1, -2);
            a.sw(reg::T1, reg::T0, 0);
            a.li(reg::T2, 1);
            a.amoadd_w(reg::A0, reg::T2, reg::T0);
            a.lw(reg::A1, reg::T0, 0);
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(reg::A0) as i64, -2);
        assert_eq!(m.core.cpu.x(reg::A1) as i64, -1);
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let m = run_prog(|a| {
            a.li(reg::T0, (DRAM_BASE + 0x1000) as i64);
            a.li(reg::T1, 10);
            a.sd(reg::T1, reg::T0, 0);
            // Successful LR/SC pair.
            a.lr_d(reg::A0, reg::T0);
            a.li(reg::T2, 20);
            a.sc_d(reg::A1, reg::T2, reg::T0); // a1 = 0 (success)
                                               // SC without a reservation fails.
            a.li(reg::T2, 30);
            a.sc_d(reg::A2, reg::T2, reg::T0); // a2 = 1 (failure)
            a.ld(reg::A3, reg::T0, 0);
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(reg::A0), 10);
        assert_eq!(m.core.cpu.x(reg::A1), 0, "sc succeeds under reservation");
        assert_eq!(m.core.cpu.x(reg::A2), 1, "sc fails without reservation");
        assert_eq!(m.core.cpu.x(reg::A3), 20, "failed sc did not store");
    }

    #[test]
    fn intervening_store_breaks_reservation() {
        let m = run_prog(|a| {
            a.li(reg::T0, (DRAM_BASE + 0x1000) as i64);
            a.lr_d(reg::A0, reg::T0);
            // Same-hart intervening SC to a different address clears it.
            a.li(reg::T3, (DRAM_BASE + 0x2000) as i64);
            a.lr_d(reg::A4, reg::T3); // reservation moves
            a.li(reg::T2, 1);
            a.sc_d(reg::A1, reg::T2, reg::T0); // stale address: fails
            a.ebreak();
        });
        assert_eq!(m.core.cpu.x(reg::A1), 1, "reservation moved elsewhere");
    }
}
