//! Control and status registers: addresses, `mstatus` bit helpers, and the
//! CSR file with the architectural access rules needed by the reproduction.

use crate::cpu::Mode;
use crate::trap::{Cause, Trap};

/// `mstatus` / `sstatus` bit positions used by the machine.
pub mod mstatus {
    /// Supervisor interrupt enable.
    pub const SIE: u64 = 1 << 1;
    /// Machine interrupt enable.
    pub const MIE: u64 = 1 << 3;
    /// Supervisor previous interrupt enable.
    pub const SPIE: u64 = 1 << 5;
    /// Machine previous interrupt enable.
    pub const MPIE: u64 = 1 << 7;
    /// Supervisor previous privilege (1 bit).
    pub const SPP: u64 = 1 << 8;
    /// Machine previous privilege (2 bits at 11..=12).
    pub const MPP_SHIFT: u64 = 11;
    /// MPP mask.
    pub const MPP_MASK: u64 = 0b11 << MPP_SHIFT;
    /// Permit supervisor user-memory access.
    pub const SUM: u64 = 1 << 18;
    /// Make executable readable.
    pub const MXR: u64 = 1 << 19;
}

/// Standard CSR addresses (the subset this machine implements).
pub mod addr {
    pub const SSTATUS: u16 = 0x100;
    pub const SIE: u16 = 0x104;
    pub const STVEC: u16 = 0x105;
    pub const SSCRATCH: u16 = 0x140;
    pub const SEPC: u16 = 0x141;
    pub const SCAUSE: u16 = 0x142;
    pub const STVAL: u16 = 0x143;
    pub const SIP: u16 = 0x144;
    pub const SATP: u16 = 0x180;
    pub const MSTATUS: u16 = 0x300;
    pub const MISA: u16 = 0x301;
    pub const MEDELEG: u16 = 0x302;
    pub const MIDELEG: u16 = 0x303;
    pub const MIE: u16 = 0x304;
    pub const MTVEC: u16 = 0x305;
    pub const MSCRATCH: u16 = 0x340;
    pub const MEPC: u16 = 0x341;
    pub const MCAUSE: u16 = 0x342;
    pub const MTVAL: u16 = 0x343;
    pub const MIP: u16 = 0x344;
    /// Custom M-mode timer-compare CSR. The spec puts mtimecmp in CLINT
    /// MMIO; this machine exposes it as a CSR to keep the memory map
    /// simple (documented deviation). 0 disables the timer.
    pub const MTIMECMP: u16 = 0x7c0;
    pub const CYCLE: u16 = 0xc00;
    pub const TIME: u16 = 0xc01;
    pub const INSTRET: u16 = 0xc02;
    pub const MHARTID: u16 = 0xf14;
}

/// Bits of `mstatus` visible through the `sstatus` shadow.
const SSTATUS_MASK: u64 = mstatus::SIE | mstatus::SPIE | mstatus::SPP | mstatus::SUM | mstatus::MXR;

/// The CSR file.
///
/// Custom (XPC) CSRs are not stored here; the machine routes unknown
/// addresses to the active [`crate::ext::IsaExtension`].
#[derive(Debug, Clone, Default)]
pub struct CsrFile {
    pub mstatus: u64,
    /// Timer compare value (cycles); 0 = timer disabled.
    pub mtimecmp: u64,
    pub medeleg: u64,
    pub mideleg: u64,
    pub mie: u64,
    pub mip: u64,
    pub mtvec: u64,
    pub mscratch: u64,
    pub mepc: u64,
    pub mcause: u64,
    pub mtval: u64,
    pub stvec: u64,
    pub sscratch: u64,
    pub sepc: u64,
    pub scause: u64,
    pub stval: u64,
    pub satp: u64,
}

impl CsrFile {
    /// A freshly reset CSR file.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Minimum privilege required to touch a CSR address (bits 9:8).
    fn required_mode(addr: u16) -> Mode {
        match (addr >> 8) & 0b11 {
            0b00 => Mode::User,
            0b01 => Mode::Supervisor,
            _ => Mode::Machine,
        }
    }

    /// Whether the CSR is read-only (top two address bits == 0b11).
    fn read_only(addr: u16) -> bool {
        (addr >> 10) & 0b11 == 0b11
    }

    /// Read a standard CSR. Returns `None` for addresses this file does not
    /// implement (candidates for extension CSRs).
    ///
    /// # Errors
    ///
    /// Illegal-instruction trap on insufficient privilege.
    pub(crate) fn read(
        &self,
        addr: u16,
        mode: Mode,
        cycle: u64,
        instret: u64,
    ) -> Option<Result<u64, Trap>> {
        if mode < Self::required_mode(addr) {
            return Some(Err(Trap::new(Cause::IllegalInst, addr as u64)));
        }
        let v = match addr {
            addr::MSTATUS => self.mstatus,
            addr::MISA => (2 << 62) | (1 << 8) | (1 << 12) | (1 << 18) | (1 << 20), // RV64 I M S U
            addr::MEDELEG => self.medeleg,
            addr::MIDELEG => self.mideleg,
            addr::MIE => self.mie,
            addr::MIP => self.mip,
            addr::MTVEC => self.mtvec,
            addr::MSCRATCH => self.mscratch,
            addr::MEPC => self.mepc,
            addr::MCAUSE => self.mcause,
            addr::MTVAL => self.mtval,
            addr::MTIMECMP => self.mtimecmp,
            addr::SSTATUS => self.mstatus & SSTATUS_MASK,
            addr::SIE => self.mie & self.mideleg,
            addr::SIP => self.mip & self.mideleg,
            addr::STVEC => self.stvec,
            addr::SSCRATCH => self.sscratch,
            addr::SEPC => self.sepc,
            addr::SCAUSE => self.scause,
            addr::STVAL => self.stval,
            addr::SATP => self.satp,
            addr::CYCLE | addr::TIME => cycle,
            addr::INSTRET => instret,
            addr::MHARTID => 0,
            _ => return None,
        };
        Some(Ok(v))
    }

    /// Write a standard CSR. Returns `None` for unimplemented addresses,
    /// `Some(Ok(satp_written))` on success so the machine can flush TLBs.
    ///
    /// # Errors
    ///
    /// Illegal-instruction trap on insufficient privilege or read-only CSRs.
    pub(crate) fn write(
        &mut self,
        addr: u16,
        value: u64,
        mode: Mode,
    ) -> Option<Result<bool, Trap>> {
        if mode < Self::required_mode(addr) || Self::read_only(addr) {
            return Some(Err(Trap::new(Cause::IllegalInst, addr as u64)));
        }
        match addr {
            addr::MSTATUS => self.mstatus = value,
            addr::MEDELEG => self.medeleg = value,
            addr::MIDELEG => self.mideleg = value,
            addr::MIE => self.mie = value,
            addr::MIP => self.mip = value,
            addr::MTVEC => self.mtvec = value,
            addr::MSCRATCH => self.mscratch = value,
            addr::MEPC => self.mepc = value & !1,
            addr::MCAUSE => self.mcause = value,
            addr::MTVAL => self.mtval = value,
            addr::MTIMECMP => self.mtimecmp = value,
            addr::SSTATUS => self.mstatus = (self.mstatus & !SSTATUS_MASK) | (value & SSTATUS_MASK),
            addr::SIE => {
                let d = self.mideleg;
                self.mie = (self.mie & !d) | (value & d);
            }
            addr::SIP => {
                let d = self.mideleg;
                self.mip = (self.mip & !d) | (value & d);
            }
            addr::STVEC => self.stvec = value,
            addr::SSCRATCH => self.sscratch = value,
            addr::SEPC => self.sepc = value & !1,
            addr::SCAUSE => self.scause = value,
            addr::STVAL => self.stval = value,
            addr::MISA => {}
            addr::SATP => {
                self.satp = value;
                return Some(Ok(true));
            }
            _ => return None,
        }
        Some(Ok(false))
    }

    /// `mstatus.SUM`.
    pub fn sum(&self) -> bool {
        self.mstatus & mstatus::SUM != 0
    }

    /// `mstatus.MXR`.
    pub fn mxr(&self) -> bool {
        self.mstatus & mstatus::MXR != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privilege_enforced() {
        let mut f = CsrFile::new();
        assert!(matches!(
            f.read(addr::MSTATUS, Mode::User, 0, 0),
            Some(Err(_))
        ));
        assert!(matches!(f.write(addr::SATP, 0, Mode::User), Some(Err(_))));
        assert!(matches!(
            f.write(addr::SATP, 0, Mode::Supervisor),
            Some(Ok(true))
        ));
    }

    #[test]
    fn read_only_counters() {
        let mut f = CsrFile::new();
        assert_eq!(f.read(addr::CYCLE, Mode::User, 77, 5).unwrap().unwrap(), 77);
        assert_eq!(
            f.read(addr::INSTRET, Mode::User, 77, 5).unwrap().unwrap(),
            5
        );
        assert!(matches!(
            f.write(addr::CYCLE, 0, Mode::Machine),
            Some(Err(_))
        ));
    }

    #[test]
    fn sstatus_is_a_shadow() {
        let mut f = CsrFile::new();
        f.write(addr::MSTATUS, mstatus::SUM | mstatus::MIE, Mode::Machine)
            .unwrap()
            .unwrap();
        let s = f
            .read(addr::SSTATUS, Mode::Supervisor, 0, 0)
            .unwrap()
            .unwrap();
        assert_eq!(s & mstatus::SUM, mstatus::SUM);
        assert_eq!(s & mstatus::MIE, 0, "M-only bits hidden from sstatus");
    }

    #[test]
    fn unknown_addr_returns_none() {
        let f = CsrFile::new();
        assert!(f.read(0x5c0, Mode::Machine, 0, 0).is_none());
    }

    #[test]
    fn epc_forced_aligned() {
        let mut f = CsrFile::new();
        f.write(addr::MEPC, 0x1001, Mode::Machine).unwrap().unwrap();
        assert_eq!(f.mepc, 0x1000);
    }
}
