//! Architectural CPU state: integer registers, PC, privilege mode, CSRs.

use crate::csr::CsrFile;

/// Privilege modes, ordered so that `User < Supervisor < Machine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
    /// U-mode (applications, XPC callers/callees).
    User,
    /// S-mode (the kernel control plane).
    Supervisor,
    /// M-mode (firmware; the Binder port's exception trampoline in §5.5).
    Machine,
}

impl Mode {
    /// Encoding used in `mstatus.MPP`.
    pub fn to_bits(self) -> u64 {
        match self {
            Mode::User => 0,
            Mode::Supervisor => 1,
            Mode::Machine => 3,
        }
    }

    /// Decode from `mstatus.MPP` bits (2 maps to Machine defensively).
    pub fn from_bits(bits: u64) -> Mode {
        match bits & 0b11 {
            0 => Mode::User,
            1 => Mode::Supervisor,
            _ => Mode::Machine,
        }
    }
}

/// Architectural register state of one hart.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Current privilege mode.
    pub mode: Mode,
    /// Standard CSRs.
    pub csr: CsrFile,
}

impl Cpu {
    /// Reset state: PC 0, M-mode, zeroed registers.
    pub fn new() -> Self {
        Cpu {
            regs: [0; 32],
            pc: 0,
            mode: Mode::Machine,
            csr: CsrFile::new(),
        }
    }

    /// Read integer register `idx` (x0 reads as zero).
    #[inline]
    pub fn x(&self, idx: u8) -> u64 {
        if idx == 0 {
            0
        } else {
            self.regs[idx as usize & 31]
        }
    }

    /// Write integer register `idx` (writes to x0 are discarded).
    #[inline]
    pub fn set_x(&mut self, idx: u8, value: u64) {
        if idx != 0 {
            self.regs[idx as usize & 31] = value;
        }
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut c = Cpu::new();
        c.set_x(0, 123);
        assert_eq!(c.x(0), 0);
    }

    #[test]
    fn registers_hold_values() {
        let mut c = Cpu::new();
        c.set_x(5, 0xdead);
        assert_eq!(c.x(5), 0xdead);
    }

    #[test]
    fn mode_ordering_matches_privilege() {
        assert!(Mode::User < Mode::Supervisor);
        assert!(Mode::Supervisor < Mode::Machine);
    }

    #[test]
    fn mode_bits_round_trip() {
        for m in [Mode::User, Mode::Supervisor, Mode::Machine] {
            assert_eq!(Mode::from_bits(m.to_bits()), m);
        }
    }
}
