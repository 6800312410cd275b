//! Trap causes and the [`Trap`] type carried through the execution pipeline.

use std::fmt;

/// Architectural exception causes.
///
/// The first group is the standard RISC-V privileged causes; the second
/// group (24..=28) is the custom range used by the XPC engine for its five
/// new exceptions (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Instruction address misaligned (cause 0).
    InstAddrMisaligned,
    /// Instruction access fault (cause 1).
    InstAccessFault,
    /// Illegal instruction (cause 2).
    IllegalInst,
    /// Breakpoint / `ebreak` (cause 3).
    Breakpoint,
    /// Load address misaligned (cause 4).
    LoadAddrMisaligned,
    /// Load access fault (cause 5).
    LoadAccessFault,
    /// Store address misaligned (cause 6).
    StoreAddrMisaligned,
    /// Store access fault (cause 7).
    StoreAccessFault,
    /// Environment call from U-mode (cause 8).
    EcallFromU,
    /// Environment call from S-mode (cause 9).
    EcallFromS,
    /// Environment call from M-mode (cause 11).
    EcallFromM,
    /// Instruction page fault (cause 12).
    InstPageFault,
    /// Load page fault (cause 13).
    LoadPageFault,
    /// Store page fault (cause 15).
    StorePageFault,
    /// XPC: `xcall` on an invalid x-entry (custom cause 24).
    InvalidXEntry,
    /// XPC: `xcall` without the xcall capability (custom cause 25).
    InvalidXcallCap,
    /// XPC: `xret` to an invalid linkage record (custom cause 26).
    InvalidLinkage,
    /// XPC: `swapseg` of an invalid seg-list entry (custom cause 27).
    SwapsegError,
    /// XPC: seg-mask written outside the current seg-reg (custom cause 28).
    InvalidSegMask,
}

impl Cause {
    /// Encoded `mcause`/`scause` value.
    pub fn code(self) -> u64 {
        match self {
            Cause::InstAddrMisaligned => 0,
            Cause::InstAccessFault => 1,
            Cause::IllegalInst => 2,
            Cause::Breakpoint => 3,
            Cause::LoadAddrMisaligned => 4,
            Cause::LoadAccessFault => 5,
            Cause::StoreAddrMisaligned => 6,
            Cause::StoreAccessFault => 7,
            Cause::EcallFromU => 8,
            Cause::EcallFromS => 9,
            Cause::EcallFromM => 11,
            Cause::InstPageFault => 12,
            Cause::LoadPageFault => 13,
            Cause::StorePageFault => 15,
            Cause::InvalidXEntry => 24,
            Cause::InvalidXcallCap => 25,
            Cause::InvalidLinkage => 26,
            Cause::SwapsegError => 27,
            Cause::InvalidSegMask => 28,
        }
    }

    /// Decode an `mcause` value back to a [`Cause`], if known.
    pub fn from_code(code: u64) -> Option<Cause> {
        Some(match code {
            0 => Cause::InstAddrMisaligned,
            1 => Cause::InstAccessFault,
            2 => Cause::IllegalInst,
            3 => Cause::Breakpoint,
            4 => Cause::LoadAddrMisaligned,
            5 => Cause::LoadAccessFault,
            6 => Cause::StoreAddrMisaligned,
            7 => Cause::StoreAccessFault,
            8 => Cause::EcallFromU,
            9 => Cause::EcallFromS,
            11 => Cause::EcallFromM,
            12 => Cause::InstPageFault,
            13 => Cause::LoadPageFault,
            15 => Cause::StorePageFault,
            24 => Cause::InvalidXEntry,
            25 => Cause::InvalidXcallCap,
            26 => Cause::InvalidLinkage,
            27 => Cause::SwapsegError,
            28 => Cause::InvalidSegMask,
            _ => return None,
        })
    }

    /// Whether this is one of the five XPC-specific exceptions.
    pub fn is_xpc(self) -> bool {
        matches!(
            self,
            Cause::InvalidXEntry
                | Cause::InvalidXcallCap
                | Cause::InvalidLinkage
                | Cause::SwapsegError
                | Cause::InvalidSegMask
        )
    }
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cause::InstAddrMisaligned => "instruction address misaligned",
            Cause::InstAccessFault => "instruction access fault",
            Cause::IllegalInst => "illegal instruction",
            Cause::Breakpoint => "breakpoint",
            Cause::LoadAddrMisaligned => "load address misaligned",
            Cause::LoadAccessFault => "load access fault",
            Cause::StoreAddrMisaligned => "store address misaligned",
            Cause::StoreAccessFault => "store access fault",
            Cause::EcallFromU => "environment call from U-mode",
            Cause::EcallFromS => "environment call from S-mode",
            Cause::EcallFromM => "environment call from M-mode",
            Cause::InstPageFault => "instruction page fault",
            Cause::LoadPageFault => "load page fault",
            Cause::StorePageFault => "store page fault",
            Cause::InvalidXEntry => "invalid x-entry",
            Cause::InvalidXcallCap => "invalid xcall-cap",
            Cause::InvalidLinkage => "invalid linkage",
            Cause::SwapsegError => "swapseg error",
            Cause::InvalidSegMask => "invalid seg-mask",
        };
        f.write_str(s)
    }
}

/// A trap: cause plus the faulting value for `mtval`/`stval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// Why the trap happened.
    pub cause: Cause,
    /// Trap value (faulting address or instruction bits).
    pub tval: u64,
}

impl Trap {
    /// Construct a trap with a trap value.
    pub fn new(cause: Cause, tval: u64) -> Self {
        Trap { cause, tval }
    }

    /// Construct a trap with a zero trap value.
    pub(crate) fn bare(cause: Cause) -> Self {
        Trap { cause, tval: 0 }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (tval={:#x})", self.cause, self.tval)
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in 0..32 {
            if let Some(c) = Cause::from_code(code) {
                assert_eq!(c.code(), code);
            }
        }
    }

    #[test]
    fn xpc_causes_are_custom_range() {
        for c in [
            Cause::InvalidXEntry,
            Cause::InvalidXcallCap,
            Cause::InvalidLinkage,
            Cause::SwapsegError,
            Cause::InvalidSegMask,
        ] {
            assert!(c.is_xpc());
            assert!(c.code() >= 24, "custom causes live at 24+");
        }
        assert!(!Cause::IllegalInst.is_xpc());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Trap::bare(Cause::Breakpoint).to_string().is_empty());
    }
}
