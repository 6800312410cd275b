//! Integer register indices with their RISC-V ABI names.
//!
//! Guest programs written through [`crate::Assembler`] use these constants;
//! e.g. the XPC engine deposits the caller's capability register in `T0`, as
//! §3.2 of the paper specifies for RISC-V.

/// Hard-wired zero.
pub const ZERO: u8 = 0;
/// Return address.
pub const RA: u8 = 1;
/// Stack pointer.
pub const SP: u8 = 2;
/// Global pointer.
pub const GP: u8 = 3;
/// Thread pointer.
pub const TP: u8 = 4;
/// Temporary 0 (XPC: caller identity register).
pub const T0: u8 = 5;
/// Temporary 1.
pub const T1: u8 = 6;
/// Temporary 2.
pub const T2: u8 = 7;
/// Saved register / frame pointer.
pub const S0: u8 = 8;
/// Saved register 1.
pub const S1: u8 = 9;
/// Argument/return 0.
pub const A0: u8 = 10;
/// Argument/return 1.
pub const A1: u8 = 11;
/// Argument 2.
pub const A2: u8 = 12;
/// Argument 3.
pub const A3: u8 = 13;
/// Argument 4.
pub const A4: u8 = 14;
/// Argument 5.
pub const A5: u8 = 15;
/// Argument 6.
pub const A6: u8 = 16;
/// Argument 7.
pub const A7: u8 = 17;
/// Saved register 2.
pub const S2: u8 = 18;
/// Saved register 3.
pub const S3: u8 = 19;
/// Saved register 4.
pub const S4: u8 = 20;
/// Saved register 5.
pub const S5: u8 = 21;
/// Saved register 6.
pub const S6: u8 = 22;
/// Saved register 7.
pub const S7: u8 = 23;
/// Saved register 8.
pub const S8: u8 = 24;
/// Saved register 9.
pub const S9: u8 = 25;
/// Saved register 10.
pub const S10: u8 = 26;
/// Saved register 11.
pub const S11: u8 = 27;
/// Temporary 3.
pub const T3: u8 = 28;
/// Temporary 4.
pub const T4: u8 = 29;
/// Temporary 5.
pub const T5: u8 = 30;
/// Temporary 6.
pub const T6: u8 = 31;

/// ABI name for a register index (for disassembly / traces).
pub(crate) fn name(idx: u8) -> &'static str {
    const NAMES: [&str; 32] = [
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
        "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
        "t5", "t6",
    ];
    NAMES[(idx & 31) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_match_indices() {
        assert_eq!(name(ZERO), "zero");
        assert_eq!(name(T0), "t0");
        assert_eq!(name(A0), "a0");
        assert_eq!(name(T6), "t6");
    }

    #[test]
    fn name_masks_out_of_range() {
        assert_eq!(name(32), "zero");
        assert_eq!(name(255), "t6");
    }
}
