//! RV64IM + Zicsr + privileged instruction decoder.
//!
//! Instructions in the custom-0 opcode space (`0001011`) are deliberately
//! *not* decoded here: the machine hands them to the active
//! [`crate::ext::IsaExtension`], which is how the XPC engine claims
//! `xcall`/`xret`/`swapseg` (paper §4.1: "the three new instructions are
//! sent to the XPC engine in the Execute stage").

/// Decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    Lui {
        rd: u8,
        imm: i64,
    },
    Auipc {
        rd: u8,
        imm: i64,
    },
    Jal {
        rd: u8,
        imm: i64,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        imm: i64,
    },
    Load {
        op: LoadOp,
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    Store {
        op: StoreOp,
        rs1: u8,
        rs2: u8,
        imm: i64,
    },
    OpImm {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    OpImm32 {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    Op {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Op32 {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Fence,
    FenceI,
    Ecall,
    Ebreak,
    Mret,
    Sret,
    Wfi,
    SfenceVma {
        rs1: u8,
        rs2: u8,
    },
    Csr {
        op: CsrOp,
        rd: u8,
        csr: u16,
        src: CsrSrc,
    },
    /// RV64A: load-reserved (`word` selects LR.W vs LR.D).
    Lr {
        rd: u8,
        rs1: u8,
        word: bool,
    },
    /// RV64A: store-conditional.
    Sc {
        rd: u8,
        rs1: u8,
        rs2: u8,
        word: bool,
    },
    /// RV64A: atomic memory operation.
    Amo {
        op: AmoOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
        word: bool,
    },
}

/// RV64A atomic memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoOp {
    Swap,
    Add,
    Xor,
    And,
    Or,
    Min,
    Max,
    Minu,
    Maxu,
}

/// Branch comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchOp {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Load widths/signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOp {
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
}

impl LoadOp {
    /// Access size in bytes.
    pub(crate) fn size(self) -> u64 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }
}

/// Store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    Sb,
    Sh,
    Sw,
    Sd,
}

impl StoreOp {
    /// Access size in bytes.
    pub(crate) fn size(self) -> u64 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }
}

/// ALU operations shared between register and immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

/// CSR instruction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrOp {
    Rw,
    Rs,
    Rc,
}

/// CSR operand: register or zero-extended 5-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrSrc {
    Reg(u8),
    Imm(u8),
}

/// The custom-0 major opcode claimed by the XPC engine.
pub const OPCODE_CUSTOM0: u32 = 0b000_1011;

#[inline]
fn rd(raw: u32) -> u8 {
    ((raw >> 7) & 31) as u8
}
#[inline]
fn rs1(raw: u32) -> u8 {
    ((raw >> 15) & 31) as u8
}
#[inline]
fn rs2(raw: u32) -> u8 {
    ((raw >> 20) & 31) as u8
}
#[inline]
fn funct3(raw: u32) -> u32 {
    (raw >> 12) & 7
}
#[inline]
fn funct7(raw: u32) -> u32 {
    raw >> 25
}
#[inline]
fn imm_i(raw: u32) -> i64 {
    (raw as i32 >> 20) as i64
}
#[inline]
fn imm_s(raw: u32) -> i64 {
    let hi = (raw as i32 >> 25) as i64;
    let lo = ((raw >> 7) & 31) as i64;
    (hi << 5) | lo
}
#[inline]
fn imm_b(raw: u32) -> i64 {
    let bit12 = ((raw >> 31) & 1) as i64;
    let bit11 = ((raw >> 7) & 1) as i64;
    let hi = ((raw >> 25) & 0x3f) as i64;
    let lo = ((raw >> 8) & 0xf) as i64;
    let v = (bit12 << 12) | (bit11 << 11) | (hi << 5) | (lo << 1);
    (v << 51) >> 51
}
#[inline]
fn imm_u(raw: u32) -> i64 {
    (raw & 0xffff_f000) as i32 as i64
}
#[inline]
fn imm_j(raw: u32) -> i64 {
    let bit20 = ((raw >> 31) & 1) as i64;
    let hi = ((raw >> 21) & 0x3ff) as i64;
    let bit11 = ((raw >> 20) & 1) as i64;
    let mid = ((raw >> 12) & 0xff) as i64;
    let v = (bit20 << 20) | (mid << 12) | (bit11 << 11) | (hi << 1);
    (v << 43) >> 43
}

/// Decode one 32-bit instruction word. Returns `None` for anything this
/// machine does not implement (including the custom-0 space).
pub fn decode(raw: u32) -> Option<Inst> {
    let opcode = raw & 0x7f;
    Some(match opcode {
        0b011_0111 => Inst::Lui {
            rd: rd(raw),
            imm: imm_u(raw),
        },
        0b001_0111 => Inst::Auipc {
            rd: rd(raw),
            imm: imm_u(raw),
        },
        0b110_1111 => Inst::Jal {
            rd: rd(raw),
            imm: imm_j(raw),
        },
        0b110_0111 => {
            if funct3(raw) != 0 {
                return None;
            }
            Inst::Jalr {
                rd: rd(raw),
                rs1: rs1(raw),
                imm: imm_i(raw),
            }
        }
        0b110_0011 => {
            let op = match funct3(raw) {
                0 => BranchOp::Eq,
                1 => BranchOp::Ne,
                4 => BranchOp::Lt,
                5 => BranchOp::Ge,
                6 => BranchOp::Ltu,
                7 => BranchOp::Geu,
                _ => return None,
            };
            Inst::Branch {
                op,
                rs1: rs1(raw),
                rs2: rs2(raw),
                imm: imm_b(raw),
            }
        }
        0b000_0011 => {
            let op = match funct3(raw) {
                0 => LoadOp::Lb,
                1 => LoadOp::Lh,
                2 => LoadOp::Lw,
                3 => LoadOp::Ld,
                4 => LoadOp::Lbu,
                5 => LoadOp::Lhu,
                6 => LoadOp::Lwu,
                _ => return None,
            };
            Inst::Load {
                op,
                rd: rd(raw),
                rs1: rs1(raw),
                imm: imm_i(raw),
            }
        }
        0b010_0011 => {
            let op = match funct3(raw) {
                0 => StoreOp::Sb,
                1 => StoreOp::Sh,
                2 => StoreOp::Sw,
                3 => StoreOp::Sd,
                _ => return None,
            };
            Inst::Store {
                op,
                rs1: rs1(raw),
                rs2: rs2(raw),
                imm: imm_s(raw),
            }
        }
        0b001_0011 => {
            let f3 = funct3(raw);
            let op = match f3 {
                0 => AluOp::Add,
                1 => AluOp::Sll,
                2 => AluOp::Slt,
                3 => AluOp::Sltu,
                4 => AluOp::Xor,
                5 => {
                    if funct7(raw) >> 1 == 0b01_0000 {
                        AluOp::Sra
                    } else {
                        AluOp::Srl
                    }
                }
                6 => AluOp::Or,
                7 => AluOp::And,
                _ => return None,
            };
            let imm = if matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                (raw as i64 >> 20) & 0x3f
            } else {
                imm_i(raw)
            };
            Inst::OpImm {
                op,
                rd: rd(raw),
                rs1: rs1(raw),
                imm,
            }
        }
        0b001_1011 => {
            let op = match funct3(raw) {
                0 => AluOp::Add,
                1 => AluOp::Sll,
                5 => {
                    if funct7(raw) == 0b010_0000 {
                        AluOp::Sra
                    } else {
                        AluOp::Srl
                    }
                }
                _ => return None,
            };
            let imm = if matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                ((raw >> 20) & 0x1f) as i64
            } else {
                imm_i(raw)
            };
            Inst::OpImm32 {
                op,
                rd: rd(raw),
                rs1: rs1(raw),
                imm,
            }
        }
        0b011_0011 => {
            let op = match (funct7(raw), funct3(raw)) {
                (0b000_0000, 0) => AluOp::Add,
                (0b010_0000, 0) => AluOp::Sub,
                (0b000_0000, 1) => AluOp::Sll,
                (0b000_0000, 2) => AluOp::Slt,
                (0b000_0000, 3) => AluOp::Sltu,
                (0b000_0000, 4) => AluOp::Xor,
                (0b000_0000, 5) => AluOp::Srl,
                (0b010_0000, 5) => AluOp::Sra,
                (0b000_0000, 6) => AluOp::Or,
                (0b000_0000, 7) => AluOp::And,
                (0b000_0001, 0) => AluOp::Mul,
                (0b000_0001, 1) => AluOp::Mulh,
                (0b000_0001, 2) => AluOp::Mulhsu,
                (0b000_0001, 3) => AluOp::Mulhu,
                (0b000_0001, 4) => AluOp::Div,
                (0b000_0001, 5) => AluOp::Divu,
                (0b000_0001, 6) => AluOp::Rem,
                (0b000_0001, 7) => AluOp::Remu,
                _ => return None,
            };
            Inst::Op {
                op,
                rd: rd(raw),
                rs1: rs1(raw),
                rs2: rs2(raw),
            }
        }
        0b011_1011 => {
            let op = match (funct7(raw), funct3(raw)) {
                (0b000_0000, 0) => AluOp::Add,
                (0b010_0000, 0) => AluOp::Sub,
                (0b000_0000, 1) => AluOp::Sll,
                (0b000_0000, 5) => AluOp::Srl,
                (0b010_0000, 5) => AluOp::Sra,
                (0b000_0001, 0) => AluOp::Mul,
                (0b000_0001, 4) => AluOp::Div,
                (0b000_0001, 5) => AluOp::Divu,
                (0b000_0001, 6) => AluOp::Rem,
                (0b000_0001, 7) => AluOp::Remu,
                _ => return None,
            };
            Inst::Op32 {
                op,
                rd: rd(raw),
                rs1: rs1(raw),
                rs2: rs2(raw),
            }
        }
        0b000_1111 => {
            if funct3(raw) == 1 {
                Inst::FenceI
            } else {
                Inst::Fence
            }
        }
        0b010_1111 => {
            let word = match funct3(raw) {
                2 => true,
                3 => false,
                _ => return None,
            };
            let funct5 = funct7(raw) >> 2;
            match funct5 {
                0b00010 => {
                    if rs2(raw) != 0 {
                        return None;
                    }
                    Inst::Lr {
                        rd: rd(raw),
                        rs1: rs1(raw),
                        word,
                    }
                }
                0b00011 => Inst::Sc {
                    rd: rd(raw),
                    rs1: rs1(raw),
                    rs2: rs2(raw),
                    word,
                },
                _ => {
                    let op = match funct5 {
                        0b00001 => AmoOp::Swap,
                        0b00000 => AmoOp::Add,
                        0b00100 => AmoOp::Xor,
                        0b01100 => AmoOp::And,
                        0b01000 => AmoOp::Or,
                        0b10000 => AmoOp::Min,
                        0b10100 => AmoOp::Max,
                        0b11000 => AmoOp::Minu,
                        0b11100 => AmoOp::Maxu,
                        _ => return None,
                    };
                    Inst::Amo {
                        op,
                        rd: rd(raw),
                        rs1: rs1(raw),
                        rs2: rs2(raw),
                        word,
                    }
                }
            }
        }
        0b111_0011 => {
            let f3 = funct3(raw);
            if f3 == 0 {
                match raw {
                    0x0000_0073 => Inst::Ecall,
                    0x0010_0073 => Inst::Ebreak,
                    0x3020_0073 => Inst::Mret,
                    0x1020_0073 => Inst::Sret,
                    0x1050_0073 => Inst::Wfi,
                    _ => {
                        if funct7(raw) == 0b000_1001 {
                            Inst::SfenceVma {
                                rs1: rs1(raw),
                                rs2: rs2(raw),
                            }
                        } else {
                            return None;
                        }
                    }
                }
            } else {
                let csr = (raw >> 20) as u16;
                let (op, src) = match f3 {
                    1 => (CsrOp::Rw, CsrSrc::Reg(rs1(raw))),
                    2 => (CsrOp::Rs, CsrSrc::Reg(rs1(raw))),
                    3 => (CsrOp::Rc, CsrSrc::Reg(rs1(raw))),
                    5 => (CsrOp::Rw, CsrSrc::Imm(rs1(raw))),
                    6 => (CsrOp::Rs, CsrSrc::Imm(rs1(raw))),
                    7 => (CsrOp::Rc, CsrSrc::Imm(rs1(raw))),
                    _ => return None,
                };
                Inst::Csr {
                    op,
                    rd: rd(raw),
                    csr,
                    src,
                }
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_addi() {
        // addi a0, a0, 1  => imm=1 rs1=10 f3=0 rd=10 opcode=0010011
        let raw = (1 << 20) | (10 << 15) | (10 << 7) | 0b001_0011;
        assert_eq!(
            decode(raw),
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                imm: 1
            })
        );
    }

    #[test]
    fn decode_negative_imm() {
        // addi a0, zero, -1
        let raw = (0xfffu32 << 20) | (10 << 7) | 0b001_0011;
        assert_eq!(
            decode(raw),
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 0,
                imm: -1
            })
        );
    }

    #[test]
    fn decode_system() {
        assert_eq!(decode(0x0000_0073), Some(Inst::Ecall));
        assert_eq!(decode(0x0010_0073), Some(Inst::Ebreak));
        assert_eq!(decode(0x3020_0073), Some(Inst::Mret));
        assert_eq!(decode(0x1020_0073), Some(Inst::Sret));
    }

    #[test]
    fn custom0_not_decoded() {
        assert_eq!(decode(OPCODE_CUSTOM0), None, "custom-0 is the extension's");
    }

    #[test]
    fn decode_branch_imm_sign() {
        // beq x0, x0, -4 : imm[12|10:5]=..., check via encoder in asm tests;
        // here just check a known encoding: 0xfe000ee3 is beq x0,x0,-4.
        match decode(0xfe00_0ee3) {
            Some(Inst::Branch {
                op: BranchOp::Eq,
                rs1: 0,
                rs2: 0,
                imm,
            }) => {
                assert_eq!(imm, -4)
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn decode_amo() {
        // amoswap.d a0, a1, (a2): funct5=00001 aq/rl=0 rs2=11 rs1=12 f3=3 rd=10
        let raw = (0b00001u32 << 27) | (11 << 20) | (12 << 15) | (3 << 12) | (10 << 7) | 0b010_1111;
        assert_eq!(
            decode(raw),
            Some(Inst::Amo {
                op: AmoOp::Swap,
                rd: 10,
                rs1: 12,
                rs2: 11,
                word: false
            })
        );
        // lr.w t0, (t1)
        let raw = (0b00010u32 << 27) | (6 << 15) | (2 << 12) | (5 << 7) | 0b010_1111;
        assert_eq!(
            decode(raw),
            Some(Inst::Lr {
                rd: 5,
                rs1: 6,
                word: true
            })
        );
    }

    #[test]
    fn decode_srai_shamt6() {
        // srai a0, a0, 40 (RV64 6-bit shamt): funct7(high)=0100000, shamt=40
        let raw =
            (0b010000u32 << 26) | (40 << 20) | (10 << 15) | (5 << 12) | (10 << 7) | 0b001_0011;
        assert_eq!(
            decode(raw),
            Some(Inst::OpImm {
                op: AluOp::Sra,
                rd: 10,
                rs1: 10,
                imm: 40
            })
        );
    }
}
