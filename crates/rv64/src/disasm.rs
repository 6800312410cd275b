//! Disassembler for traces and debugging: renders any instruction this
//! machine decodes (plus the XPC custom-0 space) in standard assembly
//! syntax.
//!
//! ```
//! use rv64::disasm::disasm;
//! // addi a0, a0, 1
//! assert_eq!(disasm(0x00150513), "addi a0, a0, 1");
//! ```

use crate::inst::{
    decode, AluOp, AmoOp, BranchOp, CsrOp, CsrSrc, Inst, LoadOp, StoreOp, OPCODE_CUSTOM0,
};
use crate::reg;

fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Sll => "sll",
        AluOp::Slt => "slt",
        AluOp::Sltu => "sltu",
        AluOp::Xor => "xor",
        AluOp::Srl => "srl",
        AluOp::Sra => "sra",
        AluOp::Or => "or",
        AluOp::And => "and",
        AluOp::Mul => "mul",
        AluOp::Mulh => "mulh",
        AluOp::Mulhsu => "mulhsu",
        AluOp::Mulhu => "mulhu",
        AluOp::Div => "div",
        AluOp::Divu => "divu",
        AluOp::Rem => "rem",
        AluOp::Remu => "remu",
    }
}

fn amo_name(op: AmoOp) -> &'static str {
    match op {
        AmoOp::Swap => "amoswap",
        AmoOp::Add => "amoadd",
        AmoOp::Xor => "amoxor",
        AmoOp::And => "amoand",
        AmoOp::Or => "amoor",
        AmoOp::Min => "amomin",
        AmoOp::Max => "amomax",
        AmoOp::Minu => "amominu",
        AmoOp::Maxu => "amomaxu",
    }
}

/// Render one instruction word.
pub fn disasm(raw: u32) -> String {
    if raw & 0x7f == OPCODE_CUSTOM0 {
        let rs1 = reg::name(((raw >> 15) & 31) as u8);
        return match (raw >> 12) & 7 {
            0 => format!("xcall {rs1}"),
            1 => "xret".to_string(),
            2 => format!("swapseg {rs1}"),
            _ => format!(".insn 0x{raw:08x} (custom-0)"),
        };
    }
    let Some(i) = decode(raw) else {
        return format!(".insn 0x{raw:08x}");
    };
    render(i)
}

/// Render a decoded instruction.
pub(crate) fn render(i: Inst) -> String {
    let r = reg::name;
    match i {
        Inst::Lui { rd, imm } => format!("lui {}, {:#x}", r(rd), (imm as u64 >> 12) & 0xfffff),
        Inst::Auipc { rd, imm } => {
            format!("auipc {}, {:#x}", r(rd), (imm as u64 >> 12) & 0xfffff)
        }
        Inst::Jal { rd, imm } => {
            if rd == 0 {
                format!("j {imm}")
            } else {
                format!("jal {}, {imm}", r(rd))
            }
        }
        Inst::Jalr { rd, rs1, imm } => {
            if rd == 0 && rs1 == reg::RA && imm == 0 {
                "ret".to_string()
            } else {
                format!("jalr {}, {imm}({})", r(rd), r(rs1))
            }
        }
        Inst::Branch { op, rs1, rs2, imm } => {
            let n = match op {
                BranchOp::Eq => "beq",
                BranchOp::Ne => "bne",
                BranchOp::Lt => "blt",
                BranchOp::Ge => "bge",
                BranchOp::Ltu => "bltu",
                BranchOp::Geu => "bgeu",
            };
            format!("{n} {}, {}, {imm}", r(rs1), r(rs2))
        }
        Inst::Load { op, rd, rs1, imm } => {
            let n = match op {
                LoadOp::Lb => "lb",
                LoadOp::Lh => "lh",
                LoadOp::Lw => "lw",
                LoadOp::Ld => "ld",
                LoadOp::Lbu => "lbu",
                LoadOp::Lhu => "lhu",
                LoadOp::Lwu => "lwu",
            };
            format!("{n} {}, {imm}({})", r(rd), r(rs1))
        }
        Inst::Store { op, rs1, rs2, imm } => {
            let n = match op {
                StoreOp::Sb => "sb",
                StoreOp::Sh => "sh",
                StoreOp::Sw => "sw",
                StoreOp::Sd => "sd",
            };
            format!("{n} {}, {imm}({})", r(rs2), r(rs1))
        }
        Inst::OpImm { op, rd, rs1, imm } => {
            if op == AluOp::Add && rs1 == 0 {
                return format!("li {}, {imm}", r(rd));
            }
            if op == AluOp::Add && imm == 0 {
                return format!("mv {}, {}", r(rd), r(rs1));
            }
            let n = match op {
                AluOp::Sll => "slli",
                AluOp::Srl => "srli",
                AluOp::Sra => "srai",
                AluOp::Add => "addi",
                AluOp::Slt => "slti",
                AluOp::Sltu => "sltiu",
                AluOp::Xor => "xori",
                AluOp::Or => "ori",
                AluOp::And => "andi",
                _ => "op?i",
            };
            format!("{n} {}, {}, {imm}", r(rd), r(rs1))
        }
        Inst::OpImm32 { op, rd, rs1, imm } => {
            let n = match op {
                AluOp::Add => "addiw",
                AluOp::Sll => "slliw",
                AluOp::Srl => "srliw",
                AluOp::Sra => "sraiw",
                _ => "op?iw",
            };
            format!("{n} {}, {}, {imm}", r(rd), r(rs1))
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            format!("{} {}, {}, {}", alu_name(op), r(rd), r(rs1), r(rs2))
        }
        Inst::Op32 { op, rd, rs1, rs2 } => {
            format!("{}w {}, {}, {}", alu_name(op), r(rd), r(rs1), r(rs2))
        }
        Inst::Fence => "fence".to_string(),
        Inst::FenceI => "fence.i".to_string(),
        Inst::Ecall => "ecall".to_string(),
        Inst::Ebreak => "ebreak".to_string(),
        Inst::Mret => "mret".to_string(),
        Inst::Sret => "sret".to_string(),
        Inst::Wfi => "wfi".to_string(),
        Inst::SfenceVma { rs1, rs2 } => format!("sfence.vma {}, {}", r(rs1), r(rs2)),
        Inst::Csr { op, rd, csr, src } => {
            let (n, s) = match (op, src) {
                (CsrOp::Rw, CsrSrc::Reg(v)) => ("csrrw", r(v).to_string()),
                (CsrOp::Rs, CsrSrc::Reg(v)) => ("csrrs", r(v).to_string()),
                (CsrOp::Rc, CsrSrc::Reg(v)) => ("csrrc", r(v).to_string()),
                (CsrOp::Rw, CsrSrc::Imm(v)) => ("csrrwi", v.to_string()),
                (CsrOp::Rs, CsrSrc::Imm(v)) => ("csrrsi", v.to_string()),
                (CsrOp::Rc, CsrSrc::Imm(v)) => ("csrrci", v.to_string()),
            };
            format!("{n} {}, {csr:#x}, {s}", r(rd))
        }
        Inst::Lr { rd, rs1, word } => {
            format!(
                "lr.{} {}, ({})",
                if word { "w" } else { "d" },
                r(rd),
                r(rs1)
            )
        }
        Inst::Sc { rd, rs1, rs2, word } => format!(
            "sc.{} {}, {}, ({})",
            if word { "w" } else { "d" },
            r(rd),
            r(rs2),
            r(rs1)
        ),
        Inst::Amo {
            op,
            rd,
            rs1,
            rs2,
            word,
        } => format!(
            "{}.{} {}, {}, ({})",
            amo_name(op),
            if word { "w" } else { "d" },
            r(rd),
            r(rs2),
            r(rs1)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assembler;

    #[test]
    fn common_instructions_round_trip() {
        let mut a = Assembler::new(0);
        a.addi(reg::A0, reg::A0, 1);
        a.ld(reg::T0, reg::SP, -16);
        a.sd(reg::T1, reg::A1, 8);
        a.ebreak();
        a.amoswap_d(reg::T5, reg::T5, reg::T4);
        let w = a.assemble();
        assert_eq!(disasm(w[0]), "addi a0, a0, 1");
        assert_eq!(disasm(w[1]), "ld t0, -16(sp)");
        assert_eq!(disasm(w[2]), "sd t1, 8(a1)");
        assert_eq!(disasm(w[3]), "ebreak");
        assert_eq!(disasm(w[4]), "amoswap.d t5, t5, (t4)");
    }

    #[test]
    fn pseudo_forms_render() {
        let mut a = Assembler::new(0);
        a.li(reg::A0, 5);
        a.mv(reg::A1, reg::A0);
        a.ret();
        let w = a.assemble();
        assert_eq!(disasm(w[0]), "li a0, 5");
        assert_eq!(disasm(w[1]), "mv a1, a0");
        assert_eq!(disasm(w[2]), "ret");
    }

    #[test]
    fn custom0_renders_xpc_names() {
        // These encodings mirror xpc-engine's asm_ext (kept in sync by the
        // funct3 assignments documented there).
        assert_eq!(disasm(0b000_1011 | (10 << 15)), "xcall a0");
        assert_eq!(disasm(0b000_1011 | (1 << 12)), "xret");
        assert_eq!(disasm(0b000_1011 | (2 << 12) | (11 << 15)), "swapseg a1");
    }

    #[test]
    fn unknown_renders_as_raw() {
        assert!(disasm(0xffff_ffff).starts_with(".insn"));
    }
}
