//! Property test: every encoder the assembler offers produces a word the
//! decoder accepts (no encoder/decoder drift), checked over random
//! operands via execution-free decoding, on the in-tree harness
//! `ycsb::check`.

use rv64::inst::decode;
use rv64::Assembler;
use ycsb::{check, Rng};

/// A draw from `lo..hi` whose span the harness's `size` caps.
fn range(rng: &mut Rng, size: u64, lo: u64, hi: u64) -> u64 {
    lo + rng.below((hi - lo).min(size))
}

#[test]
fn every_encoder_decodes() {
    check(
        "every_encoder_decodes",
        500,
        &[],
        |rng, size| {
            let mut reg = || range(rng, size, 0, 32) as u8;
            let (rd, rs1, rs2) = (reg(), reg(), reg());
            // -2048..2048, shrinking toward 0 (`-m - 1` covers the negatives).
            let m = range(rng, size, 0, 2048) as i64;
            let imm = if rng.below(2) == 1 { -m - 1 } else { m };
            (rd, rs1, rs2, imm, range(rng, size, 0, 64) as u8)
        },
        |&(rd, rs1, rs2, imm, shamt)| {
            let aligned = imm & !1;
            let mut a = Assembler::new(0x1000);
            // Emit one of everything (labels for the branch family).
            a.label("top");
            a.lui(rd, imm << 12);
            a.auipc(rd, imm << 12);
            a.jalr(rd, rs1, imm);
            a.beq(rs1, rs2, "top");
            a.bne(rs1, rs2, "top");
            a.blt(rs1, rs2, "top");
            a.bge(rs1, rs2, "top");
            a.bltu(rs1, rs2, "top");
            a.bgeu(rs1, rs2, "top");
            a.lb(rd, rs1, imm);
            a.lh(rd, rs1, aligned);
            a.lw(rd, rs1, imm);
            a.ld(rd, rs1, imm);
            a.lbu(rd, rs1, imm);
            a.lhu(rd, rs1, imm);
            a.lwu(rd, rs1, imm);
            a.sb(rs2, rs1, imm);
            a.sh(rs2, rs1, imm);
            a.sw(rs2, rs1, imm);
            a.sd(rs2, rs1, imm);
            a.addi(rd, rs1, imm);
            a.slti(rd, rs1, imm);
            a.sltiu(rd, rs1, imm);
            a.xori(rd, rs1, imm);
            a.ori(rd, rs1, imm);
            a.andi(rd, rs1, imm);
            a.slli(rd, rs1, shamt);
            a.srli(rd, rs1, shamt);
            a.srai(rd, rs1, shamt);
            a.addiw(rd, rs1, imm);
            a.add(rd, rs1, rs2);
            a.sub(rd, rs1, rs2);
            a.sll(rd, rs1, rs2);
            a.slt(rd, rs1, rs2);
            a.sltu(rd, rs1, rs2);
            a.xor(rd, rs1, rs2);
            a.srl(rd, rs1, rs2);
            a.sra(rd, rs1, rs2);
            a.or(rd, rs1, rs2);
            a.and(rd, rs1, rs2);
            a.mul(rd, rs1, rs2);
            a.divu(rd, rs1, rs2);
            a.remu(rd, rs1, rs2);
            a.lr_d(rd, rs1);
            a.lr_w(rd, rs1);
            a.sc_d(rd, rs2, rs1);
            a.sc_w(rd, rs2, rs1);
            a.amoswap_d(rd, rs2, rs1);
            a.amoadd_d(rd, rs2, rs1);
            a.amoadd_w(rd, rs2, rs1);
            a.amoor_d(rd, rs2, rs1);
            a.amoand_d(rd, rs2, rs1);
            a.ecall();
            a.ebreak();
            a.mret();
            a.sret();
            a.wfi();
            a.sfence_vma(rs1, rs2);
            a.fence();
            a.csrrw(rd, 0x340, rs1);
            a.csrrs(rd, 0x340, rs1);
            a.csrrc(rd, 0x340, rs1);
            match a
                .assemble()
                .into_iter()
                .enumerate()
                .find(|&(_, w)| decode(w).is_none())
            {
                Some((i, word)) => Err(format!("word #{i} ({word:#010x}) failed to decode")),
                None => Ok(()),
            }
        },
    );
}

/// Disassembly never panics and never returns an empty string for
/// arbitrary 32-bit words.
#[test]
fn disasm_total() {
    check(
        "disasm_total",
        2000,
        &[],
        |rng, size| range(rng, size, 0, 1 << 32) as u32,
        |&word| {
            if rv64::disasm::disasm(word).is_empty() {
                Err("empty disassembly".into())
            } else {
                Ok(())
            }
        },
    );
}
