//! A small RV64 assembler for building guest programs in tests, examples
//! and benchmarks.
//!
//! Supports forward references through string labels, the usual pseudo
//! instructions (`li`, `mv`, `j`, `ret`, `csrr`/`csrw`, ...) and raw word
//! emission for extension instructions (the XPC engine exposes its
//! `xcall`/`xret`/`swapseg` encoders on top of [`Assembler::raw`]).
//!
//! # Example
//!
//! ```
//! use rv64::{Assembler, reg};
//! let mut a = Assembler::new(0x8000_0000);
//! a.li(reg::A0, 10);
//! a.label("loop");
//! a.addi(reg::A0, reg::A0, -1);
//! a.bne(reg::A0, reg::ZERO, "loop");
//! a.ebreak();
//! let words = a.assemble();
//! assert_eq!(words.len(), 4);
//! ```

use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
enum FixKind {
    Branch,
    Jal,
}

/// Incremental assembler; see the [module docs](self).
#[derive(Debug)]
pub struct Assembler {
    base: u64,
    words: Vec<u32>,
    labels: HashMap<String, u64>,
    fixups: Vec<(usize, String, FixKind)>,
}

fn rtype(funct7: u32, rs2: u8, rs1: u8, funct3: u32, rd: u8, opcode: u32) -> u32 {
    (funct7 << 25)
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((rd as u32) << 7)
        | opcode
}

fn itype(imm: i64, rs1: u8, funct3: u32, rd: u8, opcode: u32) -> u32 {
    assert!((-2048..=2047).contains(&imm), "I-imm out of range: {imm}");
    (((imm as u32) & 0xfff) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((rd as u32) << 7)
        | opcode
}

fn stype(imm: i64, rs2: u8, rs1: u8, funct3: u32, opcode: u32) -> u32 {
    assert!((-2048..=2047).contains(&imm), "S-imm out of range: {imm}");
    let imm = imm as u32 & 0xfff;
    ((imm >> 5) << 25)
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((imm & 31) << 7)
        | opcode
}

fn btype(imm: i64, rs2: u8, rs1: u8, funct3: u32, opcode: u32) -> u32 {
    assert!(
        (-4096..=4094).contains(&imm) && imm % 2 == 0,
        "B-imm out of range: {imm}"
    );
    let imm = imm as u32 & 0x1fff;
    (((imm >> 12) & 1) << 31)
        | (((imm >> 5) & 0x3f) << 25)
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | (((imm >> 1) & 0xf) << 8)
        | (((imm >> 11) & 1) << 7)
        | opcode
}

fn utype(imm: i64, rd: u8, opcode: u32) -> u32 {
    ((imm as u32) & 0xffff_f000) | ((rd as u32) << 7) | opcode
}

fn jtype(imm: i64, rd: u8, opcode: u32) -> u32 {
    assert!(
        (-(1 << 20)..(1 << 20)).contains(&imm) && imm % 2 == 0,
        "J-imm out of range: {imm}"
    );
    let imm = imm as u32 & 0x1f_ffff;
    (((imm >> 20) & 1) << 31)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 12) & 0xff) << 12)
        | ((rd as u32) << 7)
        | opcode
}

impl Assembler {
    /// Start assembling at virtual/physical address `base`.
    pub fn new(base: u64) -> Self {
        Assembler {
            base,
            words: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
        }
    }

    /// Current emission address.
    pub fn here(&self) -> u64 {
        self.base + 4 * self.words.len() as u64
    }

    /// Define `name` at the current address.
    ///
    /// # Panics
    ///
    /// Panics on duplicate label definitions.
    pub fn label(&mut self, name: &str) -> u64 {
        let addr = self.here();
        let prev = self.labels.insert(name.to_string(), addr);
        assert!(prev.is_none(), "duplicate label {name}");
        addr
    }

    /// Emit a raw instruction word (extension encodings).
    pub fn raw(&mut self, word: u32) {
        self.words.push(word);
    }

    /// Resolve fixups and return the instruction words.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never defined.
    pub fn assemble(mut self) -> Vec<u32> {
        for (idx, name, kind) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&name)
                .unwrap_or_else(|| panic!("undefined label {name}"));
            let pc = self.base + 4 * idx as u64;
            let off = target as i64 - pc as i64;
            let old = self.words[idx];
            self.words[idx] = match kind {
                FixKind::Branch => {
                    let rs2 = ((old >> 20) & 31) as u8;
                    let rs1 = ((old >> 15) & 31) as u8;
                    let f3 = (old >> 12) & 7;
                    btype(off, rs2, rs1, f3, 0b110_0011)
                }
                FixKind::Jal => {
                    let rd = ((old >> 7) & 31) as u8;
                    jtype(off, rd, 0b110_1111)
                }
            };
        }
        self.words
    }

    // ---- U/J types ----

    /// `lui rd, imm` (imm is the full 32-bit value whose low 12 bits are 0).
    pub fn lui(&mut self, rd: u8, imm: i64) {
        self.raw(utype(imm, rd, 0b011_0111));
    }

    /// `auipc rd, imm`.
    pub fn auipc(&mut self, rd: u8, imm: i64) {
        self.raw(utype(imm, rd, 0b001_0111));
    }

    /// `jal rd, label`.
    pub(crate) fn jal(&mut self, rd: u8, label: &str) {
        self.fixups
            .push((self.words.len(), label.to_string(), FixKind::Jal));
        self.raw(jtype(0, rd, 0b110_1111));
    }

    /// `j label` (pseudo).
    pub fn j(&mut self, label: &str) {
        self.jal(0, label);
    }

    /// `jalr rd, imm(rs1)`.
    pub fn jalr(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 0, rd, 0b110_0111));
    }

    /// `ret` (pseudo: `jalr zero, 0(ra)`).
    pub fn ret(&mut self) {
        self.jalr(0, 1, 0);
    }

    // ---- branches ----

    fn branch(&mut self, f3: u32, rs1: u8, rs2: u8, label: &str) {
        self.fixups
            .push((self.words.len(), label.to_string(), FixKind::Branch));
        self.raw(btype(0, rs2, rs1, f3, 0b110_0011));
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: u8, rs2: u8, label: &str) {
        self.branch(0, rs1, rs2, label);
    }
    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: u8, rs2: u8, label: &str) {
        self.branch(1, rs1, rs2, label);
    }
    /// `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: u8, rs2: u8, label: &str) {
        self.branch(4, rs1, rs2, label);
    }
    /// `bge rs1, rs2, label`.
    pub fn bge(&mut self, rs1: u8, rs2: u8, label: &str) {
        self.branch(5, rs1, rs2, label);
    }
    /// `bltu rs1, rs2, label`.
    pub fn bltu(&mut self, rs1: u8, rs2: u8, label: &str) {
        self.branch(6, rs1, rs2, label);
    }
    /// `bgeu rs1, rs2, label`.
    pub fn bgeu(&mut self, rs1: u8, rs2: u8, label: &str) {
        self.branch(7, rs1, rs2, label);
    }

    // ---- loads/stores ----

    /// `lb rd, imm(rs1)`.
    pub fn lb(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 0, rd, 0b000_0011));
    }
    /// `lh rd, imm(rs1)`.
    pub fn lh(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 1, rd, 0b000_0011));
    }
    /// `lw rd, imm(rs1)`.
    pub fn lw(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 2, rd, 0b000_0011));
    }
    /// `ld rd, imm(rs1)`.
    pub fn ld(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 3, rd, 0b000_0011));
    }
    /// `lbu rd, imm(rs1)`.
    pub fn lbu(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 4, rd, 0b000_0011));
    }
    /// `lhu rd, imm(rs1)`.
    pub fn lhu(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 5, rd, 0b000_0011));
    }
    /// `lwu rd, imm(rs1)`.
    pub fn lwu(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 6, rd, 0b000_0011));
    }
    /// `sb rs2, imm(rs1)`.
    pub fn sb(&mut self, rs2: u8, rs1: u8, imm: i64) {
        self.raw(stype(imm, rs2, rs1, 0, 0b010_0011));
    }
    /// `sh rs2, imm(rs1)`.
    pub fn sh(&mut self, rs2: u8, rs1: u8, imm: i64) {
        self.raw(stype(imm, rs2, rs1, 1, 0b010_0011));
    }
    /// `sw rs2, imm(rs1)`.
    pub fn sw(&mut self, rs2: u8, rs1: u8, imm: i64) {
        self.raw(stype(imm, rs2, rs1, 2, 0b010_0011));
    }
    /// `sd rs2, imm(rs1)`.
    pub fn sd(&mut self, rs2: u8, rs1: u8, imm: i64) {
        self.raw(stype(imm, rs2, rs1, 3, 0b010_0011));
    }

    // ---- ALU immediate ----

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 0, rd, 0b001_0011));
    }
    /// `slti rd, rs1, imm`.
    pub fn slti(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 2, rd, 0b001_0011));
    }
    /// `sltiu rd, rs1, imm`.
    pub fn sltiu(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 3, rd, 0b001_0011));
    }
    /// `xori rd, rs1, imm`.
    pub fn xori(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 4, rd, 0b001_0011));
    }
    /// `ori rd, rs1, imm`.
    pub fn ori(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 6, rd, 0b001_0011));
    }
    /// `andi rd, rs1, imm`.
    pub fn andi(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 7, rd, 0b001_0011));
    }
    /// `slli rd, rs1, shamt` (0..=63).
    pub fn slli(&mut self, rd: u8, rs1: u8, shamt: u8) {
        assert!(shamt < 64);
        self.raw(itype(shamt as i64, rs1, 1, rd, 0b001_0011));
    }
    /// `srli rd, rs1, shamt` (0..=63).
    pub fn srli(&mut self, rd: u8, rs1: u8, shamt: u8) {
        assert!(shamt < 64);
        self.raw(itype(shamt as i64, rs1, 5, rd, 0b001_0011));
    }
    /// `srai rd, rs1, shamt` (0..=63).
    pub fn srai(&mut self, rd: u8, rs1: u8, shamt: u8) {
        assert!(shamt < 64);
        self.raw(itype(shamt as i64 | 0x400, rs1, 5, rd, 0b001_0011));
    }
    /// `addiw rd, rs1, imm`.
    pub fn addiw(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.raw(itype(imm, rs1, 0, rd, 0b001_1011));
    }

    // ---- ALU register ----

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0, rs2, rs1, 0, rd, 0b011_0011));
    }
    /// `sub rd, rs1, rs2`.
    pub fn sub(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0b010_0000, rs2, rs1, 0, rd, 0b011_0011));
    }
    /// `sll rd, rs1, rs2`.
    pub fn sll(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0, rs2, rs1, 1, rd, 0b011_0011));
    }
    /// `slt rd, rs1, rs2`.
    pub fn slt(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0, rs2, rs1, 2, rd, 0b011_0011));
    }
    /// `sltu rd, rs1, rs2`.
    pub fn sltu(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0, rs2, rs1, 3, rd, 0b011_0011));
    }
    /// `xor rd, rs1, rs2`.
    pub fn xor(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0, rs2, rs1, 4, rd, 0b011_0011));
    }
    /// `srl rd, rs1, rs2`.
    pub fn srl(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0, rs2, rs1, 5, rd, 0b011_0011));
    }
    /// `sra rd, rs1, rs2`.
    pub fn sra(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0b010_0000, rs2, rs1, 5, rd, 0b011_0011));
    }
    /// `or rd, rs1, rs2`.
    pub fn or(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0, rs2, rs1, 6, rd, 0b011_0011));
    }
    /// `and rd, rs1, rs2`.
    pub fn and(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(0, rs2, rs1, 7, rd, 0b011_0011));
    }
    /// `mul rd, rs1, rs2`.
    pub fn mul(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(1, rs2, rs1, 0, rd, 0b011_0011));
    }
    /// `divu rd, rs1, rs2`.
    pub fn divu(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(1, rs2, rs1, 5, rd, 0b011_0011));
    }
    /// `remu rd, rs1, rs2`.
    pub fn remu(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.raw(rtype(1, rs2, rs1, 7, rd, 0b011_0011));
    }

    // ---- RV64A atomics ----

    fn amo_encode(&mut self, funct5: u32, rd: u8, rs1: u8, rs2: u8, word: bool) {
        let f3 = if word { 2 } else { 3 };
        self.raw(
            (funct5 << 27)
                | ((rs2 as u32) << 20)
                | ((rs1 as u32) << 15)
                | (f3 << 12)
                | ((rd as u32) << 7)
                | 0b010_1111,
        );
    }

    /// `lr.d rd, (rs1)`.
    pub fn lr_d(&mut self, rd: u8, rs1: u8) {
        self.amo_encode(0b00010, rd, rs1, 0, false);
    }
    /// `lr.w rd, (rs1)`.
    pub fn lr_w(&mut self, rd: u8, rs1: u8) {
        self.amo_encode(0b00010, rd, rs1, 0, true);
    }
    /// `sc.d rd, rs2, (rs1)`.
    pub fn sc_d(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.amo_encode(0b00011, rd, rs1, rs2, false);
    }
    /// `sc.w rd, rs2, (rs1)`.
    pub fn sc_w(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.amo_encode(0b00011, rd, rs1, rs2, true);
    }
    /// `amoswap.d rd, rs2, (rs1)`.
    pub fn amoswap_d(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.amo_encode(0b00001, rd, rs1, rs2, false);
    }
    /// `amoadd.d rd, rs2, (rs1)`.
    pub fn amoadd_d(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.amo_encode(0b00000, rd, rs1, rs2, false);
    }
    /// `amoadd.w rd, rs2, (rs1)`.
    pub fn amoadd_w(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.amo_encode(0b00000, rd, rs1, rs2, true);
    }
    /// `amoor.d rd, rs2, (rs1)`.
    pub fn amoor_d(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.amo_encode(0b01000, rd, rs1, rs2, false);
    }
    /// `amoand.d rd, rs2, (rs1)`.
    pub fn amoand_d(&mut self, rd: u8, rs2: u8, rs1: u8) {
        self.amo_encode(0b01100, rd, rs1, rs2, false);
    }

    // ---- system ----

    /// `ecall`.
    pub fn ecall(&mut self) {
        self.raw(0x0000_0073);
    }
    /// `ebreak`.
    pub fn ebreak(&mut self) {
        self.raw(0x0010_0073);
    }
    /// `mret`.
    pub fn mret(&mut self) {
        self.raw(0x3020_0073);
    }
    /// `sret`.
    pub fn sret(&mut self) {
        self.raw(0x1020_0073);
    }
    /// `wfi`.
    pub fn wfi(&mut self) {
        self.raw(0x1050_0073);
    }
    /// `sfence.vma rs1, rs2`.
    pub fn sfence_vma(&mut self, rs1: u8, rs2: u8) {
        self.raw(rtype(0b000_1001, rs2, rs1, 0, 0, 0b111_0011));
    }
    /// `fence`.
    pub fn fence(&mut self) {
        self.raw(0x0ff0_000f);
    }

    /// `csrrw rd, csr, rs1`.
    pub fn csrrw(&mut self, rd: u8, csr: u16, rs1: u8) {
        self.raw(
            ((csr as u32) << 20)
                | ((rs1 as u32) << 15)
                | (1 << 12)
                | ((rd as u32) << 7)
                | 0b111_0011,
        );
    }
    /// `csrrs rd, csr, rs1`.
    pub fn csrrs(&mut self, rd: u8, csr: u16, rs1: u8) {
        self.raw(
            ((csr as u32) << 20)
                | ((rs1 as u32) << 15)
                | (2 << 12)
                | ((rd as u32) << 7)
                | 0b111_0011,
        );
    }
    /// `csrrc rd, csr, rs1`.
    pub fn csrrc(&mut self, rd: u8, csr: u16, rs1: u8) {
        self.raw(
            ((csr as u32) << 20)
                | ((rs1 as u32) << 15)
                | (3 << 12)
                | ((rd as u32) << 7)
                | 0b111_0011,
        );
    }
    /// `csrr rd, csr` (pseudo).
    pub fn csrr(&mut self, rd: u8, csr: u16) {
        self.csrrs(rd, csr, 0);
    }
    /// `csrw csr, rs1` (pseudo).
    pub fn csrw(&mut self, csr: u16, rs1: u8) {
        self.csrrw(0, csr, rs1);
    }

    // ---- pseudos ----

    /// `nop`.
    pub fn nop(&mut self) {
        self.addi(0, 0, 0);
    }

    /// `mv rd, rs` (pseudo).
    pub fn mv(&mut self, rd: u8, rs: u8) {
        self.addi(rd, rs, 0);
    }

    /// Load an arbitrary 64-bit constant into `rd` (expands to up to 8
    /// instructions; small constants use short forms).
    pub fn li(&mut self, rd: u8, value: i64) {
        if (-2048..=2047).contains(&value) {
            self.addi(rd, 0, value);
            return;
        }
        if value == value as i32 as i64 {
            // lui+addi pair; adjust for addi's sign extension.
            let lo = (value << 52) >> 52; // low 12 bits sign-extended
            let hi = value.wrapping_sub(lo) & 0xffff_f000;
            self.lui(rd, hi as i32 as i64);
            if lo != 0 {
                self.addiw(rd, rd, lo);
            }
            return;
        }
        // General 64-bit: classic shift-or expansion. Seed with the signed
        // top 12 bits, then fold in 11-bit chunks (always non-negative, so
        // `ori`'s sign extension never fires) and a final 8-bit chunk:
        // 12 + 11*4 + 8 = 64.
        self.addi(rd, 0, value >> 52);
        for (shift, width) in [(41u8, 11u8), (30, 11), (19, 11), (8, 11), (0, 8)] {
            let chunk = ((value >> shift) as u64 & ((1 << width) - 1)) as i64;
            self.slli(rd, rd, width);
            if chunk != 0 {
                self.ori(rd, rd, chunk);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{decode, AluOp, Inst};

    #[test]
    fn label_fixup_backward_and_forward() {
        let mut a = Assembler::new(0x1000);
        a.j("end"); // forward
        a.label("mid");
        a.nop();
        a.label("end");
        a.beq(0, 0, "mid"); // backward
        let w = a.assemble();
        match decode(w[0]).unwrap() {
            Inst::Jal { rd: 0, imm } => assert_eq!(imm, 8),
            other => panic!("{other:?}"),
        }
        match decode(w[2]).unwrap() {
            Inst::Branch { imm, .. } => assert_eq!(imm, -4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut a = Assembler::new(0);
        a.j("nowhere");
        let _ = a.assemble();
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = Assembler::new(0);
        a.label("x");
        a.label("x");
    }

    #[test]
    fn store_encoding_round_trips() {
        let mut a = Assembler::new(0);
        a.sd(5, 2, -16);
        let w = a.assemble();
        match decode(w[0]).unwrap() {
            Inst::Store {
                rs1: 2,
                rs2: 5,
                imm,
                ..
            } => assert_eq!(imm, -16),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn li_small() {
        let mut a = Assembler::new(0);
        a.li(10, -5);
        let w = a.assemble();
        assert_eq!(w.len(), 1);
        match decode(w[0]).unwrap() {
            Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 0,
                imm,
            } => assert_eq!(imm, -5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn csr_pseudos_decode() {
        let mut a = Assembler::new(0);
        a.csrr(10, 0x342);
        a.csrw(0x305, 11);
        let w = a.assemble();
        assert!(matches!(decode(w[0]), Some(Inst::Csr { .. })));
        assert!(matches!(decode(w[1]), Some(Inst::Csr { .. })));
    }
}
