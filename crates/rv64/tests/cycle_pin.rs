//! Cycle-exact pin of four guest kernels on both platform presets.
//!
//! A change meant only to speed up the interpreter must leave every
//! simulated statistic identical. The literals of the first three
//! kernels were captured on the commit *before* the fetch → decode →
//! execute fast path landed, those of the address-space switch kernel on
//! the commit before the translation fast path (the page memo in front
//! of `Mmu::translate`); they move only when the timing model itself is
//! changed on purpose.

use rv64::csr::addr as csr;
use rv64::mem::DRAM_BASE;
use rv64::mmu::SegWindow;
use rv64::tlb::pte;
use rv64::{reg, Assembler, Exit, Machine, MachineConfig};

/// Everything the timing model counts.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    instret: u64,
    icache: (u64, u64),
    dcache: (u64, u64),
    /// TLB hits, misses, flushes.
    tlb: (u64, u64, u64),
    walks: u64,
}

fn run_to_break(m: &mut Machine) -> Pin {
    let r = m.run(10_000_000).expect("no sim error");
    assert_eq!(r.exit, Exit::Break, "kernel ends at its ebreak");
    let c = &m.core;
    assert_eq!((r.cycles, r.instret), (c.cycles, c.instret));
    Pin {
        cycles: c.cycles,
        instret: c.instret,
        icache: (c.icache.hits, c.icache.misses),
        dcache: (c.dcache.hits, c.dcache.misses),
        tlb: (c.mmu.tlb.hits, c.mmu.tlb.misses, c.mmu.tlb.flushes),
        walks: c.mmu.walks,
    }
}

/// The `guest_alu` loop shape: ALU / `mul` / branch, one `ld` + `sd` per
/// iteration into a 2 KiB buffer.
fn alu(cfg: MachineConfig) -> Pin {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(reg::S0, (DRAM_BASE + 0x1_0000) as i64);
    a.li(reg::S2, 6_364_136_223_846_793_005u64 as i64);
    a.li(reg::A0, 12345);
    a.li(reg::S1, 20_000);
    a.label("loop");
    a.mul(reg::A0, reg::A0, reg::S2);
    a.addi(reg::A0, reg::A0, 1);
    a.srli(reg::T0, reg::A0, 33);
    a.andi(reg::T0, reg::T0, 0x7f8);
    a.add(reg::T1, reg::S0, reg::T0);
    a.ld(reg::T2, reg::T1, 0);
    a.xor(reg::T2, reg::T2, reg::A0);
    a.add(reg::A1, reg::A1, reg::T2);
    a.sd(reg::A1, reg::T1, 0);
    a.andi(reg::T3, reg::A0, 64);
    a.beq(reg::T3, reg::ZERO, "skip");
    a.slli(reg::T3, reg::A1, 7);
    a.xor(reg::A1, reg::A1, reg::T3);
    a.label("skip");
    a.addi(reg::S1, reg::S1, -1);
    a.bne(reg::S1, reg::ZERO, "loop");
    a.ebreak();
    let mut m = Machine::new(cfg);
    m.load_program(&a.assemble());
    run_to_break(&mut m)
}

/// Two passes of one `ld` per 64 B line over 1 MiB: every load a miss.
fn sweep(cfg: MachineConfig) -> Pin {
    let buf = DRAM_BASE + 0x10_0000;
    let mut a = Assembler::new(DRAM_BASE);
    a.li(reg::S0, buf as i64);
    a.li(reg::S3, (buf + (1 << 20)) as i64);
    a.li(reg::S1, 2);
    a.label("pass");
    a.mv(reg::T1, reg::S0);
    a.label("loop");
    a.ld(reg::T2, reg::T1, 0);
    a.add(reg::A1, reg::A1, reg::T2);
    a.addi(reg::T1, reg::T1, 64);
    a.bltu(reg::T1, reg::S3, "loop");
    a.addi(reg::S1, reg::S1, -1);
    a.bne(reg::S1, reg::ZERO, "pass");
    a.ebreak();
    let mut m = Machine::new(cfg);
    m.load_program(&a.assemble());
    run_to_break(&mut m)
}

/// A U-mode loop under Sv39 over two data pages. Its first `ecall` has
/// the M-mode handler rewrite `satp` (a TLB flush on the untagged
/// presets) and return; the second ends the run.
fn sv39(cfg: MachineConfig) -> Pin {
    const HANDLER: u64 = DRAM_BASE + 0x1000;
    const CODE_PA: u64 = DRAM_BASE + 0x1_0000;
    const DATA_PA: u64 = DRAM_BASE + 0x20_0000;
    const TABLES: u64 = DRAM_BASE + 0x10_0000;
    const CODE_VA: u64 = 0x1_0000;
    const DATA_VA: u64 = 0x4000_0000;
    let satp = (8 << 60) | (1 << 44) | (TABLES >> 12);

    let mut boot = Assembler::new(DRAM_BASE);
    boot.li(reg::T0, HANDLER as i64);
    boot.csrw(csr::MTVEC, reg::T0);
    boot.li(reg::T0, satp as i64);
    boot.csrw(csr::SATP, reg::T0);
    boot.li(reg::T0, CODE_VA as i64);
    boot.csrw(csr::MEPC, reg::T0);
    boot.mret(); // MPP is User after reset

    let mut h = Assembler::new(HANDLER);
    h.bne(reg::S5, reg::ZERO, "done");
    h.li(reg::S5, 1);
    h.csrr(reg::T0, csr::SATP);
    h.csrw(csr::SATP, reg::T0);
    h.csrr(reg::T0, csr::MEPC);
    h.addi(reg::T0, reg::T0, 4);
    h.csrw(csr::MEPC, reg::T0);
    h.mret();
    h.label("done");
    h.ebreak();

    let mut u = Assembler::new(CODE_VA);
    u.li(reg::S0, DATA_VA as i64);
    u.li(reg::S3, (DATA_VA + 8192) as i64);
    u.li(reg::S4, 2);
    u.label("half");
    u.li(reg::S1, 5_000);
    u.mv(reg::T1, reg::S0);
    u.label("loop");
    u.ld(reg::T2, reg::T1, 0);
    u.add(reg::A1, reg::A1, reg::T2);
    u.sd(reg::A1, reg::T1, 0);
    u.addi(reg::T1, reg::T1, 8);
    u.bltu(reg::T1, reg::S3, "next");
    u.mv(reg::T1, reg::S0);
    u.label("next");
    u.addi(reg::S1, reg::S1, -1);
    u.bne(reg::S1, reg::ZERO, "loop");
    u.ecall();
    u.addi(reg::S4, reg::S4, -1);
    u.bne(reg::S4, reg::ZERO, "half");

    let mut m = Machine::new(cfg);
    m.load_program(&boot.assemble());
    m.load_program_at(HANDLER, &h.assemble());
    m.load_program_at(CODE_PA, &u.assemble());
    // root[0] -> l1a[0] -> l0a[0x10] = code; root[1] -> l1b[0] -> l0b[0..2] = data.
    let (root, l1a, l0a, l1b, l0b) = (
        TABLES,
        TABLES + 0x1000,
        TABLES + 0x2000,
        TABLES + 0x3000,
        TABLES + 0x4000,
    );
    let table = |pa: u64| ((pa >> 12) << 10) | pte::V;
    let leaf = |pa: u64, perms: u64| table(pa) | perms | pte::U;
    let mem = &mut m.core.mem;
    for (slot, entry) in [
        (root, table(l1a)),
        (root + 8, table(l1b)),
        (l1a, table(l0a)),
        (l1b, table(l0b)),
        (l0a + 0x10 * 8, leaf(CODE_PA, pte::R | pte::X)),
        (l0b, leaf(DATA_PA, pte::R | pte::W)),
        (l0b + 8, leaf(DATA_PA + 0x1000, pte::R | pte::W)),
    ] {
        mem.write(slot, 8, entry).expect("page table in DRAM");
    }
    run_to_break(&mut m)
}

/// The `guest_xcall` shape without the engine: two address spaces with
/// code and a private data page at the same virtual addresses, and a
/// contiguous relay window both can reach. Space A fills 64 words of the
/// window and `ecall`s; the M-mode handler writes the other `satp` (a
/// flush on an untagged TLB) and resumes space B, which sums the window
/// and `ecall`s back. 400 switches.
fn switch(cfg: MachineConfig) -> Pin {
    const HANDLER: u64 = DRAM_BASE + 0x1000;
    const TABLES: u64 = DRAM_BASE + 0x10_0000;
    const CODE_PA: [u64; 2] = [DRAM_BASE + 0x1_0000, DRAM_BASE + 0x2_0000];
    const DATA_PA: [u64; 2] = [DRAM_BASE + 0x20_0000, DRAM_BASE + 0x20_1000];
    const WINDOW_PA: u64 = DRAM_BASE + 0x30_0000;
    const CODE_VA: u64 = 0x1_0000;
    const DATA_VA: u64 = 0x4000_0000;
    const WINDOW_VA: u64 = 0x5000_0000;
    const FILL_BYTES: u64 = 64 * 8;
    const LCG_A: u64 = 6_364_136_223_846_793_005;
    let satp = |space: u64| (8 << 60) | ((space + 1) << 44) | ((TABLES + space * 0x5000) >> 12);

    let mut boot = Assembler::new(DRAM_BASE);
    boot.li(reg::T0, HANDLER as i64);
    boot.csrw(csr::MTVEC, reg::T0);
    boot.li(reg::T0, satp(0) as i64);
    boot.csrw(csr::SATP, reg::T0);
    boot.li(reg::S4, 400);
    boot.li(reg::S5, (satp(0) ^ satp(1)) as i64);
    boot.li(reg::S6, CODE_VA as i64); // where the other space resumes
    boot.li(reg::T0, CODE_VA as i64);
    boot.csrw(csr::MEPC, reg::T0);
    boot.mret(); // MPP is User after reset

    let mut h = Assembler::new(HANDLER);
    h.addi(reg::S4, reg::S4, -1);
    h.beq(reg::S4, reg::ZERO, "done");
    h.csrr(reg::T0, csr::SATP);
    h.xor(reg::T0, reg::T0, reg::S5);
    h.csrw(csr::SATP, reg::T0);
    h.csrr(reg::T0, csr::MEPC);
    h.addi(reg::T0, reg::T0, 4);
    h.csrw(csr::MEPC, reg::S6);
    h.mv(reg::S6, reg::T0);
    h.mret();
    h.label("done");
    h.ebreak();

    // Space A: fill the window from an LCG, count the round in its page.
    let mut fill = Assembler::new(CODE_VA);
    fill.li(reg::S0, WINDOW_VA as i64);
    fill.li(reg::S1, DATA_VA as i64);
    fill.li(reg::S2, LCG_A as i64);
    fill.li(reg::A0, 12345);
    fill.label("round");
    fill.mv(reg::T1, reg::S0);
    fill.addi(reg::T2, reg::S0, FILL_BYTES as i64);
    fill.label("word");
    fill.mul(reg::A0, reg::A0, reg::S2);
    fill.addi(reg::A0, reg::A0, 1);
    fill.sd(reg::A0, reg::T1, 0);
    fill.addi(reg::T1, reg::T1, 8);
    fill.bltu(reg::T1, reg::T2, "word");
    fill.ld(reg::T3, reg::S1, 0);
    fill.addi(reg::T3, reg::T3, 1);
    fill.sd(reg::T3, reg::S1, 0);
    fill.ecall();
    fill.j("round");

    // Space B: sum the window into its page.
    let mut sum = Assembler::new(CODE_VA);
    sum.li(reg::S7, WINDOW_VA as i64);
    sum.li(reg::S8, DATA_VA as i64);
    sum.label("round");
    sum.mv(reg::T4, reg::S7);
    sum.addi(reg::T5, reg::S7, FILL_BYTES as i64);
    sum.ld(reg::A1, reg::S8, 8);
    sum.label("word");
    sum.ld(reg::T6, reg::T4, 0);
    sum.add(reg::A1, reg::A1, reg::T6);
    sum.addi(reg::T4, reg::T4, 8);
    sum.bltu(reg::T4, reg::T5, "word");
    sum.sd(reg::A1, reg::S8, 8);
    sum.ecall();
    sum.j("round");

    let mut m = Machine::new(cfg);
    m.load_program(&boot.assemble());
    m.load_program_at(HANDLER, &h.assemble());
    m.load_program_at(CODE_PA[0], &fill.assemble());
    m.load_program_at(CODE_PA[1], &sum.assemble());
    m.core.mmu.seg_window = Some(SegWindow {
        va_base: WINDOW_VA,
        pa_base: WINDOW_PA,
        len: 4096,
        writable: true,
        paged: false,
    });
    // Per space: root[0] -> l1a[0] -> l0a[0x10] = code; root[1] -> l1b[0] -> l0b[0] = data.
    let table = |pa: u64| ((pa >> 12) << 10) | pte::V;
    let leaf = |pa: u64, perms: u64| table(pa) | perms | pte::U;
    for space in 0..2 {
        let root = TABLES + space as u64 * 0x5000;
        let (l1a, l0a, l1b, l0b) = (root + 0x1000, root + 0x2000, root + 0x3000, root + 0x4000);
        for (slot, entry) in [
            (root, table(l1a)),
            (root + 8, table(l1b)),
            (l1a, table(l0a)),
            (l1b, table(l0b)),
            (l0a + 0x10 * 8, leaf(CODE_PA[space], pte::R | pte::X)),
            (l0b, leaf(DATA_PA[space], pte::R | pte::W)),
        ] {
            m.core
                .mem
                .write(slot, 8, entry)
                .expect("page table in DRAM");
        }
    }
    let pin = run_to_break(&mut m);
    // What the guest computed: 200 rounds on either side.
    let word = |pa: u64| m.core.mem.read(pa, 8).expect("in DRAM");
    let (mut x, mut sum) = (12345u64, 0u64);
    for _ in 0..200 * FILL_BYTES / 8 {
        x = x.wrapping_mul(LCG_A).wrapping_add(1);
        sum = sum.wrapping_add(x);
    }
    assert_eq!((word(DATA_PA[0]), word(DATA_PA[1] + 8)), (200, sum));
    pin
}

/// Shorthand for the literals below.
fn pin(
    cycles: u64,
    instret: u64,
    icache: (u64, u64),
    dcache: (u64, u64),
    tlb: (u64, u64, u64),
    walks: u64,
) -> Pin {
    Pin {
        cycles,
        instret,
        icache,
        dcache,
        tlb,
        walks,
    }
}

#[test]
fn alu_kernel_is_cycle_exact() {
    let (rocket, arm) = (MachineConfig::rocket_u500(), MachineConfig::arm_hpi());
    assert_eq!(
        alu(rocket),
        pin(350_689, 280_019, (280_017, 3), (39_968, 32), (0, 0, 0), 0)
    );
    assert_eq!(
        alu(arm),
        pin(390_412, 280_019, (280_017, 3), (39_968, 32), (0, 0, 0), 0)
    );
}

#[test]
fn load_sweep_is_cycle_exact() {
    let (rocket, arm) = (MachineConfig::rocket_u500(), MachineConfig::arm_hpi());
    assert_eq!(
        sweep(rocket),
        pin(819_263, 131_095, (131_094, 2), (0, 32_768), (0, 0, 0), 0)
    );
    assert_eq!(
        sweep(arm),
        pin(589_873, 131_095, (131_094, 2), (0, 32_768), (0, 0, 0), 0)
    );
}

#[test]
fn sv39_loop_with_satp_rewrite_is_cycle_exact() {
    let (rocket, arm) = (MachineConfig::rocket_u500(), MachineConfig::arm_hpi());
    assert_eq!(
        sv39(rocket),
        pin(
            112_899,
            70_052,
            (70_048, 5),
            (19_880, 141),
            (90_015, 6, 2),
            6
        )
    );
    assert_eq!(
        sv39(arm),
        pin(
            131_779,
            70_052,
            (70_048, 5),
            (19_888, 133),
            (90_015, 6, 2),
            6
        )
    );
}

#[test]
fn address_space_switches_over_a_relay_window_are_cycle_exact() {
    assert_eq!(
        switch(MachineConfig::rocket_u500()),
        pin(
            226_355,
            121_839,
            (121_834, 6),
            (26_594, 2_210),
            (117_815, 800, 400),
            800
        )
    );
    assert_eq!(
        switch(MachineConfig::rocket_u500_tagged()),
        pin(
            177_619,
            121_839,
            (121_834, 6),
            (26_394, 22),
            (118_611, 4, 0),
            4
        )
    );
}
