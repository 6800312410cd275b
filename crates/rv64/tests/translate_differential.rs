//! Differential test of `Core::translate` against `Mmu::translate`.
//!
//! `Core::translate` answers most accesses from a by-value page memo and
//! an inlined relay-window add; `Mmu::translate` is the single source of
//! truth. Two cores are driven in lock-step through generated traffic —
//! one through `Core::translate`, the reference by calling
//! `Mmu::translate` directly — and must agree on the result, the clock
//! and every counter after every operation. The generator is in this
//! file and seeded; a failure prints the configuration, seed and
//! operation index that reproduce it.

use rv64::csr::mstatus;
use rv64::mem::DRAM_BASE;
use rv64::mmu::Satp;
use rv64::tlb::pte;
use rv64::{Access, Core, MachineConfig, Mode, SegWindow, Trap};

/// Operations per (TLB size, tagging) configuration; six configurations.
const OPS: usize = 10_000;

const SPACES: u64 = 3;
const TABLES: u64 = DRAM_BASE + 0x10_0000;
const SPACE_STRIDE: u64 = 0x8000;
const RELAY_TABLE: u64 = DRAM_BASE + 0x20_0000;

const SMALL_VA: u64 = 0x1_0000; // eight 4 KiB pages
const MID_VA: u64 = 0x4000_0000; // two 4 KiB pages under the 2 MiB leaf's table
const MEGA_VA: u64 = 0x4020_0000; // a 2 MiB leaf
const GIGA_VA: u64 = 0xc000_0000; // a 1 GiB leaf
const TOP_VA: u64 = 0xffff_ffff_ffff_f000; // the last page of the upper half
const WINDOW_VA: u64 = 0x5000_0000;

/// xorshift64*.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

const PERMS: [u64; 8] = [
    pte::R | pte::X | pte::U,
    pte::R | pte::W | pte::U,
    pte::R | pte::U,
    pte::X | pte::U, // execute-only: readable under MXR
    pte::R | pte::W, // supervisor page
    pte::R | pte::W | pte::X,
    pte::R | pte::W | pte::X | pte::U,
    0, // not a leaf: faults
];

/// One generated operation, applied identically to both cores.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, u64, Access),
    /// `csrw satp`: an untagged TLB flushes.
    SatpWrite(u64),
    /// The engine / `XpcKernel` way: the field is written, nothing else.
    SatpPoke(u64),
    Mode(Mode),
    FlipStatus(u64),
    SfenceAll,
    SfenceAsid(u16),
    SetTagged(bool),
    Window(Option<SegWindow>),
    /// A leaf PTE rewritten without a fence: stale TLB entries stay.
    Pte(u64, u64),
}

fn table(pa: u64) -> u64 {
    ((pa >> 12) << 10) | pte::V
}

fn leaf(ppn: u64, perms: u64) -> u64 {
    (ppn << 10) | perms | if perms == 0 { 0 } else { pte::V }
}

/// Physical address of the PTE slot of small page `page` in `space`.
fn small_slot(space: u64, page: u64) -> u64 {
    TABLES + space * SPACE_STRIDE + 0x2000 + (0x10 + page) * 8
}

fn build_tables(core: &mut Core) {
    let mut put = |pa: u64, v: u64| core.mem.write(pa, 8, v).expect("tables in DRAM");
    for s in 0..SPACES {
        let root = TABLES + s * SPACE_STRIDE;
        let (l1_lo, l0_lo, l1_mid, l0_mid, l1_top, l0_top) = (
            root + 0x1000,
            root + 0x2000,
            root + 0x3000,
            root + 0x4000,
            root + 0x5000,
            root + 0x6000,
        );
        put(root, table(l1_lo));
        put(l1_lo, table(l0_lo));
        for page in 0..8 {
            let perms = PERMS[((page + s) % 8) as usize];
            put(
                small_slot(s, page),
                leaf(0x9_0000 + s * 0x100 + page, perms),
            );
        }
        put(root + 8, table(l1_mid));
        put(l1_mid, table(l0_mid));
        put(l0_mid, leaf(0x9_1000 + s, pte::R | pte::W | pte::U));
        put(l0_mid + 8, leaf(0x9_1010 + s, pte::R | pte::X | pte::U));
        put(
            l1_mid + 8,
            leaf((0xa_0000 + s * 0x1000) & !0x1ff, PERMS[(s + 1) as usize]),
        );
        put(
            root + 3 * 8,
            leaf((0x10_0000 * (s + 1)) & !0x3_ffff, PERMS[6]),
        );
        put(root + 511 * 8, table(l1_top));
        put(l1_top + 511 * 8, table(l0_top));
        put(
            l0_top + 511 * 8,
            leaf(0x9_2000 + s, pte::R | pte::W | pte::U),
        );
    }
    // Relay page table for paged windows: entry 1 is a hole.
    for (i, ppn) in [0x9_3000u64, 0, 0x9_3002, 0x9_3003].into_iter().enumerate() {
        put(RELAY_TABLE + i as u64 * 8, ppn);
    }
}

fn satp_raw(rng: &mut Rng) -> u64 {
    Satp {
        enabled: rng.below(8) != 0,
        asid: rng.below(3) as u16,
        root_ppn: (TABLES + rng.below(SPACES) * SPACE_STRIDE) >> 12,
    }
    .to_raw()
}

fn window(rng: &mut Rng) -> Option<SegWindow> {
    let kind = rng.below(8);
    if kind == 0 {
        return None;
    }
    Some(SegWindow {
        va_base: WINDOW_VA + if kind == 1 { 0x800 } else { 0 },
        // One window in eight would overflow `pa_base + offset`.
        pa_base: match kind {
            2 => RELAY_TABLE,
            3 => u64::MAX - 7,
            _ => DRAM_BASE + 0x30_0000,
        },
        len: rng.pick(&[0, 64, 0x800, 0x1000, 0x4000]),
        writable: kind != 4,
        paged: kind == 2,
    })
}

fn address(rng: &mut Rng, recent: &[u64; 4]) -> u64 {
    let page = if rng.below(10) < 6 {
        rng.pick(recent)
    } else {
        match rng.below(12) {
            0..=2 => SMALL_VA + rng.below(8) * 0x1000,
            3 => MID_VA + rng.below(2) * 0x1000,
            4 => MEGA_VA + rng.below(512) * 0x1000,
            5 => GIGA_VA + rng.below(1 << 18) * 0x1000,
            6 => TOP_VA,
            7 => rng.pick(&[0x2_0000, 0x8000_0000, 0x3f_ffff_f000, MID_VA + 0x40_0000]),
            // Non-canonical: the low 39 bits name a mapped page.
            8 => {
                (SMALL_VA + rng.below(8) * 0x1000)
                    | rng.pick(&[1 << 39, 1 << 63, 0xffff_ff80_0000_0000, 1 << 38])
            }
            _ => WINDOW_VA + rng.below(5) * 0x1000,
        }
    };
    let offset = match rng.below(8) {
        0 => 0xff8 + rng.below(8), // at or across the end of the page
        1 => rng.below(0x1000),
        _ => rng.below(0x200) * 8,
    };
    (page & !0xfff).wrapping_add(offset)
}

fn generate(rng: &mut Rng, recent: &[u64; 4]) -> Op {
    match rng.below(100) {
        0..=84 => Op::Access(
            address(rng, recent),
            rng.pick(&[1, 2, 4, 8]),
            rng.pick(&[Access::Fetch, Access::Load, Access::Load, Access::Store]),
        ),
        85..=86 => Op::SatpWrite(satp_raw(rng)),
        87 => Op::SatpPoke(satp_raw(rng)),
        88..=89 => Op::Mode(rng.pick(&[
            Mode::User,
            Mode::User,
            Mode::Supervisor,
            Mode::Supervisor,
            Mode::Machine,
        ])),
        90..=91 => Op::FlipStatus(rng.pick(&[mstatus::SUM, mstatus::MXR])),
        92 => Op::SfenceAll,
        93 => Op::SfenceAsid(rng.below(3) as u16),
        94..=96 => Op::Window(window(rng)),
        97..=98 => Op::Pte(
            small_slot(rng.below(SPACES), rng.below(8)),
            leaf(0x9_8000 + rng.below(16), rng.pick(&PERMS)),
        ),
        _ => Op::SetTagged(rng.below(2) == 0),
    }
}

/// `Mmu::translate` called the way `Core::translate` must behave.
fn reference(core: &mut Core, va: u64, size: u64, access: Access) -> Result<u64, Trap> {
    let t = core.mmu.translate(
        va,
        size,
        access,
        core.cpu.mode,
        Satp::from_raw(core.cpu.csr.satp),
        core.cpu.csr.sum(),
        core.cpu.csr.mxr(),
        &mut core.mem,
        &mut core.dcache,
        &core.cfg,
    )?;
    core.cycles += t.cycles;
    Ok(t.pa)
}

fn apply(core: &mut Core, op: Op, through_core: bool) -> Option<Result<u64, Trap>> {
    match op {
        Op::Access(va, size, access) => {
            return Some(if through_core {
                core.translate(va, size, access)
            } else {
                reference(core, va, size, access)
            });
        }
        Op::SatpWrite(raw) => {
            core.cpu.csr.satp = raw;
            if !core.mmu.tlb.tagged() {
                core.mmu.tlb.flush_all();
            }
        }
        Op::SatpPoke(raw) => core.cpu.csr.satp = raw,
        Op::Mode(mode) => core.cpu.mode = mode,
        Op::FlipStatus(bit) => core.cpu.csr.mstatus ^= bit,
        Op::SfenceAll => core.mmu.tlb.flush_all(),
        Op::SfenceAsid(asid) => core.mmu.tlb.flush_asid(asid),
        Op::SetTagged(tagged) => core.mmu.tlb.set_tagged(tagged),
        Op::Window(w) => core.mmu.seg_window = w,
        Op::Pte(slot, entry) => core.mem.write(slot, 8, entry).expect("slot in DRAM"),
    }
    None
}

/// Everything a translation may move.
fn counters(core: &Core) -> [u64; 8] {
    let tlb = &core.mmu.tlb;
    [
        core.cycles,
        tlb.hits,
        tlb.misses,
        tlb.flushes,
        tlb.valid_entries() as u64,
        core.mmu.walks,
        core.dcache.hits,
        core.dcache.misses,
    ]
}

fn run(tlb_entries: usize, tagged: bool, seed: u64) -> usize {
    let cfg = MachineConfig {
        dram_size: 4 << 20,
        tlb_entries,
        tagged_tlb: tagged,
        ..MachineConfig::rocket_u500()
    };
    let (mut fast, mut slow) = (Core::new(cfg.clone()), Core::new(cfg));
    build_tables(&mut fast);
    build_tables(&mut slow);
    let mut rng = Rng(seed);
    let mut recent = [SMALL_VA, SMALL_VA + 0x1000, MEGA_VA, WINDOW_VA];
    let mut lookups = 0;
    for i in 0..OPS {
        let op = generate(&mut rng, &recent);
        let before = fast.mmu.tlb.hits + fast.mmu.tlb.misses;
        let got = apply(&mut fast, op, true);
        let want = apply(&mut slow, op, false);
        let at =
            format!("{tlb_entries}-entry TLB, tagged {tagged}, seed {seed:#x}, op {i}: {op:x?}");
        assert_eq!(got, want, "{at}");
        assert_eq!(counters(&fast), counters(&slow), "{at}");
        if let Op::Access(va, ..) = op {
            recent[i % 4] = va;
            lookups += usize::from(fast.mmu.tlb.hits + fast.mmu.tlb.misses > before);
        }
    }
    lookups
}

#[test]
fn core_translate_equals_mmu_translate_on_generated_traffic() {
    let mut paged = 0;
    for (i, &(entries, tagged)) in [
        (2, false),
        (2, true),
        (4, false),
        (4, true),
        (32, false),
        (32, true),
    ]
    .iter()
    .enumerate()
    {
        paged += run(entries, tagged, 0x5eed_0000 + i as u64);
    }
    // The traffic must reach the page-table path, not only windows,
    // bare mode and faults before the TLB.
    assert!(
        paged > 6 * OPS / 4,
        "only {paged} accesses looked up the TLB"
    );
}
