//! Property-based tests of the engine's architectural invariants under
//! random call/return interleavings driven by real guest execution, on
//! the in-tree harness `ycsb::check`.

use rv64::mem::DRAM_BASE;
use rv64::{reg, Assembler, Exit, Machine, MachineConfig};
use xpc_engine::{SegMask, SegReg, XEntry, XpcAsm, XpcEngine, XpcEngineConfig};
use ycsb::{check, Rng};

const TABLE: u64 = DRAM_BASE + 0x10_0000;
const CAP: u64 = DRAM_BASE + 0x11_0040;
const LINK: u64 = DRAM_BASE + 0x13_0080;
const CALLEE_BASE: u64 = DRAM_BASE + 0x2_0000;

fn engine(m: &mut Machine) -> &mut XpcEngine {
    m.extension()
        .as_any_mut()
        .downcast_mut::<XpcEngine>()
        .unwrap()
}

/// Build a machine with `n` entries whose callees immediately xret.
fn machine_with_entries(n: u64) -> Machine {
    let mut m = Machine::with_extension(
        MachineConfig::rocket_u500(),
        Box::new(XpcEngine::new(XpcEngineConfig::paper_default())),
    );
    let mut c = Assembler::new(CALLEE_BASE);
    c.xret();
    let callee = c.assemble();
    m.load_program_at(CALLEE_BASE, &callee);
    for id in 0..n {
        XEntry {
            page_table: 0,
            cap_ptr: CAP,
            entry_pc: CALLEE_BASE,
            valid: true,
        }
        .store(&mut m.core, TABLE, id)
        .unwrap();
    }
    // Grant all caps.
    for byte in 0..n.div_ceil(8) {
        m.core.mem.write(CAP + byte, 1, 0xff).unwrap();
    }
    let eng = engine(&mut m);
    eng.regs.x_entry_table = TABLE;
    eng.regs.x_entry_table_size = n;
    eng.regs.xcall_cap = CAP;
    eng.regs.link = LINK;
    m
}

/// A draw from `lo..hi` whose span the harness's `size` caps.
fn range(rng: &mut Rng, size: u64, lo: u64, hi: u64) -> u64 {
    lo + rng.below((hi - lo).min(size))
}

/// `Ok` when `got == want`, else `Err` naming `what`.
fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got:?}, want {want:?}"))
    }
}

/// For any sequence of nested calls (depth ≤ 16) the link stack
/// balances: after matching xrets it is exactly empty, and the engine's
/// call/return counters agree.
#[test]
fn nested_calls_balance_the_link_stack() {
    check(
        "nested_calls_balance_the_link_stack",
        200,
        &[],
        |rng, size| {
            let n = range(rng, size, 1, 16);
            (0..n).map(|_| range(rng, size, 0, 4)).collect::<Vec<u64>>()
        },
        |ids| {
            let mut m = machine_with_entries(4);
            // Caller: a chain of `xcall id` as nested frames would do —
            // since every callee xrets immediately, emit call pairs
            // sequentially; nesting is exercised by re-entering
            // CALLEE_BASE from the "caller" side between frames.
            let mut a = Assembler::new(DRAM_BASE);
            for id in ids {
                a.li(reg::T6, *id as i64);
                a.xcall(reg::T6);
            }
            a.ebreak();
            m.load_program(&a.assemble());
            let r = m.run(1_000_000).map_err(|e| format!("{e:?}"))?;
            same("exit", r.exit, Exit::Break)?;
            let eng = engine(&mut m);
            same("xcalls", eng.stats.xcalls, ids.len() as u64)?;
            same("xrets", eng.stats.xrets, ids.len() as u64)?;
            same("link_sp (stack balanced)", eng.regs.link_sp, 0)?;
            same("exceptions", eng.stats.exceptions, 0)
        },
    );
}

/// Out-of-range IDs always raise invalid x-entry, never execute.
#[test]
fn out_of_range_ids_always_trap() {
    check(
        "out_of_range_ids_always_trap",
        200,
        &[],
        |rng, size| range(rng, size, 4, 1000),
        |&id| {
            let mut m = machine_with_entries(4);
            // Trap handler: stop.
            let mut h = Assembler::new(DRAM_BASE + 0x8000);
            h.csrr(reg::A0, 0x342);
            h.ebreak();
            let handler = h.assemble();
            m.load_program_at(DRAM_BASE + 0x8000, &handler);
            let mut a = Assembler::new(DRAM_BASE);
            a.li(reg::T1, (DRAM_BASE + 0x8000) as i64);
            a.csrw(0x305, reg::T1);
            a.li(reg::T6, id as i64);
            a.xcall(reg::T6);
            a.ebreak();
            m.load_program(&a.assemble());
            let r = m.run(100_000).map_err(|e| format!("{e:?}"))?;
            same("exit", r.exit, Exit::Break)?;
            same(
                "mcause",
                m.core.cpu.x(reg::A0),
                rv64::trap::Cause::InvalidXEntry.code(),
            )?;
            same("xcalls (no call completed)", engine(&mut m).stats.xcalls, 0)
        },
    );
}

/// len/perm CSR packing round-trips for arbitrary field values.
#[test]
fn len_perm_round_trip() {
    check(
        "len_perm_round_trip",
        2000,
        &[],
        |rng, size| {
            let len = range(rng, size, 0, 1 << 48);
            (len, rng.below(2) == 1, rng.below(2) == 1)
        },
        |&(len, writable, paged)| {
            let seg = SegReg {
                va_base: 0,
                pa_base: 0,
                len,
                writable,
                paged,
            };
            let mut back = SegReg::default();
            back.set_len_perm_raw(seg.len_perm_raw());
            same("len", back.len, len)?;
            same("writable", back.writable, writable)?;
            same("paged", back.paged, paged)
        },
    );
}

/// Masking is idempotent: masking an already-masked segment with the
/// same window changes nothing.
#[test]
fn masking_is_idempotent() {
    check(
        "masking_is_idempotent",
        2000,
        &[],
        |rng, size| {
            let base = range(rng, size, 0, 1 << 30);
            let len = range(rng, size, 4096, 1 << 20);
            let off = range(rng, size, 0, 1 << 12);
            (base, len, off, range(rng, size, 1, 4096))
        },
        |&(base, len, off, mlen)| {
            let seg = SegReg {
                va_base: base,
                pa_base: 0x9000_0000,
                len,
                writable: true,
                paged: false,
            };
            let mask = SegMask {
                va_base: base + off,
                len: mlen,
            };
            if !mask.within(&seg) {
                return Ok(());
            }
            let once = seg.masked(mask);
            same("masked twice", once.masked(mask), once)
        },
    );
}
