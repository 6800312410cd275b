//! Property tests of the TLB against a reference map (on the in-tree
//! harness `ycsb::check`), and machine-level timer-interrupt behaviour.

use rv64::csr::addr as csr;
use rv64::machine::{MCAUSE_TIMER, MTIE};
use rv64::mem::DRAM_BASE;
use rv64::tlb::{pte, Tlb};
use rv64::{reg, Assembler, Exit, Machine, MachineConfig};
use std::collections::HashMap;
use ycsb::{check, Rng};

/// A draw from `lo..hi` whose span the harness's `size` caps.
fn range(rng: &mut Rng, size: u64, lo: u64, hi: u64) -> u64 {
    lo + rng.below((hi - lo).min(size))
}

/// `lo..hi` elements (the count capped by `size`), each drawn by `item`.
fn vec_of<T>(
    rng: &mut Rng,
    size: u64,
    (lo, hi): (u64, u64),
    mut item: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    let n = range(rng, size, lo, hi);
    (0..n).map(|_| item(rng)).collect()
}

/// Fill `ops` as `(vpn, asid, ppn)` into a TLB too large to evict, and
/// after each fill probe the vpn under every ASID against a reference map.
fn tlb_agrees_with_reference(ops: &[(u64, u16, u64)]) -> Result<(), String> {
    // Large TLB so nothing is evicted — isolates tagging semantics.
    let mut tlb = Tlb::new(1024, true);
    let mut reference: HashMap<(u64, u16), u64> = HashMap::new();
    for &(vpn, asid, ppn) in ops {
        tlb.fill(vpn, 0, asid, ppn, pte::V | pte::R);
        reference.insert((vpn, asid), ppn);
        for probe_asid in 0..4u16 {
            let got = tlb.lookup(vpn, probe_asid).map(|e| e.ppn);
            let want = reference.get(&(vpn, probe_asid)).copied();
            if got != want {
                return Err(format!(
                    "vpn {vpn} asid {probe_asid}: {got:?}, want {want:?}"
                ));
            }
        }
    }
    Ok(())
}

/// A tagged TLB never returns a translation filled under a different
/// ASID, and always returns the latest fill for (vpn, asid) while the
/// entry is resident.
#[test]
fn tagged_tlb_matches_reference() {
    // A refill of one (vpn, asid): the latest fill must win.
    tlb_agrees_with_reference(&[(49, 2, 0), (49, 2, 1)]).unwrap();
    check(
        "tagged_tlb_matches_reference",
        500,
        &[],
        |rng, size| {
            vec_of(rng, size, (1, 200), |rng| {
                let vpn = range(rng, size, 0, 64);
                let asid = range(rng, size, 0, 4) as u16;
                (vpn, asid, range(rng, size, 0, 1 << 20))
            })
        },
        |ops| tlb_agrees_with_reference(ops),
    );
}

/// flush_asid removes exactly that ASID's entries.
#[test]
fn flush_asid_is_exact() {
    check(
        "flush_asid_is_exact",
        1000,
        &[],
        |rng, size| {
            let fills = vec_of(rng, size, (1, 64), |rng| {
                (range(rng, size, 0, 32), range(rng, size, 0, 4) as u16)
            });
            (fills, range(rng, size, 0, 4) as u16)
        },
        |(fills, victim)| {
            let mut tlb = Tlb::new(256, true);
            for &(vpn, asid) in fills {
                tlb.fill(vpn, 0, asid, 0x100 + vpn, pte::V);
            }
            tlb.flush_asid(*victim);
            match fills
                .iter()
                .find(|&&(vpn, asid)| asid == *victim && tlb.lookup(vpn, asid).is_some())
            {
                Some((vpn, _)) => Err(format!("victim asid {victim} survived at vpn {vpn}")),
                None => Ok(()),
            }
        },
    );
}

#[test]
fn timer_interrupt_fires_and_resumes() {
    // Guest: M-mode handler counts ticks, re-arms twice, then lets the
    // loop finish.
    let mut a = Assembler::new(DRAM_BASE);
    a.li(reg::T0, (DRAM_BASE + 0x1000) as i64);
    a.csrw(csr::MTVEC, reg::T0);
    a.li(reg::T1, MTIE as i64);
    a.csrw(csr::MIE, reg::T1);
    // mstatus.MIE = 1 (bit 3).
    a.li(reg::T1, 8);
    a.csrrs(reg::ZERO, csr::MSTATUS, reg::T1);
    // Arm the timer 200 cycles out.
    a.csrr(reg::T1, csr::CYCLE);
    a.addi(reg::T1, reg::T1, 200);
    a.csrw(csr::MTIMECMP, reg::T1);
    // Busy loop.
    a.li(reg::S1, 2000);
    a.label("loop");
    a.addi(reg::S1, reg::S1, -1);
    a.bne(reg::S1, reg::ZERO, "loop");
    a.ebreak();
    let body = a.assemble();

    // Handler: s2 += 1; if s2 < 3 re-arm, else disarm; mret.
    let mut h = Assembler::new(DRAM_BASE + 0x1000);
    h.addi(reg::S2, reg::S2, 1);
    h.li(reg::T2, 3);
    h.bge(reg::S2, reg::T2, "disarm");
    h.csrr(reg::T1, csr::CYCLE);
    h.addi(reg::T1, reg::T1, 200);
    h.csrw(csr::MTIMECMP, reg::T1);
    h.mret();
    h.label("disarm");
    h.csrw(csr::MTIMECMP, reg::ZERO);
    h.mret();
    let handler = h.assemble();

    let mut m = Machine::new(MachineConfig::rocket_u500());
    m.load_program(&body);
    m.load_program_at(DRAM_BASE + 0x1000, &handler);
    let r = m.run(100_000).unwrap();
    assert_eq!(r.exit, Exit::Break, "loop completed despite interrupts");
    assert_eq!(m.core.cpu.x(reg::S2), 3, "handler ran exactly three times");
    assert_eq!(m.core.cpu.csr.mcause, MCAUSE_TIMER);
}

#[test]
fn masked_timer_never_fires() {
    let mut a = Assembler::new(DRAM_BASE);
    // mtimecmp armed but MTIE clear: no interrupt.
    a.li(reg::T1, 100);
    a.csrw(csr::MTIMECMP, reg::T1);
    a.li(reg::S1, 500);
    a.label("loop");
    a.addi(reg::S1, reg::S1, -1);
    a.bne(reg::S1, reg::ZERO, "loop");
    a.ebreak();
    let mut m = Machine::new(MachineConfig::rocket_u500());
    m.load_program(&a.assemble());
    let r = m.run(100_000).unwrap();
    assert_eq!(r.exit, Exit::Break);
    assert_eq!(m.core.cpu.csr.mcause, 0, "no interrupt was delivered");
}
