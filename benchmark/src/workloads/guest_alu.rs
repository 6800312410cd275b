//! `guest_alu` — a bare M-mode RV64IM kernel on `rv64::Machine::run`.
//!
//! An ALU / branch / `mul` loop with one load and one store per
//! iteration into a 2 KiB buffer that stays inside the D-cache; no
//! paging, no engine. `rv64` fetch → decode → execute does all the work
//! and the MMU/TLB, `xpc-engine` and every `simos` layer do none: the
//! workload a decoded-instruction cache or block dispatch must win on,
//! and the bypass for every other optimisation.

use crate::harness::{chunk_seed, fnv1a, ChunkOutcome, Workload, FNV_SEED};
use crate::trace::Tracer;
use rv64::mem::DRAM_BASE;
use rv64::{reg, Assembler, Exit, Machine, MachineConfig, RunResult};

/// Loop iterations per chunk (13 or 15 instructions each, ~3.1 M
/// retired instructions per chunk).
pub const ITERS: u64 = 220_000;

/// LCG multiplier the guest and the host recomputation share.
pub const LCG_A: u64 = 6_364_136_223_846_793_005;

const BUF_PA: u64 = DRAM_BASE + 0x1_0000;
const BUF_WORDS: usize = 256;

/// The guest kernel. In: `a0` = LCG state, `a1` = 0, `s1` = iterations.
/// Out: `a1` = checksum; the buffer at [`BUF_PA`] is updated in place.
pub fn program() -> Vec<u32> {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(reg::S0, BUF_PA as i64);
    a.li(reg::S2, LCG_A as i64);
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
    a.assemble()
}

/// What [`program`] computes, in Rust: returns the checksum and updates
/// `buf` the way the guest updates its buffer.
pub fn host_checksum(mut x: u64, iters: u64, buf: &mut [u64; BUF_WORDS]) -> u64 {
    let mut acc = 0u64;
    for _ in 0..iters {
        x = x.wrapping_mul(LCG_A).wrapping_add(1);
        let slot = ((x >> 33) & 0x7f8) as usize / 8;
        acc = acc.wrapping_add(buf[slot] ^ x);
        buf[slot] = acc;
        if x & 64 != 0 {
            acc ^= acc << 7;
        }
    }
    acc
}

pub struct GuestAlu {
    seed: u64,
    machine: Machine,
    /// Host copy of the guest buffer, advanced by [`host_checksum`].
    mirror: [u64; BUF_WORDS],
    before: (u64, u64),
    last: Option<RunResult>,
}

pub fn build(seed: u64, _t: &mut Tracer) -> Box<dyn Workload> {
    let mut machine = Machine::new(MachineConfig::rocket_u500());
    machine.load_program(&program());
    Box::new(GuestAlu {
        seed,
        machine,
        mirror: [0; BUF_WORDS],
        before: (0, 0),
        last: None,
    })
}

impl Workload for GuestAlu {
    fn run_chunk(&mut self, index: u64, t: &mut Tracer) {
        let core = &mut self.machine.core;
        core.cpu.pc = DRAM_BASE;
        core.cpu.set_x(reg::A0, chunk_seed(self.seed, index));
        core.cpu.set_x(reg::A1, 0);
        core.cpu.set_x(reg::S1, ITERS);
        self.before = (core.instret, core.cycles);
        let open = t.enter("rv64", "Machine.run");
        self.last = self.machine.run(ITERS * 16).ok();
        t.exit(open);
    }

    fn check_chunk(&mut self, index: u64) -> ChunkOutcome {
        let want = host_checksum(chunk_seed(self.seed, index), ITERS, &mut self.mirror);
        let core = &self.machine.core;
        let ops = core.instret - self.before.0;
        let buffer_ok = self
            .mirror
            .iter()
            .zip(0u64..)
            .all(|(&w, i)| core.mem.read(BUF_PA + 8 * i, 8) == Ok(w));
        let ok = self.last.is_some_and(|r| r.exit == Exit::Break)
            && core.cpu.x(reg::A1) == want
            && buffer_ok;
        let mut digest = fnv1a(FNV_SEED, &core.cpu.x(reg::A1).to_le_bytes());
        digest = fnv1a(digest, &ops.to_le_bytes());
        digest = fnv1a(digest, &(core.cycles - self.before.1).to_le_bytes());
        ChunkOutcome {
            ops,
            failed: if ok { 0 } else { ops.max(1) },
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_and_host_agree_and_the_seed_matters() {
        let digests = |seed| {
            let mut w = build(seed, &mut Tracer::new(false));
            (0..2)
                .map(|i| {
                    w.run_chunk(i, &mut Tracer::new(false));
                    let o = w.check_chunk(i);
                    assert_eq!(o.failed, 0);
                    assert!(o.ops >= 13 * ITERS);
                    o.digest
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(7), digests(7));
        assert_ne!(digests(7), digests(8));
    }
}
