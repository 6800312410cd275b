//! `guest_xcall` — cross-process calls on a booted `XpcKernel`.
//!
//! A two-process Sv39 world with the paper-default engine. The client
//! fills its relay segment with a seeded payload, `xcall`s a trampolined
//! server that sums it, and folds the returned sum into a checksum;
//! every [`CALLS_PER_CYCLE`] round trips it stops at an `ebreak` and the
//! host runs one control-plane cycle. The same interpreter as
//! `guest_alu`, used differently: a `satp` switch and a TLB flush per
//! call, page walks after each flush, and code freshly loaded into new
//! pages by every control-plane cycle — what a decode cache keyed by
//! physical page has to invalidate on.
//!
//! Each chunk boots its own world. The x-entry table has 1 024 slots and
//! no way to free one, so a world that lived for the whole run would
//! run out of entries as soon as the interpreter got faster.

use crate::harness::{chunk_seed, fnv1a, ChunkOutcome, Workload, FNV_SEED};
use crate::trace::Tracer;
use rv64::{reg, Assembler};
use xpc::kernel::{syscall, KernelEvent, XpcKernel, XpcKernelConfig};
use xpc::layout::USER_CODE_VA;
use xpc::{ThreadId, XEntryId, XpcError};
use xpc_engine::{csr_map, XpcAsm};

use super::guest_alu::LCG_A;

/// Round trips per chunk.
pub const CALLS_PER_CHUNK: u64 = 8_000;

/// Round trips between two control-plane cycles.
pub const CALLS_PER_CYCLE: u64 = 1_000;

/// Payload bytes of consecutive calls, repeating: 0 B and 64 B
/// alternate, and every 64th call carries 4 KiB. A strict 0 / 64 / 4096
/// rotation would put 97 % of the retired instructions into the 4 KiB
/// fill and sum loops and make this a second memory-loop benchmark; at
/// one 4 KiB call in 64 the crossing (trampoline, `satp` switch, TLB
/// refill) is a little over half of the host time.
pub const PAYLOAD_BYTES: [u64; 64] = {
    let mut bytes = [0; 64];
    let mut i = 1;
    while i < 64 {
        bytes[i] = 64;
        i += 2;
    }
    bytes[63] = 4096;
    bytes
};

const SEG_BYTES: u64 = 4096;

/// Instruction budget of one `XpcKernel::run` (a cycle retires well
/// under a tenth of it).
const RUN_BUDGET: u64 = 50_000_000;

/// Server handler: sum `a1` bytes of the relay segment as 64-bit words.
fn handler_code() -> Vec<u32> {
    let mut h = Assembler::new(USER_CODE_VA);
    h.csrr(reg::T1, csr_map::XPC_SEG_VA);
    h.add(reg::T2, reg::T1, reg::A1);
    h.li(reg::A0, 0);
    h.label("sum");
    h.bgeu(reg::T1, reg::T2, "out");
    h.ld(reg::T3, reg::T1, 0);
    h.add(reg::A0, reg::A0, reg::T3);
    h.addi(reg::T1, reg::T1, 8);
    h.j("sum");
    h.label("out");
    h.ret();
    h.assemble()
}

/// Client: `a0` = LCG state, `a1` = round trips to make. State lives in
/// `s` registers, which the callee trampoline leaves alone.
fn client_code(entry: XEntryId, seg_va: u64, table_va: u64) -> Vec<u32> {
    let mut c = Assembler::new(USER_CODE_VA);
    c.mv(reg::S2, reg::A0);
    c.mv(reg::S3, reg::A1);
    c.li(reg::S4, 0);
    c.li(reg::S5, seg_va as i64);
    c.li(reg::S6, 0);
    c.li(reg::S7, LCG_A as i64);
    c.li(reg::S8, CALLS_PER_CYCLE as i64);
    c.li(reg::S10, table_va as i64);
    c.li(reg::S11, PAYLOAD_BYTES.len() as i64);
    c.label("call");
    // s9 = PAYLOAD_BYTES[s6]; s6 = (s6 + 1) % len
    c.slli(reg::T1, reg::S6, 3);
    c.add(reg::T1, reg::T1, reg::S10);
    c.ld(reg::S9, reg::T1, 0);
    c.addi(reg::S6, reg::S6, 1);
    c.bne(reg::S6, reg::S11, "fill");
    c.li(reg::S6, 0);
    // Fill the first s9 bytes of the segment from the LCG.
    c.label("fill");
    c.mv(reg::T1, reg::S5);
    c.add(reg::T2, reg::S5, reg::S9);
    c.label("word");
    c.bgeu(reg::T1, reg::T2, "filled");
    c.mul(reg::S2, reg::S2, reg::S7);
    c.addi(reg::S2, reg::S2, 1);
    c.sd(reg::S2, reg::T1, 0);
    c.addi(reg::T1, reg::T1, 8);
    c.j("word");
    c.label("filled");
    c.mv(reg::A1, reg::S9);
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    // acc = acc * 31 + returned sum
    c.slli(reg::T1, reg::S4, 5);
    c.sub(reg::T1, reg::T1, reg::S4);
    c.add(reg::S4, reg::T1, reg::A0);
    c.addi(reg::S3, reg::S3, -1);
    c.addi(reg::S8, reg::S8, -1);
    c.bne(reg::S8, reg::ZERO, "more");
    c.li(reg::S8, CALLS_PER_CYCLE as i64);
    c.ebreak(); // the host runs a control-plane cycle here
    c.label("more");
    c.bne(reg::S3, reg::ZERO, "call");
    c.mv(reg::A0, reg::S4);
    c.li(reg::A7, syscall::EXIT as i64);
    c.ecall();
    c.assemble()
}

/// What the client computes over `calls` round trips, in Rust.
pub fn host_checksum(mut x: u64, calls: u64) -> u64 {
    let mut acc = 0u64;
    for call in 0..calls {
        let bytes = PAYLOAD_BYTES[(call % PAYLOAD_BYTES.len() as u64) as usize];
        let mut sum = 0u64;
        for _ in 0..bytes / 8 {
            x = x.wrapping_mul(LCG_A).wrapping_add(1);
            sum = sum.wrapping_add(x);
        }
        acc = acc.wrapping_mul(31).wrapping_add(sum);
    }
    acc
}

/// A booted two-process world with the client ready to enter.
pub struct World {
    pub k: XpcKernel,
    pub client: ThreadId,
    pub server: ThreadId,
    pub handler_va: u64,
    pub client_va: u64,
    /// Two idle threads the control-plane cycle moves a segment between,
    /// so the running client's registers are never touched.
    pub aux: [ThreadId; 2],
}

/// Boot the world; every call into `XpcKernel` is a span on `t`.
///
/// # Errors
///
/// Any [`XpcError`] the control plane returns.
pub fn boot_world(t: &mut Tracer) -> Result<World, XpcError> {
    let mut k = t.span("xpc", "XpcKernel.boot", || {
        XpcKernel::boot(XpcKernelConfig::default())
    });
    let open = t.enter("xpc", "XpcKernel.create");
    let client_proc = k.create_process()?;
    let server_proc = k.create_process()?;
    let server = k.create_thread(server_proc)?;
    let client = k.create_thread(client_proc)?;
    let aux = [k.create_thread(client_proc)?, k.create_thread(server_proc)?];
    t.exit(open);

    let open = t.enter("xpc", "XpcKernel.register_entry");
    let handler_va = k.load_code(server_proc, &handler_code())?;
    let entry = k.register_entry(server, server, handler_va, 1)?;
    k.grant_xcall(server, client, entry)?;
    t.exit(open);

    let open = t.enter("xpc", "XpcKernel.alloc_relay_seg");
    let seg = k.alloc_relay_seg(client, SEG_BYTES)?;
    k.install_seg(client, seg)?;
    let seg_va = k.segs.seg_reg(seg).va_base;
    t.exit(open);

    let open = t.enter("xpc", "XpcKernel.load_code");
    let (table_va, table_pa) = k.alloc_data(client_proc, 1)?;
    let table: Vec<u8> = PAYLOAD_BYTES.iter().flat_map(|b| b.to_le_bytes()).collect();
    k.machine.core.mem.load_bytes(table_pa, &table);
    let client_va = k.load_code(client_proc, &client_code(entry, seg_va, table_va))?;
    t.exit(open);

    Ok(World {
        k,
        client,
        server,
        handler_va,
        client_va,
        aux,
    })
}

impl World {
    /// One control-plane cycle: register and grant a fresh x-entry, move
    /// a fresh relay segment between the two idle threads, free it, and
    /// revoke the grant. Returns how many calls returned `Err`.
    pub fn control_plane_cycle(&mut self, t: &mut Tracer) -> u64 {
        /// `r`'s value, counting an `Err` into `errors`.
        fn keep<T>(r: Result<T, XpcError>, errors: &mut u64) -> Option<T> {
            *errors += u64::from(r.is_err());
            r.ok()
        }
        let mut errors = 0;
        let (k, [a, b]) = (&mut self.k, self.aux);
        let (server, client, handler_va) = (self.server, self.client, self.handler_va);
        let entry = keep(
            t.span("xpc", "XpcKernel.register_entry", || {
                k.register_entry(server, server, handler_va, 1)
            }),
            &mut errors,
        );
        if let Some(e) = entry {
            let r = t.span("xpc", "XpcKernel.grant_xcall", || {
                k.grant_xcall(server, client, e)
            });
            keep(r, &mut errors);
        }
        let seg = keep(
            t.span("xpc", "XpcKernel.alloc_relay_seg", || {
                k.alloc_relay_seg(a, SEG_BYTES)
            }),
            &mut errors,
        );
        if let Some(seg) = seg {
            let r = t.span("xpc", "XpcKernel.handover_seg", || {
                k.install_seg(a, seg)?;
                k.handover_seg(a, b, seg)
            });
            keep(r, &mut errors);
            let r = t.span("xpc", "XpcKernel.free_relay_seg", || {
                k.free_relay_seg(b, seg)
            });
            keep(r, &mut errors);
        }
        if let Some(e) = entry {
            let r = t.span("xpc", "XpcKernel.revoke_xcall", || {
                k.revoke_xcall(client, e)
            });
            keep(r, &mut errors);
        }
        errors
    }

    /// Enter the client and drive it through `calls` round trips,
    /// running a control-plane cycle at every guest `ebreak`. Returns
    /// the client's exit value (`None` if it did not exit cleanly) and
    /// the control-plane errors.
    pub fn drive(&mut self, seed: u64, calls: u64, t: &mut Tracer) -> (Option<u64>, u64) {
        let mut errors = 0;
        if self
            .k
            .enter_thread(self.client, self.client_va, &[seed, calls])
            .is_err()
        {
            return (None, 1);
        }
        loop {
            let event = t.span("rv64", "Machine.run", || self.k.run(RUN_BUDGET));
            match event {
                Ok(KernelEvent::Break) => {
                    errors += self.control_plane_cycle(t);
                    self.k.machine.core.cpu.pc += 4;
                }
                Ok(KernelEvent::ThreadExit(value)) => return (Some(value), errors),
                Ok(_) | Err(_) => return (None, errors + 1),
            }
        }
    }
}

pub struct GuestXcall {
    seed: u64,
    /// The chunk's world, kept until the check has read its counters.
    world: Option<World>,
    exit: Option<u64>,
    errors: u64,
}

pub fn build(seed: u64, _t: &mut Tracer) -> Box<dyn Workload> {
    Box::new(GuestXcall {
        seed,
        world: None,
        exit: None,
        errors: 0,
    })
}

impl Workload for GuestXcall {
    fn run_chunk(&mut self, index: u64, t: &mut Tracer) {
        self.world = None; // release the previous world's DRAM first
        (self.exit, self.errors) = (None, 1);
        if let Ok(mut w) = boot_world(t) {
            (self.exit, self.errors) = w.drive(chunk_seed(self.seed, index), CALLS_PER_CHUNK, t);
            self.world = Some(w);
        }
    }

    fn check_chunk(&mut self, index: u64) -> ChunkOutcome {
        let want = host_checksum(chunk_seed(self.seed, index), CALLS_PER_CHUNK);
        let mut digest = fnv1a(FNV_SEED, &self.exit.unwrap_or(0).to_le_bytes());
        let mut counters_ok = false;
        if let Some(w) = &mut self.world {
            let stats = w.k.engine().stats;
            counters_ok = stats.xcalls == CALLS_PER_CHUNK
                && stats.xrets == CALLS_PER_CHUNK
                && stats.exceptions == 0;
            digest = fnv1a(digest, &w.k.machine.core.cycles.to_le_bytes());
            digest = fnv1a(digest, &w.k.machine.core.instret.to_le_bytes());
        }
        let ok = self.exit == Some(want) && counters_ok;
        let failed = if ok { self.errors } else { CALLS_PER_CHUNK };
        ChunkOutcome {
            ops: CALLS_PER_CHUNK,
            failed: failed.min(CALLS_PER_CHUNK),
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_and_host_agree_and_the_seed_matters() {
        let digest = |seed| {
            let mut w = build(seed, &mut Tracer::new(false));
            w.run_chunk(0, &mut Tracer::new(false));
            let o = w.check_chunk(0);
            assert_eq!((o.ops, o.failed), (CALLS_PER_CHUNK, 0));
            o.digest
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn a_control_plane_cycle_returns_no_error_and_is_traced() {
        let mut t = Tracer::new(true);
        let mut w = boot_world(&mut t).expect("boot");
        assert_eq!(w.control_plane_cycle(&mut t), 0);
        let calls: Vec<_> = t.spans().iter().map(|s| (s.layer, s.call)).collect();
        for call in [
            "XpcKernel.boot",
            "XpcKernel.handover_seg",
            "XpcKernel.revoke_xcall",
        ] {
            assert!(
                calls.contains(&("xpc", call)),
                "{call} missing from {calls:?}"
            );
        }
    }
}
