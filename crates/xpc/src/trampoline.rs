//! Generated guest code: the per-invocation C-stack trampoline (§4.2) and
//! the caller-side context wrappers measured in Figure 5.
//!
//! The callee trampoline is the XPC library code prepended to every
//! x-entry: it claims an idle XPC context (execution stack + local data),
//! switches to its C-stack, invokes the handler, releases the context and
//! `xret`s. With `max_contexts` contexts one x-entry serves that many
//! simultaneous callers (the thread model of §3.1).
//!
//! The caller wrappers model the save/restore convention: **full context**
//! spills every caller-visible register around the `xcall` (what a
//! mutually-distrusting pair must do), **partial context** only the
//! callee-clobbered minimum (§2.2's observation that callers and callees
//! may define their own calling conventions).

use rv64::{reg, Assembler};
use xpc_engine::XpcAsm;

/// Error code the trampoline returns (in `a0`) when no XPC context is
/// idle and the entry's policy is fail-fast.
pub const ERR_NO_CONTEXT: i64 = -11;

/// Error code the trampoline returns (in `a0`) when the caller is out of
/// credits (the §6.1 DoS defense, as in M3 and Intel QP credit systems).
pub const ERR_NO_CREDIT: i64 = -12;

/// Slots in a credit table (indexed by caller identity, see
/// `credit_slot_for_cap`).
pub const CREDIT_SLOTS: u64 = 256;

/// The credit-table slot for a caller whose `xcall-cap-reg` is `cap_pa`.
///
/// The caller identity the hardware deposits in `t0` is its capability
/// bitmap address — unforgeable, kernel-assigned. The kernel colors
/// bitmap addresses (see `XpcKernel::create_thread`), so bits 8.. of the
/// address discriminate callers; the kernel asserts slot uniqueness when
/// it grants credits.
pub(crate) fn credit_slot_for_cap(cap_pa: u64) -> u64 {
    (cap_pa >> 8) % CREDIT_SLOTS
}

/// Parameters for `emit_callee_trampoline`.
#[derive(Debug, Clone, Copy)]
pub struct TrampolineSpec {
    /// VA of the context-flag array (one u64 per context, 0 = idle).
    pub flags_va: u64,
    /// VA of the first C-stack (each `c_stack_bytes`, stacks grow down).
    pub cstacks_va: u64,
    /// Bytes per C-stack.
    pub c_stack_bytes: u64,
    /// Number of contexts.
    pub max_contexts: u64,
    /// VA of the real handler.
    pub handler_va: u64,
    /// Optional per-caller credit table (§6.1): a [`CREDIT_SLOTS`]-entry
    /// u64 array in the server's space. When set, the trampoline charges
    /// one credit per invocation before assigning a context and fails
    /// fast with [`ERR_NO_CREDIT`] at zero.
    pub credit_table_va: Option<u64>,
}

/// Emit the callee-side trampoline at the assembler's current position.
///
/// Register contract on entry (migrating thread): `a0..a7` carry the
/// caller's arguments, `t0` the caller identity; everything else is dead.
/// The handler is a normal function returning through `ra`, result in
/// `a0`.
pub(crate) fn emit_callee_trampoline(a: &mut Assembler, spec: &TrampolineSpec) {
    let uniq = a.here(); // make labels unique per emission site
    let l = |n: &str| format!("xpc_tramp_{n}_{uniq:x}");

    // Credit check (§6.1): charge the caller (identified by t0, which the
    // engine set and the caller cannot forge) one credit, or fail fast.
    if let Some(table_va) = spec.credit_table_va {
        a.li(reg::T1, table_va as i64);
        a.srli(reg::T2, reg::T0, 8);
        a.andi(reg::T2, reg::T2, (CREDIT_SLOTS - 1) as i64);
        a.slli(reg::T2, reg::T2, 3);
        a.add(reg::T1, reg::T1, reg::T2);
        a.ld(reg::T3, reg::T1, 0);
        a.beq(reg::T3, reg::ZERO, &l("no_credit"));
        a.addi(reg::T3, reg::T3, -1);
        a.sd(reg::T3, reg::T1, 0);
    }

    // Select an idle context. The claim is an atomic swap (RV64A), so
    // two simultaneous callers racing for the same slot cannot both win —
    // the paper's model explicitly supports "one x-entry of a server to
    // be invoked by multiple clients at the same time" (§4.2).
    a.li(reg::T1, spec.flags_va as i64);
    a.li(reg::T2, spec.max_contexts as i64);
    a.li(reg::T3, 0);
    a.label(&l("select"));
    a.bge(reg::T3, reg::T2, &l("no_ctx"));
    a.slli(reg::T4, reg::T3, 3);
    a.add(reg::T4, reg::T4, reg::T1);
    a.li(reg::T5, 1);
    a.amoswap_d(reg::T5, reg::T5, reg::T4);
    a.beq(reg::T5, reg::ZERO, &l("claim"));
    a.addi(reg::T3, reg::T3, 1);
    a.j(&l("select"));

    // Claimed: switch to the context's C-stack.
    a.label(&l("claim"));
    a.li(reg::T6, spec.cstacks_va as i64);
    a.addi(reg::T3, reg::T3, 1);
    a.li(reg::T5, spec.c_stack_bytes as i64);
    a.mul(reg::T3, reg::T3, reg::T5);
    a.add(reg::SP, reg::T6, reg::T3);
    // Keep the flag slot address across the handler call.
    a.addi(reg::SP, reg::SP, -16);
    a.sd(reg::T4, reg::SP, 0);

    // Invoke the handler.
    a.li(reg::T3, spec.handler_va as i64);
    a.jalr(reg::RA, reg::T3, 0);

    // Release the context and return to the caller's domain.
    a.ld(reg::T4, reg::SP, 0);
    a.addi(reg::SP, reg::SP, 16);
    a.sd(reg::ZERO, reg::T4, 0);
    a.xret();

    // No idle context: fail fast.
    a.label(&l("no_ctx"));
    a.li(reg::A0, ERR_NO_CONTEXT);
    a.xret();

    // Out of credits (only emitted when a credit table is configured;
    // harmless dead code otherwise is avoided by the label being unused).
    if spec.credit_table_va.is_some() {
        a.label(&l("no_credit"));
        a.li(reg::A0, ERR_NO_CREDIT);
        a.xret();
    }
}

/// Which caller-side register convention to wrap an `xcall` with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextMode {
    /// Spill/restore all callee-visible registers (Figure 5 "Full-Cxt").
    Full,
    /// Spill/restore only `sp`/`ra`/`gp`/`tp` (Figure 5 "Partial-Cxt").
    Partial,
}

/// Registers a full-context caller saves around an `xcall` (everything
/// except `zero` and the argument registers, which carry the message).
const FULL_SAVE: [u8; 19] = [
    reg::RA,
    reg::SP,
    reg::GP,
    reg::TP,
    reg::T1,
    reg::T2,
    reg::S0,
    reg::S1,
    reg::S2,
    reg::S3,
    reg::S4,
    reg::S5,
    reg::S6,
    reg::S7,
    reg::S8,
    reg::S9,
    reg::S10,
    reg::S11,
    reg::T3,
];

const PARTIAL_SAVE: [u8; 4] = [reg::RA, reg::SP, reg::GP, reg::TP];

/// The registers a given [`ContextMode`] saves (for harnesses that need
/// to emit the wrapper piecewise around measurement labels).
pub fn save_regs(mode: ContextMode) -> &'static [u8] {
    match mode {
        ContextMode::Full => &FULL_SAVE,
        ContextMode::Partial => &PARTIAL_SAVE,
    }
}

/// Bytes a caller save area must provide.
pub fn save_area_bytes(mode: ContextMode) -> u64 {
    match mode {
        ContextMode::Full => 8 * FULL_SAVE.len() as u64,
        ContextMode::Partial => 8 * PARTIAL_SAVE.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trampoline_assembles() {
        let mut a = Assembler::new(0x1_0000);
        emit_callee_trampoline(
            &mut a,
            &TrampolineSpec {
                flags_va: 0x2000_0000,
                cstacks_va: 0x2000_1000,
                c_stack_bytes: 4096,
                max_contexts: 4,
                handler_va: 0x1_2000,
                credit_table_va: None,
            },
        );
        let words = a.assemble();
        assert!(words.len() > 20);
    }

    #[test]
    fn two_trampolines_in_one_program() {
        // Labels must be unique per emission site.
        let mut a = Assembler::new(0x1_0000);
        let spec = TrampolineSpec {
            flags_va: 0x2000_0000,
            cstacks_va: 0x2000_1000,
            c_stack_bytes: 4096,
            max_contexts: 1,
            handler_va: 0x1_2000,
            credit_table_va: Some(0x2000_4000),
        };
        emit_callee_trampoline(&mut a, &spec);
        emit_callee_trampoline(&mut a, &spec);
        let _ = a.assemble();
    }

    #[test]
    fn full_saves_more_than_partial() {
        assert!(save_area_bytes(ContextMode::Full) > save_area_bytes(ContextMode::Partial));
    }
}
