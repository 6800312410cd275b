//! End-to-end IPC scenarios on the emulated machine: real page tables,
//! real `xcall`/`xret`, real relay segments.

use rv64::trap::Cause;
use rv64::{reg, Assembler};
use xpc::kernel::{syscall, KernelEvent, XpcKernel, XpcKernelConfig, ERR_TIMEOUT};
use xpc::layout::USER_CODE_VA;
use xpc::trampoline::ERR_NO_CONTEXT;
use xpc::{XEntryId, XpcError};
use xpc_engine::csr_map;
use xpc_engine::XpcAsm;

/// Shorthand: assemble code starting at the process's first code VA.
fn asm() -> Assembler {
    Assembler::new(USER_CODE_VA)
}

fn exit_syscall(a: &mut Assembler) {
    a.li(reg::A7, syscall::EXIT as i64);
    a.ecall();
}

#[test]
fn cross_process_call_round_trip() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();

    // Server handler: a0 += 1000; return.
    let mut h = asm();
    h.li(reg::T1, 1000);
    h.add(reg::A0, reg::A0, reg::T1);
    h.ret();
    let handler_va = k.load_code(pb, &h.assemble()).unwrap();

    let entry = k.register_entry(server, server, handler_va, 2).unwrap();
    k.grant_xcall(server, client, entry).unwrap();

    // Client: xcall entry with a0 = 7; exit with the result.
    let mut c = asm();
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    exit_syscall(&mut c);
    let client_va = k.load_code(pa, &c.assemble()).unwrap();

    k.enter_thread(client, client_va, &[7]).unwrap();
    let ev = k.run(1_000_000).unwrap();
    assert_eq!(ev, KernelEvent::ThreadExit(1007));

    // The engine really crossed address spaces and back.
    let st = k.engine().stats;
    assert_eq!(st.xcalls, 1);
    assert_eq!(st.xrets, 1);
}

#[test]
fn relay_segment_passes_message_zero_copy() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();

    // Server handler: sum the bytes of the relay segment it was handed.
    let mut h = asm();
    h.csrr(reg::T1, csr_map::XPC_SEG_VA);
    h.csrr(reg::T2, csr_map::XPC_SEG_LEN_PERM);
    h.slli(reg::T2, reg::T2, 16); // strip the permission bit,
    h.srli(reg::T2, reg::T2, 16); // keep the 48-bit length
    h.li(reg::A0, 0);
    h.label("loop");
    h.beq(reg::T2, reg::ZERO, "done");
    h.lbu(reg::T3, reg::T1, 0);
    h.add(reg::A0, reg::A0, reg::T3);
    h.addi(reg::T1, reg::T1, 1);
    h.addi(reg::T2, reg::T2, -1);
    h.j("loop");
    h.label("done");
    h.ret();
    let handler_va = k.load_code(pb, &h.assemble()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();
    k.grant_xcall(server, client, entry).unwrap();

    // Client writes the message *through the segment window* itself.
    let seg = k.alloc_relay_seg(client, 8).unwrap();
    k.install_seg(client, seg).unwrap();
    let seg_va = k.segs.seg_reg(seg).va_base;

    let mut c = asm();
    c.li(reg::T1, seg_va as i64);
    for (i, b) in [3i64, 9, 27, 81].iter().enumerate() {
        c.li(reg::T2, *b);
        c.sb(reg::T2, reg::T1, i as i64);
    }
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    exit_syscall(&mut c);
    let client_va = k.load_code(pa, &c.assemble()).unwrap();

    k.enter_thread(client, client_va, &[]).unwrap();
    let ev = k.run(1_000_000).unwrap();
    // 3+9+27+81 = 120 plus four zero bytes (segment is 8 bytes long).
    assert_eq!(ev, KernelEvent::ThreadExit(120));
    // Zero-copy: the client's stores landed in the segment's physical
    // frames, and the server read the same frames.
    assert_eq!(k.read_seg(seg, 0, 4).unwrap(), vec![3, 9, 27, 81]);
}

#[test]
fn capability_denied_without_grant() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();

    let mut h = asm();
    h.ret();
    let handler_va = k.load_code(pb, &h.assemble()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();
    // No grant_xcall for the client.

    let mut c = asm();
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    exit_syscall(&mut c);
    let client_va = k.load_code(pa, &c.assemble()).unwrap();

    k.enter_thread(client, client_va, &[]).unwrap();
    match k.run(100_000).unwrap() {
        KernelEvent::Fault { cause, tval, .. } => {
            assert_eq!(cause, Cause::InvalidXcallCap);
            assert_eq!(tval, entry.0);
        }
        other => panic!("expected capability fault, got {other:?}"),
    }
}

#[test]
fn grant_requires_grant_cap() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();
    let outsider = k.create_thread(pa).unwrap();

    let mut h = asm();
    h.ret();
    let handler_va = k.load_code(pb, &h.assemble()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();

    // The outsider holds no grant-cap, so it cannot grant.
    assert!(k.grant_xcall(outsider, client, entry).is_err());
    // The server can delegate the grant-cap, after which it works.
    k.grant_grant(server, outsider, entry).unwrap();
    k.grant_xcall(outsider, client, entry).unwrap();
}

#[test]
fn revoking_an_unregistered_entry_is_an_error() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pid = k.create_process().unwrap();
    let client = k.create_thread(pid).unwrap();
    let caps = k.create_thread(pid).unwrap();
    // An id far past the table, one whose bit would land in the next
    // thread's capability bitmap, and a free slot of the table.
    for id in [u64::MAX, 1 << 13, 7] {
        let err = k.revoke_xcall(client, XEntryId(id)).unwrap_err();
        assert_eq!(err, XpcError::NoSuchEntry(id));
    }
    assert!(
        k.revoke_xcall(caps, XEntryId(0)).is_ok(),
        "entry 0 is reserved"
    );
}

#[test]
fn three_process_chain_with_termination_unwinds_to_root() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let pc = k.create_process().unwrap();
    let ta = k.create_thread(pa).unwrap();
    let tb = k.create_thread(pb).unwrap();
    let tc = k.create_thread(pc).unwrap();

    // C's handler: spin a while (so the host can kill B mid-call), then
    // return 5.
    let mut hc = asm();
    hc.li(reg::T1, 20_000);
    hc.label("spin");
    hc.addi(reg::T1, reg::T1, -1);
    hc.bne(reg::T1, reg::ZERO, "spin");
    hc.li(reg::A0, 5);
    hc.ret();
    let hc_va = k.load_code(pc, &hc.assemble()).unwrap();
    let entry_c = k.register_entry(tc, tc, hc_va, 1).unwrap();

    // B's handler: call C, add 100, return.
    let mut hb = asm();
    hb.li(reg::T6, entry_c.0 as i64);
    hb.xcall(reg::T6);
    hb.addi(reg::A0, reg::A0, 100);
    hb.ret();
    let hb_va = k.load_code(pb, &hb.assemble()).unwrap();
    let entry_b = k.register_entry(tb, tb, hb_va, 1).unwrap();

    k.grant_xcall(tc, tb, entry_c).unwrap();
    k.grant_xcall(tb, ta, entry_b).unwrap();

    // A: call B, exit with the result.
    let mut ca = asm();
    ca.li(reg::T6, entry_b.0 as i64);
    ca.xcall(reg::T6);
    exit_syscall(&mut ca);
    let ca_va = k.load_code(pa, &ca.assemble()).unwrap();

    k.enter_thread(ta, ca_va, &[]).unwrap();
    // Run until we are (with high probability) inside C's spin loop.
    let ev = k.run(5_000).unwrap();
    assert_eq!(ev, KernelEvent::Timeout, "C should still be spinning");

    // Kill B while its call to C is outstanding (§4.2's A -> B -> C case).
    k.terminate_process(pb).unwrap();
    assert!(!k.is_alive(pb).unwrap());

    // C finishes and xrets: B's linkage record is dead, so the kernel
    // unwinds to A with a timeout error.
    let ev = k.run(10_000_000).unwrap();
    assert_eq!(ev, KernelEvent::ThreadExit(ERR_TIMEOUT));
}

#[test]
fn per_invocation_contexts_exhaust_gracefully() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();

    // Handler (max_contexts = 1): on its first invocation it re-enters
    // itself; the nested call must fail fast with ERR_NO_CONTEXT, which
    // the handler then propagates +1.
    // a1 = recursion flag (0 = outer call).
    let mut h = asm();
    h.bne(reg::A1, reg::ZERO, "inner");
    h.li(reg::A1, 1);
    h.li(reg::T6, 1); // entry id 1 (first registered; 0 is reserved)
    h.xcall(reg::T6);
    h.addi(reg::A0, reg::A0, 1);
    h.ret();
    h.label("inner");
    h.li(reg::A0, 7777); // never reached: no context is available
    h.ret();
    let handler_va = k.load_code(pb, &h.assemble()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();
    assert_eq!(entry.0, 1, "test encodes entry id 1 in the handler");
    k.grant_xcall(server, client, entry).unwrap();
    // The handler thread itself needs the capability for the nested call.
    k.grant_xcall(server, server, entry).unwrap();

    let mut c = asm();
    c.li(reg::A1, 0);
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    exit_syscall(&mut c);
    let client_va = k.load_code(pa, &c.assemble()).unwrap();

    k.enter_thread(client, client_va, &[]).unwrap();
    let ev = k.run(1_000_000).unwrap();
    assert_eq!(
        ev,
        KernelEvent::ThreadExit((ERR_NO_CONTEXT + 1) as u64),
        "nested call fails fast, outer call succeeds"
    );
}

#[test]
fn seg_mask_shrinks_what_callee_sees() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();

    // Server: return the segment length it sees.
    let mut h = asm();
    h.csrr(reg::A0, csr_map::XPC_SEG_LEN_PERM);
    h.slli(reg::A0, reg::A0, 16);
    h.srli(reg::A0, reg::A0, 16);
    h.ret();
    let handler_va = k.load_code(pb, &h.assemble()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();
    k.grant_xcall(server, client, entry).unwrap();

    let seg = k.alloc_relay_seg(client, 4096).unwrap();
    k.install_seg(client, seg).unwrap();
    let seg_va = k.segs.seg_reg(seg).va_base;

    // Client masks the segment down to 64 bytes at +128 before calling.
    let mut c = asm();
    c.li(reg::T1, (seg_va + 128) as i64);
    c.csrw(csr_map::XPC_SEG_MASK_VA, reg::T1);
    c.li(reg::T1, 64);
    c.csrw(csr_map::XPC_SEG_MASK_LEN, reg::T1);
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    exit_syscall(&mut c);
    let client_va = k.load_code(pa, &c.assemble()).unwrap();

    k.enter_thread(client, client_va, &[]).unwrap();
    let ev = k.run(1_000_000).unwrap();
    assert_eq!(ev, KernelEvent::ThreadExit(64), "callee sees only the mask");
}

#[test]
fn second_call_is_cheaper_than_first() {
    // Warm-up effects (caches, TLB fills) must show up in the timing
    // model: the second identical IPC costs fewer cycles than the first.
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();

    let mut h = asm();
    h.ret();
    let handler_va = k.load_code(pb, &h.assemble()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();
    k.grant_xcall(server, client, entry).unwrap();

    // Client: two calls with a cycle read around each (rdcycle via csr).
    let mut c = asm();
    for _ in 0..2 {
        c.li(reg::T6, entry.0 as i64);
        c.xcall(reg::T6);
    }
    exit_syscall(&mut c);
    let client_va = k.load_code(pa, &c.assemble()).unwrap();

    k.enter_thread(client, client_va, &[]).unwrap();
    // Measure host-side by stepping: record cycles at each xcall return.
    let ev = k.run(1_000_000).unwrap();
    assert_eq!(ev, KernelEvent::ThreadExit(0));
    let st = k.engine().stats;
    assert_eq!(st.xcalls, 2);
    assert_eq!(st.xrets, 2);
}

#[test]
fn killing_the_running_callee_returns_to_the_caller() {
    // A calls B; while B executes, the kernel kills *B itself* (not a
    // middle process). B's zeroed page table faults on its next fetch,
    // and the kernel returns control to A with a timeout error.
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let ta = k.create_thread(pa).unwrap();
    let tb = k.create_thread(pb).unwrap();

    let mut hb = asm();
    hb.li(reg::T1, 50_000);
    hb.label("spin");
    hb.addi(reg::T1, reg::T1, -1);
    hb.bne(reg::T1, reg::ZERO, "spin");
    hb.ret();
    let hb_va = k.load_code(pb, &hb.assemble()).unwrap();
    let entry_b = k.register_entry(tb, tb, hb_va, 1).unwrap();
    k.grant_xcall(tb, ta, entry_b).unwrap();

    let mut ca = asm();
    ca.li(reg::T6, entry_b.0 as i64);
    ca.xcall(reg::T6);
    exit_syscall(&mut ca);
    let ca_va = k.load_code(pa, &ca.assemble()).unwrap();

    k.enter_thread(ta, ca_va, &[]).unwrap();
    let ev = k.run(5_000).unwrap();
    assert_eq!(ev, KernelEvent::Timeout, "B should still be spinning");
    k.terminate_process(pb).unwrap();
    // B's next instruction fetch faults in the zeroed space; the kernel
    // unwinds to A.
    let ev = k.run(10_000_000).unwrap();
    assert_eq!(ev, KernelEvent::ThreadExit(ERR_TIMEOUT));
}
