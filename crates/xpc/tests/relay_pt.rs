//! The §6.2 "Relay Page Table" extension end to end: non-contiguous
//! backing memory behind the relay window, page-granular masks, and the
//! cost difference against contiguous segments.

use rv64::trap::Cause;
use rv64::{reg, Assembler};
use xpc::kernel::{syscall, KernelEvent, XpcKernel, XpcKernelConfig};
use xpc::layout::USER_CODE_VA;
use xpc::{SegHandle, XpcError};
use xpc_engine::{csr_map, XpcAsm};

fn asm() -> Assembler {
    Assembler::new(USER_CODE_VA)
}

fn exit_syscall(a: &mut Assembler) {
    a.li(reg::A7, syscall::EXIT as i64);
    a.ecall();
}

/// Handler: sum every byte of the current relay segment.
fn sum_handler() -> Vec<u32> {
    let mut h = asm();
    h.csrr(reg::T1, csr_map::XPC_SEG_VA);
    h.csrr(reg::T2, csr_map::XPC_SEG_LEN_PERM);
    h.slli(reg::T2, reg::T2, 16);
    h.srli(reg::T2, reg::T2, 16);
    h.li(reg::A0, 0);
    h.label("sum");
    h.beq(reg::T2, reg::ZERO, "out");
    h.lbu(reg::T3, reg::T1, 0);
    h.add(reg::A0, reg::A0, reg::T3);
    h.addi(reg::T1, reg::T1, 1);
    h.addi(reg::T2, reg::T2, -1);
    h.j("sum");
    h.label("out");
    h.ret();
    h.assemble()
}

#[test]
fn paged_segment_with_scattered_frames_round_trips() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();

    // Populate the free list so the paged allocation's frames come out
    // scattered (LIFO reuse reverses physical order).
    let tmp = k.alloc_relay_seg(client, 3 * 4096).unwrap();
    k.free_relay_seg(client, tmp).unwrap();

    let seg = k.alloc_relay_pt_seg(client, 3).unwrap();
    assert!(k.segs.seg_reg(seg).paged);
    k.install_seg(client, seg).unwrap();

    // The window must behave exactly like contiguous memory: write a
    // pattern across page boundaries host-side, sum it guest-side.
    let payload: Vec<u8> = (0..3 * 4096u32).map(|i| (i % 7) as u8).collect();
    k.write_seg(seg, 0, &payload).unwrap();
    assert_eq!(
        k.read_seg(seg, 4090, 12).unwrap(),
        payload[4090..4102].to_vec(),
        "host view crosses page boundary"
    );

    let handler_va = k.load_code(pb, &sum_handler()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();
    k.grant_xcall(server, client, entry).unwrap();

    let mut c = asm();
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    exit_syscall(&mut c);
    let client_va = k.load_code(pa, &c.assemble()).unwrap();
    k.enter_thread(client, client_va, &[]).unwrap();
    let ev = k.run(10_000_000).unwrap();
    let expected: u64 = payload.iter().map(|&b| b as u64).sum();
    assert_eq!(ev, KernelEvent::ThreadExit(expected));
}

#[test]
fn paged_masks_must_be_page_granular() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let client = k.create_thread(pa).unwrap();
    let seg = k.alloc_relay_pt_seg(client, 2).unwrap();
    k.install_seg(client, seg).unwrap();
    let seg_va = k.segs.seg_reg(seg).va_base;

    // Sub-page mask on a paged segment: invalid seg-mask exception.
    let mut c = asm();
    c.li(reg::T1, (seg_va + 64) as i64);
    c.csrw(csr_map::XPC_SEG_MASK_VA, reg::T1);
    c.li(reg::T1, 128);
    c.csrw(csr_map::XPC_SEG_MASK_LEN, reg::T1);
    exit_syscall(&mut c);
    let va = k.load_code(pa, &c.assemble()).unwrap();
    k.enter_thread(client, va, &[]).unwrap();
    match k.run(100_000).unwrap() {
        KernelEvent::Fault { cause, .. } => assert_eq!(cause, Cause::InvalidSegMask),
        other => panic!("sub-page mask must fault, got {other:?}"),
    }
}

#[test]
fn page_granular_mask_selects_the_right_page() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();

    let seg = k.alloc_relay_pt_seg(client, 3).unwrap();
    k.install_seg(client, seg).unwrap();
    let seg_va = k.segs.seg_reg(seg).va_base;
    // Page 0 = 1s, page 1 = 2s, page 2 = 3s.
    for p in 0..3u8 {
        k.write_seg(seg, p as u64 * 4096, &vec![p + 1; 4096])
            .unwrap();
    }

    let handler_va = k.load_code(pb, &sum_handler()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();
    k.grant_xcall(server, client, entry).unwrap();

    // Mask down to page 1 only; the callee must see exactly 4096 * 2.
    let mut c = asm();
    c.li(reg::T1, (seg_va + 4096) as i64);
    c.csrw(csr_map::XPC_SEG_MASK_VA, reg::T1);
    c.li(reg::T1, 4096);
    c.csrw(csr_map::XPC_SEG_MASK_LEN, reg::T1);
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    exit_syscall(&mut c);
    let va = k.load_code(pa, &c.assemble()).unwrap();
    k.enter_thread(client, va, &[]).unwrap();
    let ev = k.run(10_000_000).unwrap();
    assert_eq!(ev, KernelEvent::ThreadExit(4096 * 2));
}

#[test]
fn paged_access_costs_more_than_contiguous() {
    // The §6.2 trade-off: one extra walk access per translation. Measure
    // a guest loop summing 512 bytes through each window type.
    fn run_sum(paged: bool) -> u64 {
        let mut k = XpcKernel::boot(XpcKernelConfig::default());
        let pa = k.create_process().unwrap();
        let client = k.create_thread(pa).unwrap();
        let seg = if paged {
            k.alloc_relay_pt_seg(client, 1).unwrap()
        } else {
            k.alloc_relay_seg(client, 4096).unwrap()
        };
        k.install_seg(client, seg).unwrap();
        let seg_va = k.segs.seg_reg(seg).va_base;
        let mut c = asm();
        c.li(reg::T1, seg_va as i64);
        c.li(reg::T2, 512);
        c.li(reg::A0, 0);
        c.label("sum");
        c.lbu(reg::T3, reg::T1, 0);
        c.add(reg::A0, reg::A0, reg::T3);
        c.addi(reg::T1, reg::T1, 1);
        c.addi(reg::T2, reg::T2, -1);
        c.bne(reg::T2, reg::ZERO, "sum");
        exit_syscall(&mut c);
        let va = k.load_code(pa, &c.assemble()).unwrap();
        k.enter_thread(client, va, &[]).unwrap();
        let before = k.machine.core.cycles;
        let ev = k.run(1_000_000).unwrap();
        assert_eq!(ev, KernelEvent::ThreadExit(0));
        k.machine.core.cycles - before
    }
    let contiguous = run_sum(false);
    let paged = run_sum(true);
    assert!(
        paged > contiguous,
        "paged ({paged}) must pay the extra walk over contiguous ({contiguous})"
    );
    assert!(
        paged < contiguous * 4,
        "but stay the same order of magnitude"
    );
}

#[test]
fn free_returns_scattered_frames() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let client = k.create_thread(pa).unwrap();
    let seg = k.alloc_relay_pt_seg(client, 4).unwrap();
    k.free_relay_seg(client, seg).unwrap();
    // Freed frames are reusable: a fresh contiguous allocation succeeds
    // and the registry invariants hold.
    let seg2 = k.alloc_relay_seg(client, 4096).unwrap();
    assert!(k.segs.check_invariants().is_ok());
    assert!(!k.segs.seg_reg(seg2).paged);
}

#[test]
fn seg_access_with_wrapping_offset_is_a_typed_error() {
    use xpc::error::XpcError;
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let t = k.create_thread(pa).unwrap();
    let seg = k.alloc_relay_seg(t, 64).unwrap();
    // offset + len wraps u64 — an unchecked sum would pass the bound.
    let err = k.write_seg(seg, u64::MAX - 8, &[0u8; 32]).unwrap_err();
    assert!(matches!(err, XpcError::SegOutOfBounds { .. }), "{err}");
    let err = k.read_seg(seg, u64::MAX - 8, 32).unwrap_err();
    assert!(matches!(err, XpcError::SegOutOfBounds { .. }), "{err}");
    // A plain escape is the same typed error, and in-bounds still works.
    assert!(k.read_seg(seg, 60, 8).is_err());
    k.write_seg(seg, 0, &[1u8; 64]).unwrap();
    assert_eq!(k.read_seg(seg, 0, 64).unwrap(), vec![1u8; 64]);
}

#[test]
fn a_relay_page_table_maps_one_frame_of_pages() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pid = k.create_process().unwrap();
    let client = k.create_thread(pid).unwrap();
    for pages in [0, 513] {
        let err = k.alloc_relay_pt_seg(client, pages).unwrap_err();
        assert_eq!(err, XpcError::OutOfMemory, "{pages} pages");
    }
    let seg = k.alloc_relay_pt_seg(client, 512).unwrap();
    k.free_relay_seg(client, seg).unwrap();
}

#[test]
fn an_unknown_or_freed_handle_is_not_owned() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pid = k.create_process().unwrap();
    let client = k.create_thread(pid).unwrap();
    let freed = k.alloc_relay_seg(client, 4096).unwrap();
    k.free_relay_seg(client, freed).unwrap();
    for h in [SegHandle(99), freed] {
        let not_owned = XpcError::SegNotOwned {
            seg: h.0,
            owner: None,
        };
        assert_eq!(k.free_relay_seg(client, h), Err(not_owned.clone()));
        assert_eq!(k.stash_seg(pid, 0, h), Err(not_owned));
    }
}
