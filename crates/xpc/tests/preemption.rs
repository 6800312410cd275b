//! Preemptive scheduling on top of the split thread state (§4.2): the
//! machine timer interrupts running user code, the kernel round-robins
//! between threads, and everyone finishes with intact register state.

use rv64::{reg, Assembler};
use xpc::kernel::{syscall, KernelEvent, XpcKernel, XpcKernelConfig};
use xpc::layout::USER_CODE_VA;

/// A counting loop: increments the u64 at `counter_va` `n` times, then
/// exits with the final value (which it keeps in a register the whole
/// time — so lost register state would be detected).
fn counting_thread(counter_va: u64, n: i64) -> Vec<u32> {
    let mut a = Assembler::new(USER_CODE_VA);
    a.li(reg::T1, counter_va as i64);
    a.li(reg::S2, n);
    a.li(reg::S3, 0); // running copy of the count, in a register
    a.label("loop");
    a.ld(reg::T2, reg::T1, 0);
    a.addi(reg::T2, reg::T2, 1);
    a.sd(reg::T2, reg::T1, 0);
    a.addi(reg::S3, reg::S3, 1);
    a.bne(reg::S3, reg::S2, "loop");
    a.mv(reg::A0, reg::S3);
    a.li(reg::A7, syscall::EXIT as i64);
    a.ecall();
    a.assemble()
}

#[test]
fn timer_round_robin_between_two_processes() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let ta = k.create_thread(pa).unwrap();
    let tb = k.create_thread(pb).unwrap();

    let n = 400i64;
    let (ctr_a_va, ctr_a_pa) = k.alloc_data(pa, 1).unwrap();
    let (ctr_b_va, ctr_b_pa) = k.alloc_data(pb, 1).unwrap();
    let code_a = k.load_code(pa, &counting_thread(ctr_a_va, n)).unwrap();
    let code_b = k.load_code(pb, &counting_thread(ctr_b_va, n)).unwrap();

    k.enter_thread(ta, code_a, &[]).unwrap();
    k.set_timer(700);
    // Thread B starts lazily on its first turn.
    let mut b_started = false;
    let mut current = ta;
    let mut ticks = 0u32;
    let mut done = Vec::new();

    while done.len() < 2 {
        match k.run(1_000_000).unwrap() {
            KernelEvent::TimerFired => {
                ticks += 1;
                // Round-robin to the other thread (if it hasn't exited).
                let next = if current == ta { tb } else { ta };
                if !done.contains(&next) {
                    if next == tb && !b_started {
                        k.enter_thread(tb, code_b, &[]).unwrap();
                        b_started = true;
                    } else {
                        k.resume_thread(next).unwrap();
                    }
                    current = next;
                }
                k.set_timer(700);
            }
            KernelEvent::ThreadExit(v) => {
                assert_eq!(v, n as u64, "thread's register count survived preemption");
                done.push(current);
                if done.len() == 2 {
                    break;
                }
                // Switch to the remaining thread.
                let next = if current == ta { tb } else { ta };
                if next == tb && !b_started {
                    k.enter_thread(tb, code_b, &[]).unwrap();
                    b_started = true;
                } else {
                    k.resume_thread(next).unwrap();
                }
                current = next;
                k.set_timer(700);
            }
            other => panic!("unexpected event: {other:?}"),
        }
        assert!(ticks < 10_000, "livelock");
    }

    // Both memory counters completed despite interleaving.
    let a_count = k.machine.core.mem.read(ctr_a_pa, 8).unwrap();
    let b_count = k.machine.core.mem.read(ctr_b_pa, 8).unwrap();
    assert_eq!(a_count, n as u64);
    assert_eq!(b_count, n as u64);
    assert!(ticks >= 4, "the timer really preempted ({ticks} ticks)");
}

#[test]
fn disarmed_timer_never_fires() {
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let ta = k.create_thread(pa).unwrap();
    let (ctr_va, _) = k.alloc_data(pa, 1).unwrap();
    let code = k.load_code(pa, &counting_thread(ctr_va, 200)).unwrap();
    k.enter_thread(ta, code, &[]).unwrap();
    k.set_timer(0); // disarm
    let ev = k.run(1_000_000).unwrap();
    assert_eq!(ev, KernelEvent::ThreadExit(200));
}

#[test]
fn preemption_preserves_xpc_state_across_a_call() {
    // Preempt while the migrating thread is inside a *callee*, switch to
    // another thread, come back, and the xret must still work — the
    // engine per-thread registers (link stack!) are part of the saved
    // runtime state.
    use xpc_engine::XpcAsm;
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let pa = k.create_process().unwrap();
    let pb = k.create_process().unwrap();
    let server = k.create_thread(pb).unwrap();
    let client = k.create_thread(pa).unwrap();
    let other = k.create_thread(pa).unwrap();

    // Server handler: spin a while, then return 7.
    let mut h = Assembler::new(USER_CODE_VA);
    h.li(reg::T1, 3000);
    h.label("spin");
    h.addi(reg::T1, reg::T1, -1);
    h.bne(reg::T1, reg::ZERO, "spin");
    h.li(reg::A0, 7);
    h.ret();
    let handler_va = k.load_code(pb, &h.assemble()).unwrap();
    let entry = k.register_entry(server, server, handler_va, 1).unwrap();
    k.grant_xcall(server, client, entry).unwrap();

    let mut c = Assembler::new(USER_CODE_VA);
    c.li(reg::T6, entry.0 as i64);
    c.xcall(reg::T6);
    c.li(reg::A7, syscall::EXIT as i64);
    c.ecall();
    let client_va = k.load_code(pa, &c.assemble()).unwrap();

    // A second, independent thread to run during the preemption window.
    let (ctr_va, _) = k.alloc_data(pa, 1).unwrap();
    let other_code_va = k.load_code(pa, &counting_thread(ctr_va, 50)).unwrap();

    k.enter_thread(client, client_va, &[]).unwrap();
    k.set_timer(800); // fires while the handler spins in the *server's* space
    let ev = k.run(1_000_000).unwrap();
    assert_eq!(ev, KernelEvent::TimerFired);

    // Run the other thread to completion, then resume the preempted call.
    k.enter_thread(other, other_code_va, &[]).unwrap();
    let ev = k.run(1_000_000).unwrap();
    assert_eq!(ev, KernelEvent::ThreadExit(50));

    k.resume_thread(client).unwrap();
    let ev = k.run(10_000_000).unwrap();
    assert_eq!(
        ev,
        KernelEvent::ThreadExit(7),
        "xret survived the preemption"
    );
}

#[test]
fn run_budget_counts_only_its_own_instructions() {
    // Regression: `run` subtracted the machine's *cumulative* instret
    // from its budget, so on a kernel that had already retired more
    // instructions than the budget, the first internally-handled trap
    // (here `syscall::YIELD`) collapsed the remainder to 0 and a guest
    // with plenty of budget left reported `Timeout`.
    let mut k = XpcKernel::boot(XpcKernelConfig::default());
    let warm_proc = k.create_process().unwrap();
    let warm = k.create_thread(warm_proc).unwrap();
    let (ctr_va, _) = k.alloc_data(warm_proc, 1).unwrap();
    let warm_code = k
        .load_code(warm_proc, &counting_thread(ctr_va, 400))
        .unwrap();
    k.enter_thread(warm, warm_code, &[]).unwrap();
    assert_eq!(k.run(1_000_000).unwrap(), KernelEvent::ThreadExit(400));

    let proc = k.create_process().unwrap();
    let tid = k.create_thread(proc).unwrap();
    let mut a = Assembler::new(USER_CODE_VA);
    for _ in 0..2 {
        a.li(reg::A7, syscall::YIELD as i64);
        a.ecall();
    }
    a.li(reg::A0, 7);
    a.li(reg::A7, syscall::EXIT as i64);
    a.ecall();
    let code = k.load_code(proc, &a.assemble()).unwrap();
    k.enter_thread(tid, code, &[]).unwrap();
    assert_eq!(k.run(1_000).unwrap(), KernelEvent::ThreadExit(7));
}
