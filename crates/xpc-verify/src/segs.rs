//! Check (c): relay segments obey single-owner semantics along every
//! `swapseg`/handover interleaving, and never leak a previous holder's
//! bytes across an ownership change.
//!
//! The abstract domain is a per-segment **ownership automaton**:
//!
//! ```text
//!           Alloc            Install        HandoverCall{to}
//!   (none) ───────▶ Loose ───────────▶ Installed ───────────▶ Installed(to)
//!                     ▲  ╲ Stash          │  ▲
//!                     │   ╲               ▼  │ Swap (slot must
//!                     │    ▶ Stashed ◀────┘  │  hold a segment)
//!                     └──────── Free ▶ Freed
//! ```
//!
//! crossed with a per-segment **taint automaton**: a segment is `Zeroed`
//! at `Alloc` (fresh frames) and after an explicit `SegOp::Zero`, and
//! becomes `Tainted` whenever it picks up a previous holder's bytes — a
//! `Swap` pulls back a segment that parked mid-request, a handover
//! arrives carrying the sender's writes. Handing a tainted segment to a
//! thread in a *different process* without an interposed zero is a
//! **data-leak finding** ([`crate::Verdict::DataLeak`]): no trap fires
//! at runtime, which is exactly why the hardened kernel prices a
//! zero-on-handover scrub instead of relying on an exception.
//!
//! Each thread also keeps a seg-reg window that may only **shrink**
//! (§4.4 "Message Shrink") — and the window *travels with the handover*:
//! the callee inherits the caller's shrunk window, so a post-handover
//! mask that widens it predicts [`Cause::InvalidSegMask`] exactly as the
//! `XPC_SEG_MASK_LEN` CSR write would trap. Ownership violations —
//! double-install, stash into an occupied slot, swapping an empty slot,
//! use-after-free — predict [`Cause::SwapsegError`], matching
//! `XpcEngine::exec_swapseg`.
//!
//! Every finding is anchored: [`Finding::op_index`] names the first
//! violating [`SegOp`] by index into [`Plan::seg_ops`].

use crate::finding::Finding;
use crate::plan::{Plan, SegOp};
use rv64::trap::Cause;
use std::collections::HashMap;

/// Mask granularity on paged relay segments (the relay page table maps
/// whole pages, so sub-page windows cannot be expressed).
const PAGE: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegState {
    /// Owned by a thread, not installed anywhere.
    Loose(usize),
    /// Live in a thread's seg-reg.
    Installed(usize),
    /// Parked in a process seg-list slot.
    Stashed(usize, u64),
    /// Frames returned; any further touch is use-after-free.
    Freed,
}

/// Taint state of a segment's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Taint {
    /// Known-zero (fresh alloc, or an explicit `SegOp::Zero` ran).
    Zeroed,
    /// Holds bytes written by a previous holder.
    Tainted,
}

#[derive(Debug, Clone, Copy)]
struct Window {
    seg: usize,
    lo: u64,
    hi: u64,
}

#[derive(Debug, Clone, Copy)]
struct SegMeta {
    len: u64,
    paged: bool,
}

/// Walk the plan's seg-op sequence through the automaton. An op that
/// violates the automaton is recorded and **skipped** (its state effect
/// does not apply), so one bad op does not cascade into noise. The one
/// exception is a data-leak handover: the transfer itself succeeds at
/// runtime (nothing traps), so its state effect *does* apply.
pub(crate) fn check(plan: &Plan) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut states: HashMap<usize, SegState> = HashMap::new();
    let mut taints: HashMap<usize, Taint> = HashMap::new();
    let mut metas: HashMap<usize, SegMeta> = HashMap::new();
    let mut regs: HashMap<usize, Window> = HashMap::new();
    let mut slots: HashMap<(usize, u64), usize> = HashMap::new();
    let process_of = |thread: usize| plan.threads.get(thread).copied().unwrap_or(thread);
    for (i, op) in plan.seg_ops.iter().enumerate() {
        let site = format!("seg-op {i}");
        match *op {
            SegOp::Alloc {
                seg,
                owner,
                len,
                paged,
            } => {
                if states.contains_key(&seg) {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!("segment {seg} allocated twice"),
                    ));
                    continue;
                }
                states.insert(seg, SegState::Loose(owner));
                taints.insert(seg, Taint::Zeroed);
                metas.insert(seg, SegMeta { len, paged });
            }
            SegOp::Install { thread, seg } => {
                match states.get(&seg) {
                    None | Some(SegState::Freed) => {
                        findings.push(Finding::trap_at(
                            Cause::SwapsegError,
                            i,
                            site,
                            format!("install of freed or never-allocated segment {seg}"),
                        ));
                        continue;
                    }
                    Some(SegState::Installed(t)) => {
                        findings.push(Finding::trap_at(
                            Cause::SwapsegError,
                            i,
                            site,
                            format!("segment {seg} already installed in thread {t}'s seg-reg"),
                        ));
                        continue;
                    }
                    Some(SegState::Stashed(p, s)) => {
                        findings.push(Finding::trap_at(
                            Cause::SwapsegError,
                            i,
                            site,
                            format!("segment {seg} is stashed in slot {s} of process {p}; swapseg retrieves it"),
                        ));
                        continue;
                    }
                    Some(SegState::Loose(o)) if *o != thread => {
                        findings.push(Finding::trap_at(
                            Cause::SwapsegError,
                            i,
                            site,
                            format!("thread {thread} does not own segment {seg} (thread {o} does)"),
                        ));
                        continue;
                    }
                    Some(SegState::Loose(_)) => {}
                }
                if regs.contains_key(&thread) {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!(
                            "thread {thread}'s seg-reg already holds a segment (double-install)"
                        ),
                    ));
                    continue;
                }
                let len = metas[&seg].len;
                states.insert(seg, SegState::Installed(thread));
                regs.insert(
                    thread,
                    Window {
                        seg,
                        lo: 0,
                        hi: len,
                    },
                );
            }
            SegOp::Stash { thread, slot, seg } => {
                if slot >= plan.seg_list_slots {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!(
                            "slot {slot} out of range (seg-list holds {} slots)",
                            plan.seg_list_slots
                        ),
                    ));
                    continue;
                }
                let process = process_of(thread);
                match states.get(&seg) {
                    Some(SegState::Loose(o)) if *o == thread => {}
                    _ => {
                        findings.push(Finding::trap_at(
                            Cause::SwapsegError,
                            i,
                            site,
                            format!("thread {thread} cannot stash segment {seg}: not a loose segment it owns"),
                        ));
                        continue;
                    }
                }
                if let Some(&occupant) = slots.get(&(process, slot)) {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!("slot {slot} already holds segment {occupant}"),
                    ));
                    continue;
                }
                states.insert(seg, SegState::Stashed(process, slot));
                slots.insert((process, slot), seg);
            }
            SegOp::Swap { thread, slot } => {
                if slot >= plan.seg_list_slots {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!(
                            "slot {slot} out of range (seg-list holds {} slots)",
                            plan.seg_list_slots
                        ),
                    ));
                    continue;
                }
                let process = process_of(thread);
                let Some(&incoming) = slots.get(&(process, slot)) else {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!("swapseg with empty slot {slot}"),
                    ));
                    continue;
                };
                let outgoing = regs.remove(&thread);
                slots.remove(&(process, slot));
                if let Some(w) = outgoing {
                    states.insert(w.seg, SegState::Stashed(process, slot));
                    slots.insert((process, slot), w.seg);
                }
                states.insert(incoming, SegState::Installed(thread));
                // A segment pulled back out of the seg-list parked
                // mid-request: its bytes are a previous holder's.
                taints.insert(incoming, Taint::Tainted);
                let len = metas[&incoming].len;
                regs.insert(
                    thread,
                    Window {
                        seg: incoming,
                        lo: 0,
                        hi: len,
                    },
                );
            }
            SegOp::Mask {
                thread,
                offset,
                len,
            } => {
                let Some(w) = regs.get_mut(&thread) else {
                    findings.push(Finding::trap_at(
                        Cause::InvalidSegMask,
                        i,
                        site,
                        format!("thread {thread} masks with no segment installed"),
                    ));
                    continue;
                };
                let Some(end) = offset.checked_add(len) else {
                    findings.push(Finding::trap_at(
                        Cause::InvalidSegMask,
                        i,
                        site,
                        format!("mask [{offset}, {offset}+{len}) wraps the address space"),
                    ));
                    continue;
                };
                if offset < w.lo || end > w.hi {
                    findings.push(Finding::trap_at(
                        Cause::InvalidSegMask,
                        i,
                        site,
                        format!(
                            "mask [{offset}, {end}) escapes the current window [{}, {}); windows only shrink",
                            w.lo, w.hi
                        ),
                    ));
                    continue;
                }
                if metas[&w.seg].paged && (offset % PAGE != 0 || len % PAGE != 0) {
                    findings.push(Finding::trap_at(
                        Cause::InvalidSegMask,
                        i,
                        site,
                        format!("mask [{offset}, {end}) is not page-granular on a paged segment"),
                    ));
                    continue;
                }
                w.lo = offset;
                w.hi = end;
            }
            SegOp::Zero { thread } => {
                let Some(w) = regs.get(&thread) else {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!("thread {thread} zeroes with no segment installed"),
                    ));
                    continue;
                };
                taints.insert(w.seg, Taint::Zeroed);
            }
            SegOp::HandoverCall { thread, to } => {
                let Some(w) = regs.remove(&thread) else {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!("thread {thread} hands over with an empty seg-reg"),
                    ));
                    continue;
                };
                let crosses = process_of(thread) != process_of(to);
                if crosses && taints.get(&w.seg) == Some(&Taint::Tainted) {
                    findings.push(Finding::leak_at(
                        i,
                        site.clone(),
                        format!(
                            "segment {} still holds a previous holder's bytes; \
                             handover {thread}→{to} crosses processes without an \
                             interposed zero",
                            w.seg
                        ),
                    ));
                    // The transfer itself succeeds at runtime, so the
                    // state effect applies; only the bytes were dirty.
                }
                if regs.contains_key(&to) {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!("handover into thread {to}'s occupied seg-reg"),
                    ));
                    continue;
                }
                states.insert(w.seg, SegState::Installed(to));
                // The callee inherits the sender's bytes and the shrunk
                // window — §4.4: the mask never widens along the chain.
                taints.insert(w.seg, Taint::Tainted);
                regs.insert(to, w);
            }
            SegOp::Free { thread, seg } => match states.get(&seg) {
                Some(SegState::Loose(o)) if *o == thread => {
                    states.insert(seg, SegState::Freed);
                }
                Some(SegState::Installed(t)) if *t == thread => {
                    regs.remove(&thread);
                    states.insert(seg, SegState::Freed);
                }
                Some(SegState::Freed) => {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!("segment {seg} freed twice"),
                    ));
                }
                _ => {
                    findings.push(Finding::trap_at(
                        Cause::SwapsegError,
                        i,
                        site,
                        format!("thread {thread} frees segment {seg} it does not hold"),
                    ));
                }
            },
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::Verdict;

    fn plan_with(ops: Vec<SegOp>) -> Plan {
        let mut plan = Plan::new();
        plan.threads = vec![0, 1];
        plan.seg_ops = ops;
        plan
    }

    fn alloc(seg: usize, owner: usize) -> SegOp {
        SegOp::Alloc {
            seg,
            owner,
            len: 8192,
            paged: false,
        }
    }

    #[test]
    fn clean_stash_swap_lifecycle_has_no_findings() {
        let plan = plan_with(vec![
            alloc(0, 0),
            alloc(1, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Stash {
                thread: 0,
                slot: 3,
                seg: 1,
            },
            SegOp::Mask {
                thread: 0,
                offset: 0,
                len: 4096,
            },
            SegOp::Swap { thread: 0, slot: 3 },
            SegOp::Swap { thread: 0, slot: 3 },
            // Segment 0 came back through the seg-list, so it is tainted;
            // the zero scrubs it before the cross-process handover.
            SegOp::Zero { thread: 0 },
            SegOp::HandoverCall { thread: 0, to: 1 },
        ]);
        assert!(check(&plan).is_empty());
    }

    #[test]
    fn empty_slot_swap_is_swapseg_error() {
        let plan = plan_with(vec![alloc(0, 0), SegOp::Swap { thread: 0, slot: 7 }]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::SwapsegError));
        assert!(f[0].detail.contains("empty slot"));
    }

    #[test]
    fn double_install_is_swapseg_error() {
        let plan = plan_with(vec![
            alloc(0, 0),
            alloc(1, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Install { thread: 0, seg: 1 },
        ]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("double-install"));
    }

    #[test]
    fn use_after_handover_is_swapseg_error() {
        let plan = plan_with(vec![
            alloc(0, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::HandoverCall { thread: 0, to: 1 },
            SegOp::Free { thread: 0, seg: 0 },
        ]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::SwapsegError));
        assert!(f[0].detail.contains("does not hold"), "{}", f[0].detail);
    }

    #[test]
    fn widening_mask_is_invalid_seg_mask() {
        let plan = plan_with(vec![
            alloc(0, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Mask {
                thread: 0,
                offset: 1024,
                len: 1024,
            },
            SegOp::Mask {
                thread: 0,
                offset: 0,
                len: 8192,
            },
        ]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::InvalidSegMask));
        assert!(f[0].detail.contains("only shrink"));
    }

    #[test]
    fn widening_after_handover_is_invalid_seg_mask_for_the_receiver() {
        // The window travels with the handover: the callee inherits
        // [0, 256) and may not widen it back out.
        let plan = plan_with(vec![
            alloc(0, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Mask {
                thread: 0,
                offset: 0,
                len: 256,
            },
            SegOp::HandoverCall { thread: 0, to: 1 },
            SegOp::Mask {
                thread: 1,
                offset: 0,
                len: 8192,
            },
        ]);
        let f = check(&plan);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].cause(), Some(Cause::InvalidSegMask));
        assert!(f[0].detail.contains("only shrink"));
        assert_eq!(f[0].op_index, Some(4), "anchored at the widening mask");
    }

    #[test]
    fn tainted_cross_process_handover_without_zero_is_a_leak() {
        let plan = plan_with(vec![
            alloc(0, 0),
            alloc(1, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Stash {
                thread: 0,
                slot: 0,
                seg: 1,
            },
            // Swap parks seg 0 (holding this request's bytes) and pulls
            // seg 1; swap back pulls seg 0 — now tainted.
            SegOp::Swap { thread: 0, slot: 0 },
            SegOp::Swap { thread: 0, slot: 0 },
            SegOp::HandoverCall { thread: 0, to: 1 },
        ]);
        let f = check(&plan);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].verdict, Verdict::DataLeak);
        assert_eq!(f[0].cause(), None, "leaks do not trap");
        assert_eq!(f[0].op_index, Some(6));
        assert!(f[0].detail.contains("interposed zero"), "{}", f[0].detail);
    }

    #[test]
    fn zero_before_handover_clears_the_taint() {
        let plan = plan_with(vec![
            alloc(0, 0),
            alloc(1, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Stash {
                thread: 0,
                slot: 0,
                seg: 1,
            },
            SegOp::Swap { thread: 0, slot: 0 },
            SegOp::Swap { thread: 0, slot: 0 },
            SegOp::Zero { thread: 0 },
            SegOp::HandoverCall { thread: 0, to: 1 },
        ]);
        assert!(check(&plan).is_empty());
    }

    #[test]
    fn same_process_handover_never_leaks() {
        let mut plan = plan_with(vec![
            alloc(0, 0),
            alloc(1, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Stash {
                thread: 0,
                slot: 0,
                seg: 1,
            },
            SegOp::Swap { thread: 0, slot: 0 },
            SegOp::Swap { thread: 0, slot: 0 },
            SegOp::HandoverCall { thread: 0, to: 1 },
        ]);
        // Threads 0 and 1 share a process: no ownership boundary crossed.
        plan.threads = vec![7, 7];
        assert!(check(&plan).is_empty());
    }

    #[test]
    fn zero_with_empty_seg_reg_is_swapseg_error() {
        let plan = plan_with(vec![SegOp::Zero { thread: 0 }]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::SwapsegError));
        assert!(f[0].detail.contains("no segment installed"));
    }

    #[test]
    fn findings_anchor_the_first_violating_op_index() {
        let plan = plan_with(vec![
            alloc(0, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Swap { thread: 0, slot: 9 },
        ]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].op_index, Some(2));
        assert!(f[0].site.contains("seg-op 2"));
    }

    #[test]
    fn sub_page_mask_on_paged_segment_is_invalid_seg_mask() {
        let plan = plan_with(vec![
            SegOp::Alloc {
                seg: 0,
                owner: 0,
                len: 8192,
                paged: true,
            },
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Mask {
                thread: 0,
                offset: 512,
                len: 4096,
            },
        ]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::InvalidSegMask));
        assert!(f[0].detail.contains("page-granular"));
    }

    #[test]
    fn overflowing_mask_is_caught_not_wrapped() {
        let plan = plan_with(vec![
            alloc(0, 0),
            SegOp::Install { thread: 0, seg: 0 },
            SegOp::Mask {
                thread: 0,
                offset: u64::MAX - 8,
                len: 64,
            },
        ]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("wraps"));
    }

    #[test]
    fn foreign_free_is_swapseg_error() {
        let plan = plan_with(vec![alloc(0, 0), SegOp::Free { thread: 1, seg: 0 }]);
        let f = check(&plan);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("does not hold"));
    }
}
