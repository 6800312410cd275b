//! Split thread state (§4.2 "Split Thread State").
//!
//! The migrating-thread model lets one schedulable entity execute in many
//! address spaces over its lifetime. The kernel therefore splits what it
//! knows about a thread into a **scheduling state** (fixed: kernel stack,
//! priority, time slice) and a **runtime state** (floats with the
//! migration: current address space and capabilities). On a trap the
//! kernel locates the runtime state through `xcall-cap-reg`, which the
//! hardware updates on every `xcall`.

use xpc_engine::{SegMask, SegReg};

/// Scheduling state: bound 1:1 to the thread for its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedState {
    /// Scheduling priority (higher runs first in the model).
    pub priority: u8,
    /// Time slice in scheduler ticks.
    pub time_slice: u32,
    /// Kernel stack physical address (modelled; traps are host-handled).
    pub kstack_pa: u64,
}

impl SchedState {
    /// Default scheduling parameters.
    pub(crate) fn new(kstack_pa: u64) -> Self {
        SchedState {
            priority: 100,
            time_slice: 10,
            kstack_pa,
        }
    }
}

/// Runtime state: everything the kernel needs to serve the thread in its
/// *current* domain; swapped by `xcall`/`xret` rather than by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeState {
    /// Saved general-purpose registers (for preemptive resumption).
    pub gprs: [u64; 32],
    /// Per-thread capability bitmap (the `xcall-cap-reg` value; also the
    /// key the kernel uses to find this state after a trap).
    pub cap_bitmap_pa: u64,
    /// Per-thread link stack base.
    pub link_stack_pa: u64,
    /// Saved link stack top (bytes).
    pub link_sp: u64,
    /// Saved relay segment.
    pub seg: SegReg,
    /// Saved seg-mask.
    pub mask: SegMask,
    /// Saved per-process seg-list base.
    pub seg_list_pa: u64,
    /// Saved `satp` (current address space of the migrating thread).
    pub satp: u64,
    /// Saved PC (valid while descheduled).
    pub pc: u64,
    /// Saved stack pointer.
    pub sp: u64,
}

impl RuntimeState {
    /// Fresh runtime state for a thread that has never run.
    pub(crate) fn new(cap_bitmap_pa: u64, link_stack_pa: u64, seg_list_pa: u64, satp: u64) -> Self {
        RuntimeState {
            gprs: [0; 32],
            cap_bitmap_pa,
            link_stack_pa,
            link_sp: 0,
            seg: SegReg::invalid(),
            mask: SegMask::none(),
            seg_list_pa,
            satp,
            pc: 0,
            sp: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_runtime_state_is_empty() {
        let r = RuntimeState::new(0x1000, 0x2000, 0x3000, 42);
        assert_eq!(r.link_sp, 0);
        assert!(!r.seg.is_valid());
        assert!(!r.mask.is_set());
        assert_eq!(r.satp, 42);
    }

    #[test]
    fn sched_state_defaults() {
        let s = SchedState::new(0x9000);
        assert!(s.priority > 0);
        assert!(s.time_slice > 0);
    }
}
