//! The long-message mechanisms of Figure 10, with their Table 7
//! properties, as an ablatable family.
//!
//! Given a chain of `n` hops moving an `N`-byte message end to end:
//!
//! * **twofold copy** (Mach/Zircon): 2 copies per hop, TOCTTOU-safe;
//! * **user shared memory** (LRPC): 1 copy total, *not* TOCTTOU-safe;
//! * **shared memory + one defensive copy per hop**: TOCTTOU-safe again,
//!   `n` copies;
//! * **remap** (Tornado): 0 copies but a kernel trap + TLB shootdown per
//!   hop, page granularity;
//! * **relay segment** (XPC): 0 copies, no trap, byte granularity,
//!   TOCTTOU-safe via ownership transfer.

use crate::cost::CostModel;
use crate::ledger::{CycleLedger, Phase};

/// The transfer mechanisms of Figure 10 / Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Kernel twofold copy per hop.
    TwofoldCopy,
    /// Shared user memory, zero additional copies (vulnerable).
    SharedInPlace,
    /// Shared memory + one defensive copy per hop.
    SharedOneCopy,
    /// Page remapping with TLB shootdown per hop.
    Remap,
    /// XPC relay segment handover.
    RelaySeg,
}

/// TLB-shootdown + remap kernel work per hop (trap + PTE edits + IPI-less
/// local invalidate on this single-core model).
const REMAP_HOP_CYCLES: u64 = 480;

impl Transport {
    /// All variants, for ablation sweeps.
    pub const ALL: [Transport; 5] = [
        Transport::TwofoldCopy,
        Transport::SharedInPlace,
        Transport::SharedOneCopy,
        Transport::Remap,
        Transport::RelaySeg,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Transport::TwofoldCopy => "twofold-copy",
            Transport::SharedInPlace => "shared-in-place",
            Transport::SharedOneCopy => "shared-one-copy",
            Transport::Remap => "remap",
            Transport::RelaySeg => "relay-seg",
        }
    }

    /// Copies performed moving `bytes` across `hops` hops (Table 7's
    /// "Copy time" column: 2N, 0, N, 0+∆, 0).
    pub fn copies(self, hops: u64) -> u64 {
        match self {
            Transport::TwofoldCopy => 2 * hops,
            Transport::SharedInPlace => 0,
            Transport::SharedOneCopy => hops,
            Transport::Remap => 0,
            Transport::RelaySeg => 0,
        }
    }

    /// Data-movement cycles for `bytes` across `hops` hops (excluding the
    /// domain-switch cost, which belongs to the IPC mechanism).
    pub fn transfer_cycles(self, cost: &CostModel, bytes: u64, hops: u64) -> u64 {
        match self {
            Transport::TwofoldCopy | Transport::SharedInPlace | Transport::SharedOneCopy => {
                self.copies(hops).saturating_mul(cost.copy_cycles(bytes))
            }
            Transport::Remap => hops * REMAP_HOP_CYCLES,
            Transport::RelaySeg => 0,
        }
    }

    /// Charge this transport's data movement into `ledger`: copies go to
    /// [`Phase::Transfer`], remap's kernel work to [`Phase::Mapping`].
    /// Returns the bytes actually copied (the `copied_bytes` an
    /// [`Invocation`](crate::ledger::Invocation) reports).
    pub fn charge(&self, ledger: &mut CycleLedger, cost: &CostModel, bytes: u64, hops: u64) -> u64 {
        match self {
            Transport::Remap => {
                ledger.charge(Phase::Mapping, hops * REMAP_HOP_CYCLES);
                ledger.charge(Phase::Transfer, 0);
            }
            _ => ledger.charge(Phase::Transfer, self.transfer_cycles(cost, bytes, hops)),
        }
        self.copies(hops).saturating_mul(bytes)
    }

    /// Whether the receiver is safe from sender mutation after the check
    /// (Table 7 "w/o TOCTTOU").
    pub fn tocttou_safe(self) -> bool {
        match self {
            Transport::TwofoldCopy | Transport::SharedOneCopy | Transport::RelaySeg => true,
            Transport::SharedInPlace | Transport::Remap => false,
        }
    }

    /// Whether a message passes down a chain without per-hop work
    /// proportional to its size (Table 7 "Handover").
    pub fn supports_handover(self) -> bool {
        matches!(self, Transport::RelaySeg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_counts_match_table7() {
        assert_eq!(Transport::TwofoldCopy.copies(3), 6);
        assert_eq!(Transport::SharedOneCopy.copies(3), 3);
        assert_eq!(Transport::RelaySeg.copies(3), 0);
    }

    #[test]
    fn tocttou_column_matches_table7() {
        assert!(Transport::TwofoldCopy.tocttou_safe());
        assert!(!Transport::SharedInPlace.tocttou_safe());
        assert!(Transport::SharedOneCopy.tocttou_safe());
        assert!(Transport::RelaySeg.tocttou_safe());
    }

    #[test]
    fn only_relay_seg_is_safe_and_free() {
        let cost = CostModel::u500();
        for t in Transport::ALL {
            let free = t.transfer_cycles(&cost, 1 << 20, 4) < 10_000;
            let safe = t.tocttou_safe();
            assert_eq!(
                free && safe,
                t == Transport::RelaySeg,
                "{} should not be both cheap and safe",
                t.name()
            );
        }
    }

    #[test]
    fn relay_seg_flat_in_size() {
        let cost = CostModel::u500();
        assert_eq!(Transport::RelaySeg.transfer_cycles(&cost, 1, 1), 0);
        assert_eq!(Transport::RelaySeg.transfer_cycles(&cost, 32 << 20, 5), 0);
    }

    #[test]
    fn charge_splits_mapping_from_transfer() {
        let cost = CostModel::u500();
        let mut l = CycleLedger::new();
        let copied = Transport::Remap.charge(&mut l, &cost, 4096, 2);
        assert_eq!(copied, 0);
        assert_eq!(l.get(Phase::Mapping), 2 * 480);
        assert_eq!(l.get(Phase::Transfer), 0);
        let mut l2 = CycleLedger::new();
        let copied2 = Transport::TwofoldCopy.charge(&mut l2, &cost, 4096, 1);
        assert_eq!(copied2, 2 * 4096);
        assert_eq!(l2.get(Phase::Transfer), 2 * 4010);
        assert_eq!(l2.get(Phase::Mapping), 0);
    }

    #[test]
    fn twofold_scales_linearly() {
        let cost = CostModel::u500();
        let a = Transport::TwofoldCopy.transfer_cycles(&cost, 4096, 1);
        let b = Transport::TwofoldCopy.transfer_cycles(&cost, 8192, 1);
        assert_eq!(a, 2 * 4010);
        assert_eq!(b, 2 * a);
    }
}
