//! The historical IPC designs of Table 7, as executable mechanisms: the
//! Mach-3.0 baseline, LRPC's protected procedure call, L4's direct
//! process switch with temporary mapping, and Tornado-style PPC with
//! page remapping.
//!
//! These make Table 7's comparison *runnable*: every row can be swept
//! against message size and chain depth (the `table7` experiment and the
//! `transport_ablation` bench), instead of existing only as prose. Each
//! design charges the same [`Phase`] vocabulary as the modern kernels,
//! so its ledger lines up column-for-column with Table 1.

use simos::cost::CostModel;
use simos::ipc::IpcSystem;
use simos::ledger::{CycleLedger, InvokeOpts, Phase};
use simos::transport::Transport;

/// Mach-3.0: kernel-scheduled IPC with twofold copy (Table 7's baseline
/// row). Domain switch needs a trap *and* a scheduler pass.
#[derive(Debug, Clone)]
pub struct Mach {
    cost: CostModel,
}

impl Mach {
    /// A Mach-3.0 model on the U500 calibration.
    pub(crate) fn new() -> Self {
        Mach {
            cost: CostModel::u500(),
        }
    }
}

impl Default for Mach {
    fn default() -> Self {
        Self::new()
    }
}

impl IpcSystem for Mach {
    fn name(&self) -> String {
        "Mach-3.0".into()
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let bytes = msg_len as u64;
        let c = &self.cost;
        // Trap + port-rights checks (heavier than seL4's logic) +
        // full scheduler pass + restore, then kernel twofold copy.
        out.charge(Phase::Trap, c.trap);
        out.charge(Phase::IpcLogic, 2 * c.ipc_logic);
        out.charge(Phase::Schedule, c.schedule);
        out.charge(Phase::Switch, c.process_switch);
        out.charge(Phase::Restore, c.restore);
        self.cost.charge_hardening(false, msg_len, opts, out);
        Transport::TwofoldCopy.charge(out, &self.cost, bytes, 1)
    }
}

/// LRPC: protected procedure call — the caller's thread runs the callee's
/// code (no scheduling), arguments pass on a shared A-stack (one copy,
/// *not* TOCTTOU-safe). Still traps to the kernel for the domain switch.
#[derive(Debug, Clone)]
pub struct Lrpc {
    cost: CostModel,
}

impl Lrpc {
    /// An LRPC model on the U500 calibration.
    pub(crate) fn new() -> Self {
        Lrpc {
            cost: CostModel::u500(),
        }
    }
}

impl Default for Lrpc {
    fn default() -> Self {
        Self::new()
    }
}

impl IpcSystem for Lrpc {
    fn name(&self) -> String {
        "LRPC".into()
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let bytes = msg_len as u64;
        let c = &self.cost;
        // Trap + binding-object validation + direct switch (no scheduler,
        // no run-queue work) + A-stack copy by the caller.
        out.charge(Phase::Trap, c.trap);
        out.charge(Phase::IpcLogic, c.ipc_logic / 2);
        out.charge(Phase::Switch, c.process_switch);
        out.charge(Phase::Restore, c.restore);
        out.charge(Phase::Transfer, c.copy_cycles(bytes));
        self.cost.charge_hardening(false, msg_len, opts, out);
        bytes
    }
}

/// L4 (Liedtke '93): direct process switch plus *temporary mapping* — the
/// kernel maps the callee's buffer into a communication window in the
/// caller's space and copies once; the caller cannot reach the window, so
/// it is TOCTTOU-safe, but the kernel pays the map + copy + unmap.
#[derive(Debug, Clone)]
pub struct L4TempMap {
    cost: CostModel,
}

/// Kernel work to establish/tear down the temporary mapping window
/// (PTE writes + local TLB invalidate per 4 MiB window in the original;
/// charged per message here).
const TEMP_MAP_CYCLES: u64 = 260;

impl L4TempMap {
    /// An L4 temporary-mapping model on the U500 calibration.
    pub(crate) fn new() -> Self {
        L4TempMap {
            cost: CostModel::u500(),
        }
    }
}

impl Default for L4TempMap {
    fn default() -> Self {
        Self::new()
    }
}

impl IpcSystem for L4TempMap {
    fn name(&self) -> String {
        "L4-tempmap".into()
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let bytes = msg_len as u64;
        let c = &self.cost;
        let mapping = if bytes > 0 { TEMP_MAP_CYCLES } else { 0 };
        out.charge(Phase::Trap, c.trap);
        out.charge(Phase::IpcLogic, c.ipc_logic / 2);
        out.charge(Phase::Switch, c.process_switch);
        out.charge(Phase::Restore, c.restore);
        out.charge(Phase::Mapping, mapping);
        out.charge(Phase::Transfer, c.copy_cycles(bytes));
        self.cost.charge_hardening(false, msg_len, opts, out);
        bytes
    }
}

/// Tornado-style PPC with page remapping for messages: zero copies, but a
/// kernel trap and a remap + TLB shootdown per hop, page granularity.
#[derive(Debug, Clone)]
pub struct PpcRemap {
    cost: CostModel,
}

impl PpcRemap {
    /// A Tornado/PPC remapping model on the U500 calibration.
    pub(crate) fn new() -> Self {
        PpcRemap {
            cost: CostModel::u500(),
        }
    }
}

impl Default for PpcRemap {
    fn default() -> Self {
        Self::new()
    }
}

impl IpcSystem for PpcRemap {
    fn name(&self) -> String {
        "Tornado-PPC".into()
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let bytes = msg_len as u64;
        let c = &self.cost;
        out.charge(Phase::Trap, c.trap);
        out.charge(Phase::IpcLogic, c.ipc_logic / 2);
        out.charge(Phase::Switch, c.process_switch);
        out.charge(Phase::Restore, c.restore);
        self.cost.charge_hardening(false, msg_len, opts, out);
        Transport::Remap.charge(out, &self.cost, bytes, 1)
    }
}

/// One executable row of Table 7.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// System name.
    pub name: String,
    /// Needs a kernel trap per call?
    pub traps: bool,
    /// Needs the scheduler per call?
    pub schedules: bool,
    /// TOCTTOU-safe message passing?
    pub tocttou_safe: bool,
    /// Handover along chains without recopying?
    pub handover: bool,
    /// Copies for an N-hop chain, as a formula string.
    pub copies: &'static str,
    /// Measured one-way cycles at 4 KiB.
    pub cycles_4k: u64,
}

/// Build the executable Table 7.
pub fn table7() -> Vec<Table7Row> {
    use crate::{Sel4, Sel4Transfer, XpcIpc};
    /// (system, traps, schedules, tocttou_safe, handover, copies).
    type RowSpec = (Box<dyn IpcSystem>, bool, bool, bool, bool, &'static str);
    let rows: Vec<RowSpec> = vec![
        (Box::new(Mach::new()), true, true, true, false, "2N"),
        (Box::new(Lrpc::new()), true, false, false, false, "N"),
        (Box::new(L4TempMap::new()), true, false, true, false, "N"),
        (
            Box::new(PpcRemap::new()),
            true,
            false,
            false,
            false,
            "0+TLB",
        ),
        (
            Box::new(Sel4::new(Sel4Transfer::TwoCopy)),
            true,
            false,
            true,
            false,
            "2N",
        ),
        (Box::new(XpcIpc::sel4_xpc()), false, false, true, true, "0"),
    ];
    rows.into_iter()
        .map(|(mut m, traps, schedules, safe, handover, copies)| {
            let mut ledger = CycleLedger::new();
            m.oneway_into(4096, &InvokeOpts::call(), &mut ledger);
            Table7Row {
                name: m.name(),
                traps,
                schedules,
                tocttou_safe: safe,
                handover,
                copies,
                cycles_4k: ledger.total(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::oneway;
    use crate::{Sel4, Sel4Transfer, XpcIpc};

    fn cycles(sys: &mut impl IpcSystem, bytes: usize) -> u64 {
        oneway(sys, bytes, &InvokeOpts::call()).total()
    }

    #[test]
    fn mach_is_the_slowest_small_message_design() {
        let m = cycles(&mut Mach::new(), 0);
        for other in [
            cycles(&mut Lrpc::new(), 0),
            cycles(&mut L4TempMap::new(), 0),
            cycles(&mut Sel4::new(Sel4Transfer::OneCopy), 0),
        ] {
            assert!(m > other, "Mach {m} vs {other}");
        }
    }

    #[test]
    fn lrpc_beats_mach_but_keeps_a_copy() {
        let l = oneway(&mut Lrpc::new(), 4096, &InvokeOpts::call());
        let m = oneway(&mut Mach::new(), 4096, &InvokeOpts::call());
        assert!(l.total() < m.total());
        assert_eq!(l.copied_bytes, 4096, "one A-stack copy");
    }

    #[test]
    fn l4_pays_mapping_over_lrpc_but_is_safe() {
        let l4inv = oneway(&mut L4TempMap::new(), 4096, &InvokeOpts::call());
        let lrpc = cycles(&mut Lrpc::new(), 4096);
        assert!(l4inv.total() > lrpc, "temporary mapping costs kernel work");
        assert_eq!(l4inv.ledger.get(Phase::Mapping), TEMP_MAP_CYCLES);
        // Safety is encoded in Table 7:
        let t7 = table7();
        let row = |n: &str| t7.iter().find(|r| r.name == n).unwrap().clone();
        assert!(row("L4-tempmap").tocttou_safe);
        assert!(!row("LRPC").tocttou_safe);
    }

    #[test]
    fn remap_is_flat_but_pays_per_hop() {
        let mut r = PpcRemap::new();
        assert_eq!(cycles(&mut r, 4096), cycles(&mut r, 1 << 20));
        let inv = oneway(&mut r, 4096, &InvokeOpts::call());
        assert!(inv.ledger.get(Phase::Mapping) > 0, "remap pays TLB work");
        assert_eq!(inv.copied_bytes, 0);
        assert!(inv.total() > cycles(&mut XpcIpc::sel4_xpc(), 4096));
    }

    #[test]
    fn only_xpc_avoids_trap_and_supports_handover() {
        for row in table7() {
            let is_xpc = row.name == "seL4-XPC";
            assert_eq!(!row.traps, is_xpc, "{}", row.name);
            assert_eq!(row.handover, is_xpc, "{}", row.name);
        }
    }

    #[test]
    fn xpc_wins_the_4k_column() {
        let t7 = table7();
        let xpc = t7.iter().find(|r| r.name == "seL4-XPC").unwrap().cycles_4k;
        for row in &t7 {
            if row.name != "seL4-XPC" {
                assert!(row.cycles_4k > 5 * xpc, "{} {}", row.name, row.cycles_4k);
            }
        }
    }
}
