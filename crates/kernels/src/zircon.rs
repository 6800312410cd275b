//! The Zircon IPC model: channel-based message passing with kernel
//! twofold copy and an unoptimized scheduling path.
//!
//! §1/§5.2: Zircon's asynchronous channels simulate synchronous file
//! system semantics, costing "tens of thousands of cycles" per round trip;
//! Zircon-XPC sees ~60× at small message sizes, which calibrates the
//! one-way base to ~8000 cycles on the U500 model.

use simos::cost::CostModel;
use simos::ipc::IpcSystem;
use simos::ledger::{CycleLedger, InvokeOpts, Phase};

/// The Zircon model.
#[derive(Debug, Clone)]
pub struct Zircon {
    cost: CostModel,
    cross_core: bool,
}

impl Zircon {
    /// Same-core Zircon.
    pub fn new() -> Self {
        Zircon {
            cost: CostModel::u500(),
            cross_core: false,
        }
    }

    /// Cross-core Zircon (adds IPI + remote wakeup).
    pub fn cross_core() -> Self {
        Zircon {
            cross_core: true,
            ..Self::new()
        }
    }
}

impl Default for Zircon {
    fn default() -> Self {
        Self::new()
    }
}

impl IpcSystem for Zircon {
    fn name(&self) -> String {
        if self.cross_core {
            "Zircon+xcore".to_string()
        } else {
            "Zircon".to_string()
        }
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let bytes = msg_len as u64;
        let c = &self.cost;
        // Channel write syscall + wait + scheduler + channel read syscall,
        // with the kernel copying the message twice (user→kernel→user).
        // The one-way base splits into two syscall entries/exits plus the
        // wait-queue/scheduler remainder.
        let kernel_entries = 2 * (c.trap + c.ipc_logic + c.restore);
        out.charge(Phase::Trap, 2 * c.trap);
        out.charge(Phase::IpcLogic, 2 * c.ipc_logic);
        out.charge(Phase::Restore, 2 * c.restore);
        out.charge(
            Phase::Schedule,
            c.zircon_oneway_base.saturating_sub(kernel_entries),
        );
        out.charge(Phase::Transfer, c.copy_cycles(bytes).saturating_mul(2));
        if self.cross_core {
            out.charge(Phase::CrossCore, c.cross_core_base);
        }
        // Software-equivalent temporal mitigations in the kernel path.
        self.cost.charge_hardening(false, msg_len, opts, out);
        bytes.saturating_mul(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::oneway;
    use simos::ledger::Invocation;

    #[test]
    fn round_trip_is_tens_of_thousands() {
        // §1: "Zircon costs tens of thousands of cycles for one
        // round-trip IPC".
        let mut z = Zircon::new();
        let rt = Invocation::priced(|l| {
            z.oneway_into(64, &InvokeOpts::call(), l)
                + z.oneway_into(64, &InvokeOpts::reply_leg(), l)
        })
        .total();
        assert!((10_000..100_000).contains(&rt), "round trip: {rt}");
    }

    #[test]
    fn twofold_copy_counted() {
        let mut z = Zircon::new();
        assert_eq!(oneway(&mut z, 1000, &InvokeOpts::call()).copied_bytes, 2000);
    }

    #[test]
    fn slower_than_sel4() {
        // §5.2: Zircon "much slower than seL4".
        let z = oneway(&mut Zircon::new(), 0, &InvokeOpts::call()).total();
        let s = oneway(
            &mut crate::sel4::Sel4::new(crate::sel4::Sel4Transfer::OneCopy),
            0,
            &InvokeOpts::call(),
        )
        .total();
        assert!(z > 5 * s);
    }

    #[test]
    fn ledger_preserves_the_calibrated_base() {
        let inv = oneway(&mut Zircon::new(), 0, &InvokeOpts::call());
        assert_eq!(inv.total(), CostModel::u500().zircon_oneway_base);
        // The scheduler/wait-queue remainder dominates Zircon's cost.
        assert!(inv.ledger.get(Phase::Schedule) > inv.total() / 2);
    }
}
