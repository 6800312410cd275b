//! The Android Binder model (§4.3, §5.5): transaction buffers, ashmem,
//! and the XPC-accelerated variants, reproducing Figure 9's latency
//! curves.
//!
//! The §5.5 scenario is a surface compositor sending surface data to the
//! window manager. Latency includes (quoting the paper) "the data
//! preparation (client), the remote method invocation and data transfer
//! (framework), handling the surface content (server), and the reply".
//!
//! Component model (cycles), with constants fitted to Figure 9's
//! published endpoints and documented in `EXPERIMENTS.md`:
//!
//! * *prep/handle*: the client and server touch the surface once each at
//!   cache-line granularity;
//! * *Binder buffer path*: ioctl into the Binder driver, kernel twofold
//!   copy of the Parcel, framework dispatch;
//! * *Binder ashmem path*: fd passing + mmap + a defensive copy (ashmem
//!   "needs an extra copying to avoid TOCTTOU attacks", §4.3);
//! * *XPC paths*: `xcall`/`xret` + relay segment — no driver ioctl, no
//!   copies; Ashmem-XPC keeps the Binder ioctl control path but moves
//!   data by relay segment (Figure 9(b)'s third line).

use simos::cost::CostModel;
use simos::ipc::IpcSystem;
use simos::ledger::{CycleLedger, InvokeOpts, Phase};

/// Which transport a Figure 9 measurement uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinderSystem {
    /// Stock Binder, Parcel through the transaction buffer (Fig 9a) or
    /// ashmem (Fig 9b).
    Binder,
    /// Full XPC port: xcall/xret + relay segment (both figures).
    BinderXpc,
    /// Only ashmem replaced by relay segments; control path unchanged
    /// (Fig 9b "Ashmem-XPC").
    AshmemXpc,
}

impl BinderSystem {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BinderSystem::Binder => "Binder",
            BinderSystem::BinderXpc => "Binder-XPC",
            BinderSystem::AshmemXpc => "Ashmem-XPC",
        }
    }
}

/// Fitted constants of the Binder latency model.
#[derive(Debug, Clone)]
pub struct BinderConfig {
    /// Driver ioctl + framework dispatch + reply, buffer path.
    pub driver_fixed: u64,
    /// fd passing + mmap + framework, ashmem path.
    pub ashmem_fixed: u64,
    /// XPC control path: xcall + xret + thin framework shim.
    pub xpc_fixed: u64,
    /// Ashmem-XPC keeps the Binder control path for setup.
    pub ashmem_xpc_fixed: u64,
    /// Client preparation + server handling, cycles per byte ×1000
    /// (cache-line touches for the buffer path).
    pub touch_millicycles_per_byte: u64,
    /// Surface "draw" pass per byte ×1000 (ashmem-scale payloads).
    pub draw_millicycles_per_byte: u64,
    /// Defensive ashmem copy per byte ×1000.
    pub ashmem_copy_millicycles_per_byte: u64,
}

impl Default for BinderConfig {
    fn default() -> Self {
        BinderConfig {
            driver_fixed: 30_000,
            ashmem_fixed: 45_000,
            xpc_fixed: 600,
            ashmem_xpc_fixed: 28_000,
            touch_millicycles_per_byte: 31, // ~2 cycles per 64B line
            draw_millicycles_per_byte: 240, // surface composition pass
            ashmem_copy_millicycles_per_byte: 450,
        }
    }
}

impl BinderConfig {
    fn per_byte(&self, millis: u64, bytes: u64) -> u64 {
        bytes.saturating_mul(millis) / 1000
    }

    /// The XPC control path split into phases: the `xcall`/`xret` pair
    /// plus the thin framework shim that replaces the driver ioctl.
    fn xpc_control_into(&self, cost: &CostModel, out: &mut CycleLedger) {
        out.charge(Phase::Xcall, cost.xcall);
        out.charge(Phase::Xret, cost.xret);
        out.charge(
            Phase::Driver,
            self.xpc_fixed.saturating_sub(cost.xcall + cost.xret),
        );
    }

    /// Charge the phases of the *buffer* path (Figure 9a) into `out`.
    pub fn buffer_into(
        &self,
        system: BinderSystem,
        bytes: u64,
        cost: &CostModel,
        out: &mut CycleLedger,
    ) {
        let touches = 2 * self.per_byte(self.touch_millicycles_per_byte, bytes);
        match system {
            BinderSystem::Binder => {
                // ioctl + dispatch, twofold Parcel copy, surface touches.
                out.charge(Phase::Driver, self.driver_fixed);
                out.charge(Phase::Transfer, 2 * cost.copy_cycles(bytes));
                out.charge(Phase::Compute, touches);
            }
            BinderSystem::BinderXpc => {
                self.xpc_control_into(cost, out);
                out.charge(Phase::Compute, touches);
            }
            BinderSystem::AshmemXpc => {
                unimplemented!("Ashmem-XPC is an ashmem-path system (Figure 9b)")
            }
        }
    }

    /// Charge the phases of the *ashmem* path (Figure 9b) into `out`.
    pub fn ashmem_into(
        &self,
        system: BinderSystem,
        bytes: u64,
        cost: &CostModel,
        out: &mut CycleLedger,
    ) {
        let draw = self.per_byte(self.draw_millicycles_per_byte, bytes);
        match system {
            BinderSystem::Binder => {
                out.charge(Phase::Driver, self.ashmem_fixed);
                out.charge(
                    Phase::Transfer,
                    self.per_byte(self.ashmem_copy_millicycles_per_byte, bytes),
                );
                out.charge(Phase::Compute, draw);
            }
            BinderSystem::AshmemXpc => {
                out.charge(Phase::Driver, self.ashmem_xpc_fixed);
                out.charge(Phase::Compute, draw);
            }
            BinderSystem::BinderXpc => {
                self.xpc_control_into(cost, out);
                out.charge(Phase::Compute, draw);
            }
        }
    }

    /// Transaction latency in cycles for the *buffer* path (Figure 9a).
    pub fn buffer_cycles(&self, system: BinderSystem, bytes: u64, cost: &CostModel) -> u64 {
        let mut l = CycleLedger::new();
        self.buffer_into(system, bytes, cost, &mut l);
        l.total()
    }

    /// Transaction latency in cycles for the *ashmem* path (Figure 9b).
    pub fn ashmem_cycles(&self, system: BinderSystem, bytes: u64, cost: &CostModel) -> u64 {
        let mut l = CycleLedger::new();
        self.ashmem_into(system, bytes, cost, &mut l);
        l.total()
    }
}

/// The Binder stack as an [`IpcSystem`]: one surface transaction per
/// `oneway_into`, priced by the Figure 9 model.
#[derive(Debug, Clone)]
pub struct BinderIpc {
    system: BinderSystem,
    /// Use the ashmem path (Figure 9b) instead of the transaction buffer.
    pub ashmem: bool,
    cfg: BinderConfig,
    cost: CostModel,
}

impl BinderIpc {
    /// A Figure 9 system on the default fitted constants.
    pub fn new(system: BinderSystem, ashmem: bool) -> Self {
        assert!(
            ashmem || system != BinderSystem::AshmemXpc,
            "Ashmem-XPC only exists on the ashmem path"
        );
        BinderIpc {
            system,
            ashmem,
            cfg: BinderConfig::default(),
            cost: CostModel::u500(),
        }
    }
}

impl IpcSystem for BinderIpc {
    fn name(&self) -> String {
        if self.ashmem {
            format!("{}+ashmem", self.system.name())
        } else {
            self.system.name().to_string()
        }
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let bytes = msg_len as u64;
        if self.ashmem {
            self.cfg.ashmem_into(self.system, bytes, &self.cost, out);
        } else {
            self.cfg.buffer_into(self.system, bytes, &self.cost, out);
        }
        // XPC variants mitigate at engine rates; stock Binder pays the
        // software-equivalent lookups in its driver/kernel path.
        let hw = self.system != BinderSystem::Binder;
        self.cost.charge_hardening(hw, msg_len, opts, out);
        match (self.system, self.ashmem) {
            (BinderSystem::Binder, false) => bytes.saturating_mul(2),
            (BinderSystem::Binder, true) => bytes,
            _ => 0, // relay segment: handover, no copies
        }
    }

    fn supports_handover(&self) -> bool {
        self.system != BinderSystem::Binder
    }

    /// Binder batching = one `BINDER_WRITE_READ` ioctl carrying many
    /// transactions: repeat transactions in the burst skip roughly half
    /// the control path (the ioctl entry and framework dispatch) but
    /// still pay per-transaction Parcel copies, surface work and the
    /// driver's per-transaction bookkeeping.
    fn amortizable_cycles(&self, phase: Phase, first_cycles: u64, _opts: &InvokeOpts) -> u64 {
        match phase {
            Phase::Driver => first_cycles / 2,
            _ => 0,
        }
    }
}

/// Figure 9 latency in microseconds.
pub fn binder_latency_us(system: BinderSystem, ashmem: bool, bytes: u64) -> f64 {
    let cfg = BinderConfig::default();
    let cost = CostModel::u500();
    let cycles = if ashmem {
        cfg.ashmem_cycles(system, bytes, &cost)
    } else {
        cfg.buffer_cycles(system, bytes, &cost)
    };
    cost.cycles_to_us(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::oneway;

    #[test]
    fn fig9a_binder_magnitudes() {
        // Published: 378.4 us at 2 KB, 878.0 us at 16 KB.
        let l2k = binder_latency_us(BinderSystem::Binder, false, 2048);
        let l16k = binder_latency_us(BinderSystem::Binder, false, 16384);
        assert!((250.0..500.0).contains(&l2k), "2KB: {l2k}");
        assert!((500.0..1100.0).contains(&l16k), "16KB: {l16k}");
        assert!(l16k > l2k);
    }

    #[test]
    fn fig9a_xpc_speedup_band() {
        // Published improvements: 46.2x at 2 KB, 30.2x at 16 KB.
        let s2k = binder_latency_us(BinderSystem::Binder, false, 2048)
            / binder_latency_us(BinderSystem::BinderXpc, false, 2048);
        let s16k = binder_latency_us(BinderSystem::Binder, false, 16384)
            / binder_latency_us(BinderSystem::BinderXpc, false, 16384);
        assert!((25.0..60.0).contains(&s2k), "2KB speedup: {s2k}");
        assert!((20.0..50.0).contains(&s16k), "16KB speedup: {s16k}");
        assert!(s2k > s16k, "speedup shrinks as payload grows");
    }

    #[test]
    fn fig9b_ashmem_endpoints() {
        // Published: Binder 0.5 ms @ 4 KB to 233.2 ms @ 32 MB;
        // Ashmem-XPC 0.3 ms @ 4 KB to 82.0 ms @ 32 MB (2.8x).
        let b4k = binder_latency_us(BinderSystem::Binder, true, 4096) / 1000.0;
        let b32m = binder_latency_us(BinderSystem::Binder, true, 32 << 20) / 1000.0;
        assert!((0.3..0.8).contains(&b4k), "4KB: {b4k} ms");
        assert!((150.0..350.0).contains(&b32m), "32MB: {b32m} ms");
        let a32m = binder_latency_us(BinderSystem::AshmemXpc, true, 32 << 20) / 1000.0;
        let speedup = b32m / a32m;
        assert!(
            (2.0..4.0).contains(&speedup),
            "32MB ashmem speedup: {speedup}"
        );
    }

    #[test]
    fn fig9b_binder_xpc_dominates() {
        for bytes in [4096u64, 1 << 20, 32 << 20] {
            let b = binder_latency_us(BinderSystem::Binder, true, bytes);
            let ax = binder_latency_us(BinderSystem::AshmemXpc, true, bytes);
            let bx = binder_latency_us(BinderSystem::BinderXpc, true, bytes);
            assert!(bx <= ax, "full port at least as fast at {bytes}");
            assert!(ax < b, "ashmem-xpc beats stock at {bytes}");
        }
    }

    #[test]
    fn binder_ipc_matches_the_latency_model() {
        for (system, ashmem) in [
            (BinderSystem::Binder, false),
            (BinderSystem::BinderXpc, false),
            (BinderSystem::Binder, true),
            (BinderSystem::AshmemXpc, true),
            (BinderSystem::BinderXpc, true),
        ] {
            let mut sys = BinderIpc::new(system, ashmem);
            for bytes in [0usize, 2048, 16384, 1 << 20] {
                let inv = oneway(&mut sys, bytes, &InvokeOpts::call());
                assert_eq!(inv.total, inv.ledger.total());
                let us = CostModel::u500().cycles_to_us(inv.total);
                let reference = binder_latency_us(system, ashmem, bytes as u64);
                assert!(
                    (us - reference).abs() < 1e-9,
                    "{}: {us} vs {reference}",
                    sys.name()
                );
            }
        }
    }

    #[test]
    fn xpc_variant_ledgers_show_the_instructions() {
        let inv = oneway(
            &mut BinderIpc::new(BinderSystem::BinderXpc, false),
            2048,
            &InvokeOpts::call(),
        );
        assert_eq!(inv.ledger.get(Phase::Xcall), 18);
        assert_eq!(inv.ledger.get(Phase::Xret), 23);
        assert_eq!(inv.copied_bytes, 0);
        let stock = oneway(
            &mut BinderIpc::new(BinderSystem::Binder, false),
            2048,
            &InvokeOpts::call(),
        );
        assert_eq!(stock.copied_bytes, 2 * 2048);
        assert!(stock.ledger.get(Phase::Driver) > inv.ledger.get(Phase::Driver));
    }

    #[test]
    fn fig9b_large_sizes_converge() {
        // §5.5: at 32 MB the improvement is only 2.8x — the draw pass
        // dominates, so Binder-XPC and Ashmem-XPC converge.
        let bx = binder_latency_us(BinderSystem::BinderXpc, true, 32 << 20);
        let ax = binder_latency_us(BinderSystem::AshmemXpc, true, 32 << 20);
        assert!((ax - bx).abs() / ax < 0.1, "within 10%: {bx} vs {ax}");
    }
}
