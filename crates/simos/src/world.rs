//! The charging context service code runs against.
//!
//! A [`World`] owns a cycle clock, the active IPC system, and the
//! accounting that Figure 1 is made of: how many cycles went to IPC vs
//! everything else, and the per-message-size distribution of IPC time.
//! Every IPC charge is priced into a [`CycleLedger`], so the world's
//! stats also carry a merged ledger attributing all IPC time to phases.

use crate::cost::CostModel;
use crate::ipc::{EngineCacheStats, IpcSystem};
use crate::ledger::{CycleLedger, InvokeOpts, Phase};

/// Byte counts cross from the u64 cycle domain into the `usize` message
/// lengths [`IpcSystem`] takes here; on 64-bit targets the check folds
/// to nothing.
pub(crate) fn msg_len(bytes: u64) -> usize {
    usize::try_from(bytes).expect("message length fits usize")
}

/// Accumulated accounting.
#[derive(Debug, Clone, Default)]
pub struct WorldStats {
    /// Cycles spent inside the IPC system.
    pub ipc_cycles: u64,
    /// Cycles spent on everything else (compute, data passes).
    pub other_cycles: u64,
    /// Of the IPC cycles, how many were moving message payload.
    pub ipc_transfer_cycles: u64,
    /// `(message_bytes, ipc_cycles)` per IPC event — Figure 1(b)'s CDF
    /// source.
    pub events: Vec<(u64, u64)>,
    /// Total IPC invocations.
    pub ipc_count: u64,
    /// Total bytes moved through IPC payloads.
    pub payload_bytes: u64,
    /// Phase attribution merged over every invocation charged so far.
    pub ledger: CycleLedger,
}

impl WorldStats {
    /// Fraction of total cycles spent in IPC (Figure 1(a)). Both
    /// counters saturate, so their sum is taken in `u128`.
    pub fn ipc_fraction(&self) -> f64 {
        let total = u128::from(self.ipc_cycles) + u128::from(self.other_cycles);
        if total == 0 {
            0.0
        } else {
            self.ipc_cycles as f64 / total as f64
        }
    }

    /// Fraction of IPC time spent on data transfer (the 58.7% of §2.1).
    pub fn transfer_fraction_of_ipc(&self) -> f64 {
        if self.ipc_cycles == 0 {
            0.0
        } else {
            self.ipc_transfer_cycles as f64 / self.ipc_cycles as f64
        }
    }

    /// Cumulative distribution of IPC time by message size: returns
    /// `(size_bound, fraction_of_ipc_time_at_or_below)` for each bound.
    /// Event cycles are summed in `u128`, so no count of events can
    /// overflow the sums.
    pub fn cdf_by_size(&self, bounds: &[u64]) -> Vec<(u64, f64)> {
        let total: u128 = self.events.iter().map(|&(_, c)| u128::from(c)).sum();
        if total == 0 {
            return bounds.iter().map(|&b| (b, 0.0)).collect();
        }
        bounds
            .iter()
            .map(|&b| {
                let at_or_below: u128 = self
                    .events
                    .iter()
                    .filter(|(len, _)| *len <= b)
                    .map(|&(_, c)| u128::from(c))
                    .sum();
                (b, at_or_below as f64 / total as f64)
            })
            .collect()
    }
}

/// The execution context: clock + system + stats.
pub struct World {
    /// Cycle clock.
    pub cycles: u64,
    /// Cost constants.
    pub cost: CostModel,
    ipc: Box<dyn IpcSystem>,
    /// Accounting.
    pub stats: WorldStats,
    /// Reused sink [`ipc_roundtrip`](Self::ipc_roundtrip) /
    /// [`ipc_oneway`](Self::ipc_oneway) price through.
    scratch: CycleLedger,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("cycles", &self.cycles)
            .field("ipc", &self.ipc.name())
            .finish()
    }
}

impl World {
    /// A world using IPC system `ipc`.
    pub fn new(ipc: Box<dyn IpcSystem>) -> Self {
        World {
            cycles: 0,
            cost: CostModel::u500(),
            ipc,
            stats: WorldStats::default(),
            scratch: CycleLedger::new(),
        }
    }

    /// Name of the active system.
    pub fn ipc_name(&self) -> String {
        self.ipc.name()
    }

    /// Whether the active system hands messages over without copies.
    pub fn handover(&self) -> bool {
        self.ipc.supports_handover()
    }

    /// Whether the active system migrates the calling thread (cross-core
    /// calls cost the same as same-core, §5.2).
    pub(crate) fn migrating_threads(&self) -> bool {
        self.ipc.migrating_threads()
    }

    /// The active system, for pricing hops *without* charging them: the
    /// multicore layer prices into its own sink here, adds cross-core
    /// cost when the call leaves the core, then charges the priced
    /// cycles via [`charge_ipc`](Self::charge_ipc).
    pub(crate) fn ipc(&mut self) -> &mut dyn IpcSystem {
        self.ipc.as_mut()
    }

    /// Protection-boundary crossings a fused program of `hops` hops
    /// costs the active system (see [`IpcSystem::fused_crossings`]).
    pub(crate) fn fused_crossings(&self, hops: u64) -> u64 {
        self.ipc.fused_crossings(hops)
    }

    /// Engine-cache counters of the active system, when it models one.
    pub(crate) fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
        self.ipc.engine_cache_stats()
    }

    /// Charge one IPC round trip carrying `request` bytes out and
    /// `response` bytes back.
    pub fn ipc_roundtrip(&mut self, request: u64, response: u64) {
        self.scratch.clear();
        self.ipc
            .oneway_into(msg_len(request), &InvokeOpts::call(), &mut self.scratch);
        self.ipc.oneway_into(
            msg_len(response),
            &InvokeOpts::reply_leg(),
            &mut self.scratch,
        );
        self.charge_scratch(request + response);
    }

    /// Charge a one-way IPC (calls into a chain that will not reply yet).
    pub fn ipc_oneway(&mut self, bytes: u64) {
        self.scratch.clear();
        self.ipc
            .oneway_into(msg_len(bytes), &InvokeOpts::call(), &mut self.scratch);
        self.charge_scratch(bytes);
    }

    /// Charge the invocation just priced into `scratch`, carrying
    /// `payload` bytes: the clock, the IPC/compute split, one Figure 1(b)
    /// size-histogram event, and the merged ledger.
    fn charge_scratch(&mut self, payload: u64) {
        let total = self.scratch.total();
        self.charge_ipc(1, payload, total, self.scratch.get(Phase::Transfer));
        self.stats.events.push((payload, total));
        self.stats.ledger.merge(&self.scratch);
    }

    /// Lean charge for an already-priced batch of `calls` invocations
    /// carrying `payload` bytes, whose spans total `cycles`, `transfer`
    /// of them [`Phase::Transfer`]: advances the clock and the scalar
    /// counters only (saturating — a step priced from an absurd count
    /// pins them at `u64::MAX` instead of wrapping). Deliberately skips
    /// the per-event size histogram and the per-world merged ledger —
    /// under a [`MultiWorld`](crate::MultiWorld) the
    /// [`Attribution`](crate::ledger::Attribution) sink owns phase
    /// attribution, and neither is read by the load reports.
    pub(crate) fn charge_ipc(&mut self, calls: u64, payload: u64, cycles: u64, transfer: u64) {
        let stats = &mut self.stats;
        self.cycles = self.cycles.saturating_add(cycles);
        stats.ipc_cycles = stats.ipc_cycles.saturating_add(cycles);
        stats.ipc_transfer_cycles = stats.ipc_transfer_cycles.saturating_add(transfer);
        stats.ipc_count = stats.ipc_count.saturating_add(calls);
        stats.payload_bytes = stats.payload_bytes.saturating_add(payload);
    }

    /// Charge non-IPC compute cycles (saturating).
    pub fn compute(&mut self, cycles: u64) {
        self.cycles = self.cycles.saturating_add(cycles);
        self.stats.other_cycles = self.stats.other_cycles.saturating_add(cycles);
    }

    /// Charge one pass over `bytes` of data (memcpy-grade work) outside
    /// IPC — e.g. a ramdisk filling a buffer, AES with a multiplier.
    pub fn data_pass(&mut self, bytes: u64, intensity_x10: u64) {
        self.compute(self.cost.data_pass_cycles(bytes, intensity_x10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl IpcSystem for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn oneway_into(
            &mut self,
            msg_len: usize,
            _opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            out.charge(Phase::Trap, 100);
            out.charge(Phase::Transfer, msg_len as u64);
            msg_len as u64
        }
    }

    fn world() -> World {
        World::new(Box::new(Fixed))
    }

    #[test]
    fn accounting_splits_ipc_and_compute() {
        let mut w = world();
        w.ipc_roundtrip(50, 0);
        w.compute(250);
        assert_eq!(w.stats.ipc_cycles, 100 + 50 + 100);
        assert_eq!(w.stats.other_cycles, 250);
        assert_eq!(w.cycles, 500);
        assert!((w.stats.ipc_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn events_feed_cdf() {
        let mut w = world();
        w.ipc_oneway(10); // 110 cycles at size 10
        w.ipc_oneway(1000); // 1100 cycles at size 1000
        let cdf = w.stats.cdf_by_size(&[10, 100, 1000]);
        let total = 110.0 + 1100.0;
        assert!((cdf[0].1 - 110.0 / total).abs() < 1e-9);
        assert!((cdf[1].1 - 110.0 / total).abs() < 1e-9);
        assert!((cdf[2].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_attribution_comes_from_the_ledger() {
        let mut w = world();
        w.ipc_oneway(40);
        assert_eq!(w.stats.ipc_transfer_cycles, 40);
        assert_eq!(w.stats.ledger.get(Phase::Trap), 100);
        assert_eq!(w.stats.ledger.get(Phase::Transfer), 40);
        assert_eq!(w.stats.ledger.total(), w.stats.ipc_cycles);
    }

    #[test]
    fn fractions_of_saturated_counters_do_not_overflow() {
        let mut w = world();
        w.compute(u64::MAX);
        w.ipc_oneway(8);
        let f = w.stats.ipc_fraction();
        assert!(f > 0.0 && f < 1e-15, "IPC fraction {f}");
        w.stats.events = vec![(8, u64::MAX), (64, u64::MAX)];
        assert_eq!(w.stats.cdf_by_size(&[8, 64]), [(8, 0.5), (64, 1.0)]);
    }

    #[test]
    fn data_pass_scales_with_intensity() {
        let mut w = world();
        w.data_pass(4096, 10);
        let one = w.stats.other_cycles;
        w.data_pass(4096, 30);
        assert_eq!(w.stats.other_cycles - one, 3 * one);
    }
}
