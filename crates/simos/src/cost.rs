//! The calibrated cycle-cost constants.
//!
//! Provenance of every number is one of:
//! * **Table 1** (seL4 fastpath phase breakdown measured on the U500);
//! * **Table 3 / Figure 5** (XPC instruction costs — also measured by our
//!   own emulator, see `xpc-engine`'s calibration tests);
//! * **§5.2 text** (cross-core and Zircon ratios: 81–141× and ~60×).
//!
//! Copy cost: Table 1 reports 4010 cycles to move 4 KiB through shared
//! memory, i.e. ~0.98 cycles/byte for one pass over the data. We charge
//! `copy_num/copy_den` cycles per byte per copy.

use crate::ledger::{CycleLedger, InvokeOpts, Phase};

/// Cycle-cost constants for the OS models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Trap into the kernel (Table 1: 107).
    pub trap: u64,
    /// Kernel IPC logic: capability checks etc. (Table 1: 212).
    pub ipc_logic: u64,
    /// Process switch: queues, reply cap, satp (Table 1: 146).
    pub process_switch: u64,
    /// Context restore + return to user (Table 1: 199).
    pub restore: u64,
    /// Copy cost numerator (cycles per `copy_den` bytes, one pass).
    pub copy_num: u64,
    /// Copy cost denominator.
    pub copy_den: u64,
    /// Extra cost of the seL4 *slow path* beyond the fast path (the 64 B
    /// medium-message case measured at 2182 cycles total in §2.2).
    pub slowpath_extra: u64,
    /// Full scheduler pass (slow-path IPC, async kernels).
    pub schedule: u64,
    /// Cross-core baseline IPC: IPI + remote wakeup + cache transfer
    /// (calibrated so seL4 cross-core ≈ 81× XPC at 0 B, §5.2).
    pub cross_core_base: u64,
    /// `xcall` cycles (Table 3: 18).
    pub xcall: u64,
    /// `xcall` cycles when the x-entry is already in the engine cache
    /// (Figure 5: the "+Engine Cache" bar measures 6 — see the harness
    /// test `engine_cache_reduces_xcall_to_6`). Batched repeat calls to
    /// the same entry hit the one-entry cache and pay this instead.
    pub xcall_cached: u64,
    /// Cycles to fetch an x-entry line from a remote socket's x-entry
    /// shard, *per socket-distance unit* (sharded x-entry tables: a
    /// local-shard `xcall` pays nothing, a remote lookup pays
    /// `xentry_shard_fetch × distance`). Calibrated to one cache-line
    /// pull across the interconnect per distance unit.
    pub xentry_shard_fetch: u64,
    /// `xret` cycles (Table 3: 23).
    pub xret: u64,
    /// `swapseg` cycles (Table 3: 11).
    pub swapseg: u64,
    /// Caller-side full-context trampoline (Figure 5: 76).
    pub trampoline_full: u64,
    /// Caller-side partial-context trampoline (Figure 5: 15).
    pub trampoline_partial: u64,
    /// Post-switch TLB refill penalty without tagged TLB (Figure 5: ~40).
    pub tlb_refill: u64,
    /// Zircon one-way channel IPC base: syscall + handle checks + wait
    /// queue + scheduler (calibrated to §5.2's ~60× at small sizes).
    pub zircon_oneway_base: u64,
    /// Revocation-epoch compare on the `xcall` cap walk (hardware rate:
    /// one extra field on the cache line the engine already fetched).
    pub epoch_check: u64,
    /// Software-equivalent epoch check for trap-based kernels: a
    /// generation-table lookup in the kernel IPC-logic path.
    pub epoch_check_sw: u64,
    /// Per-hop tenant flow tag stamp + verify riding the linkage record
    /// (hardware rate).
    pub flow_tag: u64,
    /// Software-equivalent flow-tag bookkeeping for trap-based kernels.
    pub flow_tag_sw: u64,
    /// Zero-on-handover scrub cost numerator (cycles per `scrub_den`
    /// bytes — a store-only pass, cheaper than a copy's load+store).
    pub scrub_num: u64,
    /// Zero-on-handover scrub cost denominator.
    pub scrub_den: u64,
    /// Core clock in Hz, for converting cycles to wall time (the U500
    /// FPGA bitstream runs at 100 MHz).
    pub clock_hz: u64,
}

impl CostModel {
    /// The RISC-V U500 calibration used throughout the evaluation.
    pub fn u500() -> Self {
        CostModel {
            trap: 107,
            ipc_logic: 212,
            process_switch: 146,
            restore: 199,
            copy_num: 4010,
            copy_den: 4096,
            slowpath_extra: 2182 - 664, // measured 64 B slow-path total 2182
            schedule: 900,
            cross_core_base: 10_700,
            xcall: 18,
            xcall_cached: 6,
            xentry_shard_fetch: 50,
            xret: 23,
            swapseg: 11,
            trampoline_full: 76,
            trampoline_partial: 15,
            tlb_refill: 40,
            zircon_oneway_base: 8_000,
            epoch_check: 2,
            epoch_check_sw: 24,
            flow_tag: 3,
            flow_tag_sw: 30,
            scrub_num: 2005,
            scrub_den: 4096,
            clock_hz: 100_000_000,
        }
    }

    /// Cycles for one pass over `bytes` (one copy). The product
    /// saturates, so a byte count near `u64::MAX` prices as a huge pass
    /// rather than wrapping to a small one.
    #[inline]
    pub fn copy_cycles(&self, bytes: u64) -> u64 {
        bytes.saturating_mul(self.copy_num) / self.copy_den
    }

    /// Cycles for one pass over `bytes` of data at `intensity_x10 / 10`
    /// × memcpy-grade work per byte (saturating, like
    /// [`copy_cycles`](Self::copy_cycles)).
    #[inline]
    pub(crate) fn data_pass_cycles(&self, bytes: u64, intensity_x10: u64) -> u64 {
        self.copy_cycles(bytes).saturating_mul(intensity_x10) / 10
    }

    /// The seL4 fast-path one-way cost without message transfer
    /// (Table 1's first four rows: 664).
    pub fn sel4_fastpath_base(&self) -> u64 {
        self.trap + self.ipc_logic + self.process_switch + self.restore
    }

    /// Charge Table 1's first four rows into `out` (they sum to
    /// [`sel4_fastpath_base`](Self::sel4_fastpath_base)).
    #[inline]
    pub fn sel4_fastpath_into(&self, out: &mut CycleLedger) {
        out.charge(Phase::Trap, self.trap);
        out.charge(Phase::IpcLogic, self.ipc_logic);
        out.charge(Phase::Switch, self.process_switch);
        out.charge(Phase::Restore, self.restore);
    }

    /// One-way XPC cost: trampoline + xcall + TLB refill (Figure 5's
    /// rightmost decomposition; `full_ctx` picks the trampoline flavour,
    /// `tagged_tlb` removes the refill penalty).
    #[inline]
    pub fn xpc_oneway(&self, full_ctx: bool, tagged_tlb: bool) -> u64 {
        let mut l = CycleLedger::new();
        self.xpc_oneway_into(full_ctx, tagged_tlb, &mut l);
        l.total()
    }

    /// Charge the Figure 5 decomposition behind
    /// [`xpc_oneway`](Self::xpc_oneway) into `out`: trampoline, `xcall`,
    /// and (untagged only) TLB refill.
    #[inline]
    pub fn xpc_oneway_into(&self, full_ctx: bool, tagged_tlb: bool, out: &mut CycleLedger) {
        let tramp = if full_ctx {
            self.trampoline_full
        } else {
            self.trampoline_partial
        };
        out.charge(Phase::Trampoline, tramp);
        out.charge(Phase::Xcall, self.xcall);
        if !tagged_tlb {
            out.charge(Phase::TlbRefill, self.tlb_refill);
        }
    }

    /// Cycles for one zeroing pass over `bytes` (store-only; the product
    /// saturates, like [`copy_cycles`](Self::copy_cycles)).
    #[inline]
    pub fn scrub_cycles(&self, bytes: u64) -> u64 {
        bytes.saturating_mul(self.scrub_num) / self.scrub_den
    }

    /// Charge the temporal mitigations `opts.hardening` asks for into
    /// `out` — the one pricing path every kernel model shares, so the
    /// security tax is attributed identically whether the mechanism is
    /// the XPC engine (`hw = true`: the epoch compare rides the `xcall`
    /// cap walk, the flow tag rides the linkage record push/pop) or a
    /// trap-based baseline (`hw = false`: both become kernel-side table
    /// lookups in the IPC-logic path). The zero-on-handover scrub is a
    /// per-byte store pass for everyone, charged to [`Phase::Scrub`].
    /// With [`Hardening::NONE`](crate::ledger::Hardening::NONE) this
    /// charges nothing (no spans appear), keeping unhardened ledgers
    /// byte-identical to the pre-hardening model.
    ///
    /// Always inlined: every model calls it once per leg from the
    /// `kernels` crate, and as an out-of-line call it cost more than the
    /// three flag tests it makes when every mitigation is off (plain
    /// `#[inline]` leaves it out of line).
    #[inline(always)]
    pub fn charge_hardening(
        &self,
        hw: bool,
        msg_len: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) {
        let h = opts.hardening;
        if h.revocation_epochs && !opts.reply {
            if hw {
                out.charge(Phase::Xcall, self.epoch_check);
            } else {
                out.charge(Phase::IpcLogic, self.epoch_check_sw);
            }
        }
        if h.flow_tags {
            if hw {
                let phase = if opts.reply {
                    Phase::Xret
                } else {
                    Phase::Xcall
                };
                out.charge(phase, self.flow_tag);
            } else {
                out.charge(Phase::IpcLogic, self.flow_tag_sw);
            }
        }
        if h.zero_on_handover && msg_len > 0 {
            out.charge(Phase::Scrub, self.scrub_cycles(msg_len as u64));
        }
    }

    /// Convert cycles to microseconds at the model clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64 * 1e6
    }

    /// Convert cycles + bytes to MB/s throughput at the model clock.
    pub fn throughput_mb_s(&self, bytes: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let secs = cycles as f64 / self.clock_hz as f64;
        bytes as f64 / 1e6 / secs
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::u500()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sum_is_664() {
        assert_eq!(CostModel::u500().sel4_fastpath_base(), 664);
    }

    #[test]
    fn table1_4k_transfer_is_4010() {
        assert_eq!(CostModel::u500().copy_cycles(4096), 4010);
    }

    #[test]
    fn xpc_oneway_matches_fig5_decomposition() {
        let c = CostModel::u500();
        // Full-Cxt + Nonblock Link Stack (the default evaluation config):
        // 76 + 18 + 40 = 134.
        assert_eq!(c.xpc_oneway(true, false), 134);
        // All optimizations minus engine cache: 15 + 18 = 33 (Figure 5's
        // "+Nonblock" bar).
        assert_eq!(c.xpc_oneway(false, true), 33);
    }

    #[test]
    fn speedup_bands_match_section_5_2() {
        let c = CostModel::u500();
        let xpc = c.xpc_oneway(true, false) as f64;
        let sel4_0b = c.sel4_fastpath_base() as f64;
        let sel4_4k = sel4_0b + c.copy_cycles(4096) as f64;
        let s0 = sel4_0b / xpc;
        let s4k = sel4_4k / xpc;
        assert!((4.5..6.0).contains(&s0), "≈5x at 0B, got {s0:.1}");
        assert!((33.0..38.0).contains(&s4k), "≈37x at 4KB, got {s4k:.1}");
        // Cross-core: ≈81x at small messages.
        let cc = (c.cross_core_base as f64 + sel4_0b) / ((c.xpc_oneway(true, false)) as f64);
        assert!((75.0..90.0).contains(&cc), "≈81x cross-core, got {cc:.1}");
        // Zircon ≈60x at small messages.
        let z = c.zircon_oneway_base as f64 / xpc;
        assert!((55.0..65.0).contains(&z), "≈60x for Zircon, got {z:.1}");
    }

    #[test]
    fn ledgers_sum_to_the_scalar_helpers() {
        let c = CostModel::u500();
        let mut l = CycleLedger::new();
        c.sel4_fastpath_into(&mut l);
        assert_eq!(l.total(), c.sel4_fastpath_base());
        assert_eq!(l.get(Phase::IpcLogic), 212);
        for full in [true, false] {
            for tagged in [true, false] {
                l.clear();
                c.xpc_oneway_into(full, tagged, &mut l);
                assert_eq!(l.total(), c.xpc_oneway(full, tagged));
                assert_eq!(l.get(Phase::TlbRefill) == 0, tagged);
            }
        }
    }

    #[test]
    fn hardening_off_charges_nothing() {
        let c = CostModel::u500();
        for hw in [true, false] {
            for opts in [InvokeOpts::call(), InvokeOpts::reply_leg()] {
                let mut l = CycleLedger::new();
                c.charge_hardening(hw, 4096, &opts, &mut l);
                assert!(l.is_empty(), "NONE must leave the ledger untouched");
            }
        }
    }

    #[test]
    fn hardening_rates_split_hw_vs_sw() {
        use crate::ledger::Hardening;
        let c = CostModel::u500();
        let opts = InvokeOpts::call().hardened(Hardening::ALL);
        let mut hw = CycleLedger::new();
        c.charge_hardening(true, 4096, &opts, &mut hw);
        assert_eq!(hw.get(Phase::Xcall), c.epoch_check + c.flow_tag);
        assert_eq!(hw.get(Phase::Scrub), c.scrub_cycles(4096));
        assert_eq!(hw.get(Phase::IpcLogic), 0);
        let mut sw = CycleLedger::new();
        c.charge_hardening(false, 4096, &opts, &mut sw);
        assert_eq!(sw.get(Phase::IpcLogic), c.epoch_check_sw + c.flow_tag_sw);
        assert_eq!(sw.get(Phase::Scrub), c.scrub_cycles(4096));
        assert_eq!(sw.get(Phase::Xcall), 0);
        assert!(sw.total() > hw.total(), "software mitigation costs more");
        // Reply legs re-verify the flow tag but never re-check the epoch
        // (the capability was consumed on the call leg), and scrub only
        // what they carry.
        let reply = InvokeOpts::reply_leg().hardened(Hardening::ALL);
        let mut r = CycleLedger::new();
        c.charge_hardening(true, 0, &reply, &mut r);
        assert_eq!(r.get(Phase::Xret), c.flow_tag);
        assert_eq!(r.get(Phase::Xcall), 0);
        assert_eq!(r.get(Phase::Scrub), 0);
    }

    #[test]
    fn per_byte_passes_saturate() {
        // `bytes * scrub_num` used to overflow past ~9 PB: a debug panic,
        // a release wrap to a small scrub.
        let c = CostModel::u500();
        assert_eq!(c.scrub_cycles(u64::MAX), u64::MAX / c.scrub_den);
        assert_eq!(c.copy_cycles(u64::MAX), u64::MAX / c.copy_den);
        assert_eq!(c.scrub_cycles(4096), 2005);
    }

    #[test]
    fn unit_conversions() {
        let c = CostModel::u500();
        assert!((c.cycles_to_us(100) - 1.0).abs() < 1e-9);
        let t = c.throughput_mb_s(1_000_000, 100_000_000);
        assert!((t - 1.0).abs() < 1e-9);
    }
}
