//! The XPC-accelerated IPC model: kernel-bypass `xcall`/`xret` plus
//! relay-segment handover, usable as the `-XPC` variant of any ported
//! kernel (seL4-XPC, Zircon-XPC).
//!
//! One-way cost is the Figure 5 decomposition: caller trampoline +
//! `xcall` + post-switch TLB refills; the reply leg (selected via
//! [`InvokeOpts::reply`]) pays `xret` + TLB. Messages ride the relay
//! segment regardless of size — zero copies, so the cost is *flat* in
//! message size, which is where the 5–37× (same-core) and 81–141×
//! (cross-core) bands of §5.2 come from.

use simos::cost::CostModel;
use simos::ipc::{amortized_batch_into, EngineCacheStats, IpcSystem};
use simos::ledger::{CycleLedger, InvokeOpts, Phase};

/// The XPC IPC model.
#[derive(Debug, Clone)]
pub struct XpcIpc {
    cost: CostModel,
    label: &'static str,
    /// Full (mutually distrusting) or partial caller context save.
    pub full_ctx: bool,
    /// Tagged TLB removes the post-switch refill penalty.
    pub tagged_tlb: bool,
    /// Engine-cache counters accumulated by batched submissions
    /// (mirrors `xpc-engine`'s `XpcStats`).
    pub stats: EngineCacheStats,
}

impl XpcIpc {
    /// The seL4-XPC variant (paper default: full context, untagged TLB).
    pub fn sel4_xpc() -> Self {
        XpcIpc {
            cost: CostModel::u500(),
            label: "seL4-XPC",
            full_ctx: true,
            tagged_tlb: false,
            stats: EngineCacheStats::default(),
        }
    }

    /// The Zircon-XPC variant (same engine path).
    pub fn zircon_xpc() -> Self {
        XpcIpc {
            label: "Zircon-XPC",
            ..Self::sel4_xpc()
        }
    }

    /// Cross-core: the migrating-thread model runs the server's code on
    /// the client's core, so the cost is unchanged (§5.2 "Multi-core
    /// IPC") — provided for symmetry with the baselines.
    pub fn cross_core(self) -> Self {
        self
    }
}

impl IpcSystem for XpcIpc {
    fn name(&self) -> String {
        self.label.to_string()
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        if opts.reply {
            // Return leg: xret restores the caller's context directly
            // (the link-stack entry, not the x-entry table, so sharding
            // never touches it).
            out.charge(Phase::Xret, self.cost.xret);
            if !self.tagged_tlb {
                out.charge(Phase::TlbRefill, self.cost.tlb_refill);
            }
        } else {
            self.cost
                .xpc_oneway_into(self.full_ctx, self.tagged_tlb, out);
            if opts.shard_dist > 0 {
                // Sharded x-entry table: this uncached call leg resolves
                // its x-entry from the callee socket's shard,
                // `shard_dist` units across the interconnect.
                out.charge(
                    Phase::ShardMiss,
                    self.cost.xentry_shard_fetch * opts.shard_dist,
                );
                self.stats.shard_misses += 1;
            }
        }
        // Temporal mitigations at engine rates: the epoch compare rides
        // the xcall cap walk, the flow tag rides the linkage record, and
        // zero-on-handover scrubs the relay window before transfer.
        self.cost.charge_hardening(true, msg_len, opts, out);
        // Relay segment: the payload is handed over, never copied.
        0
    }

    fn supports_handover(&self) -> bool {
        true
    }

    /// §5.2 "Multi-core IPC": `xcall` migrates the calling thread into
    /// the server's address space on the *caller's* core — no IPI, no
    /// remote wakeup — so the `CrossCore` adapter surcharges it zero.
    fn migrating_threads(&self) -> bool {
        true
    }

    /// Repeat calls of a batch skip the caller trampoline entry (the
    /// context frame stays set up for the burst) and hit the engine's
    /// one-entry x-entry cache, paying `xcall_cached` instead of the full
    /// uncached fetch (Figure 5's "+Engine Cache" bar) — which also means
    /// they never consult the x-entry table, so a remote-shard fetch is
    /// paid once per burst, not per call. Per-call TLB refill and
    /// relay-segment transfer are untouched — every call still switches
    /// address spaces and hands its payload over.
    fn amortizable_cycles(&self, phase: Phase, first_cycles: u64, _opts: &InvokeOpts) -> u64 {
        match phase {
            Phase::Trampoline | Phase::ShardMiss => first_cycles,
            Phase::Xcall => self.cost.xcall.saturating_sub(self.cost.xcall_cached),
            _ => 0,
        }
    }

    /// A fused program is one submission: the first hop pays the full
    /// `xcall` entry (trampoline + uncached fetch + TLB), and every
    /// continuation hop chains server-to-server on the already-migrated
    /// thread — engine-cached `xcall` (6) plus the address-space switch's
    /// TLB refill, with no trampoline and no `xret` back to the client.
    /// Continuation x-entries ride the engine cache, so a remote shard is
    /// consulted only by the entry hop.
    fn fused_hop_into(
        &mut self,
        hop_index: u64,
        msg_len: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        if hop_index == 0 {
            return self.oneway_into(msg_len, opts, out);
        }
        out.charge(Phase::Xcall, self.cost.xcall_cached);
        if !self.tagged_tlb {
            out.charge(Phase::TlbRefill, self.cost.tlb_refill);
        }
        self.stats.cache_hits += 1;
        // Continuation xcalls still re-check epochs / stamp flow tags /
        // scrub before handing the relay window on.
        self.cost.charge_hardening(true, msg_len, opts, out);
        // Relay segment: handed over hop to hop, never copied.
        0
    }

    /// The client enters the kernel-bypass path once per program — the
    /// chained hops never return to it (crossings-per-request == 1).
    fn fused_crossings(&self, _hops: u64) -> u64 {
        1
    }

    fn invoke_batch_into(
        &mut self,
        calls: u64,
        bytes_each: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        // Call legs of a burst populate the engine cache once and hit it
        // on every repeat; reply legs (`xret`) never consult it.
        if calls > 1 && !opts.reply {
            self.stats.prefetches += 1;
            self.stats.cache_hits = self.stats.cache_hits.saturating_add(calls - 1);
        }
        amortized_batch_into(self, calls, bytes_each, opts, out)
    }

    fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sel4::{Sel4, Sel4Transfer};
    use crate::testing::{batch, oneway};

    /// A custom-labelled configuration (the ablation variants).
    fn custom(label: &'static str, full_ctx: bool, tagged_tlb: bool) -> XpcIpc {
        XpcIpc {
            label,
            full_ctx,
            tagged_tlb,
            ..XpcIpc::sel4_xpc()
        }
    }

    fn call(sys: &mut impl IpcSystem, bytes: usize) -> u64 {
        oneway(sys, bytes, &InvokeOpts::call()).total()
    }

    #[test]
    fn flat_in_message_size() {
        let mut x = XpcIpc::sel4_xpc();
        assert_eq!(call(&mut x, 0), call(&mut x, 32 << 20));
        assert_eq!(oneway(&mut x, 4096, &InvokeOpts::call()).copied_bytes, 0);
    }

    #[test]
    fn default_oneway_is_134() {
        // 76 trampoline + 18 xcall + 40 TLB (Figure 5, Full-Cxt +
        // non-blocking link stack).
        let inv = oneway(&mut XpcIpc::sel4_xpc(), 0, &InvokeOpts::call());
        assert_eq!(inv.total(), 134);
        assert_eq!(inv.ledger.get(Phase::Trampoline), 76);
        assert_eq!(inv.ledger.get(Phase::Xcall), 18);
        assert_eq!(inv.ledger.get(Phase::TlbRefill), 40);
    }

    #[test]
    fn reply_leg_pays_xret() {
        let inv = oneway(&mut XpcIpc::sel4_xpc(), 0, &InvokeOpts::reply_leg());
        assert_eq!(inv.ledger.get(Phase::Xret), 23);
        assert_eq!(inv.total(), 23 + 40);
        let tagged = oneway(&mut custom("t", true, true), 0, &InvokeOpts::reply_leg());
        assert_eq!(tagged.total(), 23);
    }

    #[test]
    fn fig6_speedup_band_same_core() {
        let mut x = XpcIpc::sel4_xpc();
        let mut s = Sel4::new(Sel4Transfer::OneCopy);
        let speedup_0 = call(&mut s, 0) as f64 / call(&mut x, 0) as f64;
        let speedup_4k = call(&mut s, 4096) as f64 / call(&mut x, 4096) as f64;
        assert!((4.5..6.0).contains(&speedup_0), "{speedup_0}");
        assert!((30.0..40.0).contains(&speedup_4k), "{speedup_4k}");
    }

    #[test]
    fn fig6_speedup_band_cross_core() {
        let mut x = XpcIpc::sel4_xpc().cross_core();
        let mut s = Sel4::cross_core(Sel4Transfer::TwoCopy);
        let small = call(&mut s, 0) as f64 / call(&mut x, 0) as f64;
        let large = call(&mut s, 4096) as f64 / call(&mut x, 4096) as f64;
        assert!((70.0..95.0).contains(&small), "≈81x small: {small}");
        assert!((130.0..155.0).contains(&large), "≈141x at 4KB: {large}");
    }

    #[test]
    fn handover_advertised() {
        assert!(XpcIpc::sel4_xpc().supports_handover());
    }

    #[test]
    fn batched_calls_hit_the_engine_cache() {
        let mut x = XpcIpc::sel4_xpc();
        let inv = batch(&mut x, 64, 4096, &InvokeOpts::call());
        // First call: 76 trampoline + 18 xcall + 40 TLB. Repeats: no
        // trampoline, cached xcall (6), full TLB refill = 46 each.
        assert_eq!(inv.ledger.get(Phase::Trampoline), 76);
        assert_eq!(inv.ledger.get(Phase::Xcall), 18 + 63 * 6);
        assert_eq!(inv.ledger.get(Phase::TlbRefill), 64 * 40);
        assert_eq!(inv.total(), 134 + 63 * 46);
        assert_eq!(inv.copied_bytes, 0, "relay segment: still zero copies");
        assert_eq!(
            x.engine_cache_stats(),
            Some(EngineCacheStats {
                prefetches: 1,
                cache_hits: 63,
                shard_misses: 0,
            })
        );
    }

    #[test]
    fn remote_shard_lookup_is_priced_on_uncached_call_legs() {
        let mut x = XpcIpc::sel4_xpc();
        let local = oneway(&mut x, 0, &InvokeOpts::call());
        let remote = oneway(&mut x, 0, &InvokeOpts::call().at_shard_distance(2));
        // One cache-line pull per distance unit: 2 × 50.
        assert_eq!(remote.ledger.get(Phase::ShardMiss), 100);
        assert_eq!(remote.total(), local.total() + 100);
        // Reply legs walk the link stack, never the x-entry table.
        let reply = oneway(&mut x, 0, &InvokeOpts::reply_leg().at_shard_distance(2));
        assert_eq!(reply.ledger.get(Phase::ShardMiss), 0);
        assert_eq!(
            x.engine_cache_stats().unwrap().shard_misses,
            1,
            "only the uncached call leg missed the shard"
        );
    }

    #[test]
    fn batches_pay_the_shard_fetch_once() {
        let mut x = XpcIpc::sel4_xpc();
        let opts = InvokeOpts::call().at_shard_distance(3);
        let inv = batch(&mut x, 64, 0, &opts);
        // The first call fetches the x-entry from the remote shard; the
        // 63 repeats hit the engine cache and skip the table entirely.
        assert_eq!(inv.ledger.get(Phase::ShardMiss), 3 * 50);
        let stats = x.engine_cache_stats().unwrap();
        assert_eq!(stats.shard_misses, 1);
        assert_eq!(stats.cache_hits, 63);
        // Amortization aside, a remote batch still costs strictly more
        // than a local one.
        let local = batch(&mut XpcIpc::sel4_xpc(), 64, 0, &InvokeOpts::call());
        assert_eq!(inv.total(), local.total() + 3 * 50);
    }

    #[test]
    fn batch_of_one_neither_amortizes_nor_counts_hits() {
        let mut x = XpcIpc::sel4_xpc();
        let single = batch(&mut x, 1, 0, &InvokeOpts::call());
        assert_eq!(
            single,
            oneway(&mut XpcIpc::sel4_xpc(), 0, &InvokeOpts::call())
        );
        assert_eq!(
            x.engine_cache_stats(),
            Some(EngineCacheStats::default()),
            "a lone call is not a burst"
        );
    }

    #[test]
    fn reply_legs_do_not_touch_the_engine_cache() {
        let mut x = XpcIpc::sel4_xpc();
        let inv = batch(&mut x, 8, 0, &InvokeOpts::reply_leg());
        // xret has no cached variant: 8 full reply legs.
        assert_eq!(inv.total(), 8 * (23 + 40));
        assert_eq!(x.engine_cache_stats(), Some(EngineCacheStats::default()));
    }

    #[test]
    fn fused_continuation_hops_pay_only_cached_xcall_plus_tlb() {
        let mut x = XpcIpc::sel4_xpc();
        let mut out = CycleLedger::new();
        // Entry hop: full uncached path (76 + 18 + 40).
        assert_eq!(x.fused_hop_into(0, 4096, &InvokeOpts::call(), &mut out), 0);
        assert_eq!(out.total(), 134);
        out.clear();
        // Continuation hop: cached xcall + TLB, no trampoline, no xret.
        assert_eq!(x.fused_hop_into(1, 4096, &InvokeOpts::call(), &mut out), 0);
        assert_eq!(out.get(Phase::Xcall), 6);
        assert_eq!(out.get(Phase::TlbRefill), 40);
        assert_eq!(out.total(), 46);
        assert_eq!(x.engine_cache_stats().unwrap().cache_hits, 1);
        // Even a continuation at shard distance rides the engine cache.
        let mut remote = CycleLedger::new();
        let opts = InvokeOpts::call().at_shard_distance(3);
        x.fused_hop_into(2, 0, &opts, &mut remote);
        assert_eq!(remote.get(Phase::ShardMiss), 0);
        // The client crosses into the fabric once, regardless of depth.
        assert_eq!(x.fused_crossings(6), 1);
    }

    #[test]
    fn tagged_tlb_and_partial_ctx_reduce_cost() {
        let full = call(&mut custom("a", true, false), 0);
        let part = call(&mut custom("b", false, false), 0);
        let tagged = call(&mut custom("c", false, true), 0);
        assert!(part < full);
        assert!(tagged < part);
    }
}
