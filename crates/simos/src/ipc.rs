//! The invocation interface every kernel model implements.
//!
//! [`IpcSystem`] is the single pipeline the whole evaluation goes
//! through: a system prices one hop of `msg_len` bytes by charging a
//! caller-provided [`CycleLedger`] sink, attributing every cycle to a
//! named [`Phase`]. The load generators reuse one sink per step; tables
//! and figures that want an owned
//! [`Invocation`](crate::ledger::Invocation) wrap the same call in
//! [`Invocation::priced`](crate::ledger::Invocation::priced).
//! Table 1 is the printed ledger of the seL4 model, Figure 5's bars are
//! ledger diffs between XPC ablations, and Figure 6's curves are ledger
//! totals swept over message sizes — no experiment does bespoke cycle
//! math anymore.

use crate::ledger::{CycleLedger, InvokeOpts, Phase};

/// Model-level engine-cache counters, mirroring `xpc-engine`'s
/// `XpcStats` for the cost-model layer: how many x-entry prefetches a
/// batched submission issued and how many repeat calls were served from
/// the one-entry cache. Systems without an engine cache report `None`
/// from [`IpcSystem::engine_cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// Engine-cache prefetch operations (one per batch: the first call
    /// of a burst fetches the x-entry and populates the cache).
    pub prefetches: u64,
    /// Calls served from the engine cache (every repeat call of a batch).
    pub cache_hits: u64,
    /// Uncached x-entry lookups that had to fetch from a *remote
    /// socket's* x-entry shard (sharded tables: local-shard lookups and
    /// engine-cache hits count nothing here).
    pub shard_misses: u64,
}

impl EngineCacheStats {
    /// Fold another counter set in (summing per-core stats).
    pub(crate) fn merge(&mut self, other: EngineCacheStats) {
        self.prefetches = self.prefetches.saturating_add(other.prefetches);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.shard_misses = self.shard_misses.saturating_add(other.shard_misses);
    }
}

/// A synchronous cross-process call system: what one hop costs, phase by
/// phase.
///
/// Implementations live in the `kernels` crate (seL4 fast/slow path,
/// Zircon channels, Binder, the historical designs of Table 7, and the
/// XPC-accelerated variants). `oneway_into` takes `&mut self` so systems
/// may keep warm state (engine caches, link stacks).
pub trait IpcSystem {
    /// System name (used in experiment output and JSON dumps).
    fn name(&self) -> String;

    /// Price one hop delivering `msg_len` bytes under `opts`: charge the
    /// hop's phases into `out` (accumulating — `out` need not be empty)
    /// and return the bytes copied.
    ///
    /// The one required pricing method. A round trip is a call leg
    /// ([`InvokeOpts::call`]) then a reply leg
    /// ([`InvokeOpts::reply_leg`]) charged into the same sink.
    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64;

    /// Whether a message can be *handed over* along a chain without
    /// another copy (relay segments can; copy mechanisms cannot, §7.2).
    fn supports_handover(&self) -> bool {
        false
    }

    /// Whether a call migrates the calling thread onto the callee's
    /// address space on the *caller's* core, so crossing cores costs the
    /// same as staying (§5.2 "Multi-core IPC": `xcall` needs no IPI or
    /// remote wakeup). Message-passing kernels return `false` and pay the
    /// [`CrossCore`](crate::multicore::CrossCore) surcharge.
    fn migrating_threads(&self) -> bool {
        false
    }

    /// The slice of one phase of the *first* call's cycles that repeat
    /// calls of a batch do **not** pay again (`first_cycles` is the first
    /// call's span for `phase`).
    ///
    /// The default amortizes half the kernel IPC logic (capability
    /// lookup, endpoint resolution — the part a batched submission
    /// resolves once) and nothing else, which is deliberately
    /// conservative for trap-based kernels: every repeat call still
    /// traps, switches and restores in full. XPC variants override this
    /// to drop the trampoline entry and the uncached x-entry fetch (the
    /// engine cache holds the entry after call one); Binder overrides it
    /// to halve the framework driver path.
    fn amortizable_cycles(&self, phase: Phase, first_cycles: u64, _opts: &InvokeOpts) -> u64 {
        match phase {
            Phase::IpcLogic => first_cycles / 2,
            _ => 0,
        }
    }

    /// Price a burst of `calls` one-way invocations of `bytes_each` bytes
    /// submitted together (AnyCall-style aggregation), charging into
    /// `out` and returning the bytes copied: the first call pays the full
    /// [`oneway_into`](Self::oneway_into) cost, every repeat call pays
    /// that minus [`amortizable_cycles`](Self::amortizable_cycles).
    /// Per-call payload transfer is never amortized — the data still has
    /// to move. `out` must be empty on entry (the batch pricing rescales
    /// the first call's spans in place). Systems that only add side
    /// effects (stats counting) override this and delegate to
    /// [`amortized_batch_into`].
    fn invoke_batch_into(
        &mut self,
        calls: u64,
        bytes_each: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        amortized_batch_into(self, calls, bytes_each, opts, out)
    }

    /// Price hop `hop_index` of a *fused call program* (AnyCall-style:
    /// the whole chain is submitted once and executes server-side
    /// without returning to the client between hops), charging into
    /// `out` and returning the bytes copied.
    ///
    /// The default prices every hop as a full
    /// [`oneway_into`](Self::oneway_into) — trap-based kernels enter the
    /// kernel once per hop even when the chain is submitted as one
    /// program, so fusion buys them nothing but the saved replies. XPC
    /// variants override this: hop 0 pays the full trampoline entry,
    /// every continuation hop pays only a cached `xcall` (the engine
    /// cache holds the x-entry and the relay segment hands the payload
    /// over in place).
    fn fused_hop_into(
        &mut self,
        hop_index: u64,
        msg_len: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        let _ = hop_index;
        self.oneway_into(msg_len, opts, out)
    }

    /// Protection-boundary crossings a fused program of `hops` hops
    /// costs this mechanism per request. Trap baselines enter the kernel
    /// per hop (`hops`); XPC variants override to `1` — the program
    /// rides a single trampoline entry and continuation hops are
    /// user-mode `xcall`s.
    fn fused_crossings(&self, hops: u64) -> u64 {
        hops
    }

    /// Engine-cache counters accumulated by batched submissions, for
    /// systems that model one ([`None`] otherwise).
    fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
        None
    }
}

/// The shared first-call + amortized-repeats pricing behind
/// [`IpcSystem::invoke_batch_into`]: `total(n) = first + (n - 1) *
/// repeat` where `repeat` is the first call's span minus the system's
/// [`amortizable_cycles`](IpcSystem::amortizable_cycles) slice, phase by
/// phase. Prices the first call through [`IpcSystem::oneway_into`], then
/// rescales each span in place — zero allocations. Every step saturates:
/// a system can never amortize below zero, and an absurd `calls` pins a
/// span at `u64::MAX` instead of wrapping it. A zero-call batch is the
/// empty invocation: no spans, no bytes.
///
/// Free function (not a default-method body) so overriding impls that
/// only want to add side effects (stats counting) can delegate here.
///
/// `out` must be empty on entry — the in-place rescale assumes every
/// span in `out` belongs to the first call.
pub fn amortized_batch_into<S: IpcSystem + ?Sized>(
    sys: &mut S,
    calls: u64,
    bytes_each: usize,
    opts: &InvokeOpts,
    out: &mut CycleLedger,
) -> u64 {
    debug_assert!(out.is_empty(), "batch pricing needs a pristine sink");
    if calls == 0 {
        return 0;
    }
    let copied = sys.oneway_into(bytes_each, opts, out);
    if calls == 1 {
        return copied;
    }
    out.map_cycles(|phase, cycles| {
        let repeat = cycles.saturating_sub(sys.amortizable_cycles(phase, cycles, opts));
        cycles.saturating_add((calls - 1).saturating_mul(repeat))
    });
    copied.saturating_mul(calls)
}

impl IpcSystem for Box<dyn IpcSystem> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        (**self).oneway_into(msg_len, opts, out)
    }
    fn supports_handover(&self) -> bool {
        (**self).supports_handover()
    }
    fn migrating_threads(&self) -> bool {
        (**self).migrating_threads()
    }
    fn amortizable_cycles(&self, phase: Phase, first_cycles: u64, opts: &InvokeOpts) -> u64 {
        (**self).amortizable_cycles(phase, first_cycles, opts)
    }
    fn invoke_batch_into(
        &mut self,
        calls: u64,
        bytes_each: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        (**self).invoke_batch_into(calls, bytes_each, opts, out)
    }
    fn fused_hop_into(
        &mut self,
        hop_index: u64,
        msg_len: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        (**self).fused_hop_into(hop_index, msg_len, opts, out)
    }
    fn fused_crossings(&self, hops: u64) -> u64 {
        (**self).fused_crossings(hops)
    }
    fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
        (**self).engine_cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Invocation;

    struct Fixed(u64);
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
            out.charge(Phase::Trap, self.0);
            out.charge(Phase::Transfer, msg_len as u64);
            msg_len as u64
        }
    }

    fn oneway<S: IpcSystem + ?Sized>(sys: &mut S, msg_len: usize) -> Invocation {
        Invocation::priced(|l| sys.oneway_into(msg_len, &InvokeOpts::call(), l))
    }

    fn batch<S: IpcSystem + ?Sized>(sys: &mut S, calls: u64, bytes_each: usize) -> Invocation {
        Invocation::priced(|l| sys.invoke_batch_into(calls, bytes_each, &InvokeOpts::call(), l))
    }

    #[test]
    fn roundtrip_sums_both_ways() {
        let mut m = Fixed(100);
        let rt = Invocation::priced(|l| {
            m.oneway_into(10, &InvokeOpts::call(), l)
                + m.oneway_into(20, &InvokeOpts::reply_leg(), l)
        });
        assert_eq!(rt.total(), 100 + 10 + 100 + 20);
        assert_eq!(rt.copied_bytes, 30);
        assert_eq!(rt.ledger.get(Phase::Trap), 200);
        assert_eq!(rt.ledger.get(Phase::Transfer), 30);
    }

    #[test]
    fn default_handover_is_false() {
        assert!(!Fixed(1).supports_handover());
    }

    #[test]
    fn boxed_system_forwards() {
        let mut b: Box<dyn IpcSystem> = Box::new(Fixed(3));
        assert_eq!(b.name(), "fixed");
        assert_eq!(oneway(&mut b, 1).total(), 4);
    }

    struct Amortizing;
    impl IpcSystem for Amortizing {
        fn name(&self) -> String {
            "amortizing".into()
        }
        fn oneway_into(
            &mut self,
            msg_len: usize,
            _opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            out.charge(Phase::Trap, 100);
            out.charge(Phase::IpcLogic, 50);
            out.charge(Phase::Transfer, msg_len as u64);
            msg_len as u64
        }
    }

    #[test]
    fn batch_of_one_is_exactly_oneway() {
        let one = oneway(&mut Amortizing, 64);
        let b = batch(&mut Amortizing, 1, 64);
        assert_eq!(b, one, "batch=1 must be bit-identical to oneway");
    }

    #[test]
    fn zero_call_batch_is_the_empty_invocation() {
        assert_eq!(batch(&mut Amortizing, 0, 64), Invocation::default());
    }

    #[test]
    fn default_amortization_halves_ipc_logic_on_repeats() {
        // first = 100 + 50 + 64; each repeat = 100 + 25 + 64.
        let b = batch(&mut Amortizing, 4, 64);
        assert_eq!(b.ledger.get(Phase::Trap), 4 * 100);
        assert_eq!(b.ledger.get(Phase::IpcLogic), 50 + 3 * 25);
        assert_eq!(b.ledger.get(Phase::Transfer), 4 * 64);
        assert_eq!(b.copied_bytes, 4 * 64);
    }

    #[test]
    fn per_call_cost_decreases_with_batch_size() {
        let per = |n: u64| batch(&mut Amortizing, n, 64).total() as f64 / n as f64;
        assert!(per(8) < per(1));
        assert!(per(64) < per(8));
        // ...but never below the unamortized per-call floor.
        let repeat = per(1) - 25.0; // IpcLogic/2 is all the default amortizes
        assert!(per(64) >= repeat);
    }

    #[test]
    fn boxed_system_forwards_batching() {
        let mut b: Box<dyn IpcSystem> = Box::new(Amortizing);
        assert_eq!(batch(&mut b, 8, 16), batch(&mut Amortizing, 8, 16));
        assert_eq!(b.engine_cache_stats(), None);
    }

    #[test]
    fn oneway_into_accumulates() {
        let opts = InvokeOpts::call();
        let mut out = CycleLedger::new();
        assert_eq!(Fixed(100).oneway_into(64, &opts, &mut out), 64);
        // A second hop merges, not replaces.
        assert_eq!(Fixed(100).oneway_into(64, &opts, &mut out), 64);
        assert_eq!(out.get(Phase::Trap), 200);
        assert_eq!(out.get(Phase::Transfer), 128);
    }

    #[test]
    fn default_fused_hop_is_a_full_kernel_entry_at_any_index() {
        let opts = InvokeOpts::call();
        for hop in [0, 1, 5] {
            let mut out = CycleLedger::new();
            let copied = Fixed(100).fused_hop_into(hop, 64, &opts, &mut out);
            assert_eq!(out, oneway(&mut Fixed(100), 64).ledger, "hop {hop}");
            assert_eq!(copied, 64);
        }
        assert_eq!(Fixed(100).fused_crossings(5), 5, "trap baselines scale");
    }

    #[test]
    fn boxed_system_forwards_fused_methods() {
        let mut b: Box<dyn IpcSystem> = Box::new(Fixed(3));
        let mut out = CycleLedger::new();
        assert_eq!(b.fused_hop_into(1, 8, &InvokeOpts::call(), &mut out), 8);
        assert_eq!(b.fused_crossings(4), 4);
    }

    #[test]
    fn boxed_system_forwards_sink_methods() {
        let mut b: Box<dyn IpcSystem> = Box::new(Amortizing);
        let mut out = CycleLedger::new();
        let copied = b.oneway_into(16, &InvokeOpts::call(), &mut out);
        assert_eq!(copied, 16);
        assert_eq!(out, oneway(&mut Amortizing, 16).ledger);
        assert_eq!(
            b.amortizable_cycles(Phase::IpcLogic, 50, &InvokeOpts::call()),
            25
        );
        out.clear();
        let copied = b.invoke_batch_into(4, 16, &InvokeOpts::call(), &mut out);
        assert_eq!(copied, 64);
        assert_eq!(out, batch(&mut Amortizing, 4, 16).ledger);
    }
}
