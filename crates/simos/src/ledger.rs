//! The phase-attributed cycle ledger behind every IPC invocation.
//!
//! The paper's whole evaluation is phase-level cycle attribution: Table 1
//! splits a seL4 one-way call into trap / IPC logic / process switch /
//! restore / message transfer, Figure 5 splits an XPC call into
//! trampoline / `xcall` / TLB refill, Table 5 breaks out the 58-cycle
//! translation-base barrier, and §5.2 prices cross-core hops separately.
//! A [`CycleLedger`] is that attribution made first-class: every kernel
//! model charges named [`Phase`] spans instead of summing bare `u64`s,
//! and an [`Invocation`] carries the ledger (plus the total and the bytes
//! copied) back to the harness, which renders tables and figures straight
//! from it.

/// A named cost phase of a cross-process call.
///
/// The first five are Table 1's rows; the next four are the XPC
/// instruction path (Table 3 / Figure 5); the rest cover the slow paths,
/// historical designs and the Binder stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Trap into the kernel (Table 1: 107 cycles).
    Trap,
    /// Kernel IPC logic: capability checks, endpoint state (Table 1: 212).
    IpcLogic,
    /// Process switch: queues, reply cap, `satp` (Table 1: 146).
    Switch,
    /// Context restore and return to user (Table 1: 199).
    Restore,
    /// Message payload movement (copies; Table 1: 4010 for 4 KiB).
    Transfer,
    /// Caller-side save/restore trampoline (Figure 5: 76 full / 15 partial).
    Trampoline,
    /// The `xcall` instruction (Table 3: 18).
    Xcall,
    /// The `xret` instruction (Table 3: 23).
    Xret,
    /// The `swapseg` instruction (Table 3: 11).
    Swapseg,
    /// Post-switch TLB refill penalty without tagged TLB (Figure 5: ~40).
    TlbRefill,
    /// Scheduler / wait-queue work (slow paths, async kernels).
    Schedule,
    /// Virtual time a request spent queued behind other work (windowed
    /// pipeline runs only; the closed-loop report folds waiting into
    /// latency as it always did).
    Queue,
    /// Cross-core IPI + remote wakeup + cache transfer (§5.2).
    CrossCore,
    /// Fetching an x-entry from a *remote socket's* x-entry shard (the
    /// sharded-table model: a local-shard `xcall` pays nothing here).
    ShardMiss,
    /// Kernel mapping work: remap, TLB shootdown, temporary mapping.
    Mapping,
    /// Driver / framework control path (Binder ioctl, dispatch).
    Driver,
    /// Application compute attributed to the call (surface touches, draw).
    Compute,
    /// Zero-on-handover scrub of a relay segment (temporal hardening:
    /// priced per byte, charged only when
    /// [`Hardening::zero_on_handover`] is on).
    Scrub,
}

impl Phase {
    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 18;

    /// Every phase, in canonical (paper) order.
    pub const ALL: [Phase; 18] = [
        Phase::Trap,
        Phase::IpcLogic,
        Phase::Switch,
        Phase::Restore,
        Phase::Transfer,
        Phase::Trampoline,
        Phase::Xcall,
        Phase::Xret,
        Phase::Swapseg,
        Phase::TlbRefill,
        Phase::Schedule,
        Phase::Queue,
        Phase::CrossCore,
        Phase::ShardMiss,
        Phase::Mapping,
        Phase::Driver,
        Phase::Compute,
        Phase::Scrub,
    ];

    /// Stable dense index into [`Phase::ALL`]-ordered arrays (declaration
    /// order matches `ALL`, so the discriminant *is* the index).
    #[inline]
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// Stable kebab-case key (JSON dumps, machine-readable output).
    pub fn key(self) -> &'static str {
        match self {
            Phase::Trap => "trap",
            Phase::IpcLogic => "ipc-logic",
            Phase::Switch => "switch",
            Phase::Restore => "restore",
            Phase::Transfer => "transfer",
            Phase::Trampoline => "trampoline",
            Phase::Xcall => "xcall",
            Phase::Xret => "xret",
            Phase::Swapseg => "swapseg",
            Phase::TlbRefill => "tlb-refill",
            Phase::Schedule => "schedule",
            Phase::Queue => "queue",
            Phase::CrossCore => "cross-core",
            Phase::ShardMiss => "shard-miss",
            Phase::Mapping => "mapping",
            Phase::Driver => "driver",
            Phase::Compute => "compute",
            Phase::Scrub => "scrub",
        }
    }

    /// Human-readable label as the paper's tables print it.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Trap => "Trap",
            Phase::IpcLogic => "IPC Logic",
            Phase::Switch => "Process Switch",
            Phase::Restore => "Restore",
            Phase::Transfer => "Message Transfer",
            Phase::Trampoline => "Trampoline",
            Phase::Xcall => "xcall",
            Phase::Xret => "xret",
            Phase::Swapseg => "swapseg",
            Phase::TlbRefill => "TLB Refill",
            Phase::Schedule => "Schedule",
            Phase::Queue => "Queue",
            Phase::CrossCore => "Cross-core",
            Phase::ShardMiss => "Shard Miss",
            Phase::Mapping => "Mapping",
            Phase::Driver => "Driver",
            Phase::Compute => "Compute",
            Phase::Scrub => "Scrub",
        }
    }
}

/// An ordered, phase-attributed cycle account of one (or more) calls.
///
/// Spans keep first-charge order, so a ledger prints in the order the
/// phases occur; charging the same phase twice accumulates. Zero-cycle
/// charges are recorded (Table 1 prints "Message Transfer 0" for a 0 B
/// message), so a phase's *presence* is part of the model.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CycleLedger {
    spans: Vec<(Phase, u64)>,
    /// Where each phase's span sits (see [`SlotMap`]) — a function of
    /// `spans`, so the derived equality is span equality.
    slots: SlotMap,
    /// The saturating sum of the spans' cycles, kept up to date by every
    /// mutator — also a function of `spans`. A saturating sum of
    /// non-negative terms is `min(Σ, u64::MAX)` whatever the grouping,
    /// so accumulating charge by charge equals folding the spans.
    total: u64,
}

/// Per-phase position of a ledger's span, keyed by [`Phase::index`]:
/// `0` = not charged yet, else 1 + the span's position — so `charge` and
/// `get` index instead of scanning the spans.
type SlotMap = [u8; Phase::COUNT];

const _: () = assert!(Phase::COUNT < 256, "a slot is a u8");

/// The [`SlotMap`] entry for the span at `position` (one span per phase
/// at most, so `position < COUNT < 256`).
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn slot_of(position: usize) -> u8 {
    position as u8 + 1
}

impl std::fmt::Debug for CycleLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleLedger")
            .field("spans", &self.spans)
            .finish()
    }
}

impl CycleLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `cycles` to `phase` (accumulates, saturating at
    /// `u64::MAX`; records zero charges).
    #[inline]
    pub fn charge(&mut self, phase: Phase, cycles: u64) {
        self.total = self.total.saturating_add(cycles);
        match self.slots[phase.index()] {
            0 => {
                self.spans.push((phase, cycles));
                self.slots[phase.index()] = slot_of(self.spans.len() - 1);
            }
            slot => {
                let span = &mut self.spans[usize::from(slot) - 1];
                span.1 = span.1.saturating_add(cycles);
            }
        }
    }

    /// Builder-style [`charge`](Self::charge): the tests' ledger fixture.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with(mut self, phase: Phase, cycles: u64) -> Self {
        self.charge(phase, cycles);
        self
    }

    /// Cycles attributed to `phase` (0 when absent).
    #[inline]
    pub fn get(&self, phase: Phase) -> u64 {
        match self.slots[phase.index()] {
            0 => 0,
            slot => self.spans[usize::from(slot) - 1].1,
        }
    }

    /// Sum over all phases (saturating: a ledger priced from an absurd
    /// caller-supplied count totals `u64::MAX`, never a wrapped small
    /// number). O(1): the sum is kept as the spans are charged.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The spans in first-charge order.
    pub fn spans(&self) -> &[(Phase, u64)] {
        &self.spans
    }

    /// Fold another ledger in, phase by phase.
    pub(crate) fn merge(&mut self, other: &CycleLedger) {
        for &(p, c) in &other.spans {
            self.charge(p, c);
        }
    }

    /// Drop every span but keep the allocation — the reset half of the
    /// reuse-a-scratch-ledger pattern the arena hot path runs on.
    #[inline]
    pub fn clear(&mut self) {
        self.spans.clear();
        self.slots = [0; Phase::COUNT];
        self.total = 0;
    }

    /// Whether no span has been charged yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Rewrite every span's cycles in place as `f(phase, cycles)`,
    /// keeping span order. This is how batched pricing rescales a
    /// first-call ledger into an n-call ledger without reallocating.
    pub(crate) fn map_cycles(&mut self, mut f: impl FnMut(Phase, u64) -> u64) {
        let mut total = 0u64;
        for (p, c) in &mut self.spans {
            *c = f(*p, *c);
            total = total.saturating_add(*c);
        }
        self.total = total;
    }

    /// Per-phase delta `self - baseline` over the union of phases (this
    /// ledger's order first, then baseline-only phases), written into
    /// `out` (cleared first, so sweep grids comparing many ledger pairs
    /// reuse one allocation). The Figure 5 bars are exactly these diffs
    /// between ablation configurations.
    ///
    /// Each delta is taken exactly (in `i128`) and then clamped to
    /// `i64::MIN..=i64::MAX`: spans are `u64` and saturate at `u64::MAX`,
    /// so a difference past either end of `i64` reads as that end rather
    /// than wrapping to the wrong sign.
    pub fn diff_into(&self, baseline: &CycleLedger, out: &mut Vec<(Phase, i64)>) {
        out.clear();
        out.extend(
            self.spans
                .iter()
                .map(|&(p, c)| (p, clamped_delta(c, baseline.get(p)))),
        );
        for &(p, c) in &baseline.spans {
            if self.slots[p.index()] == 0 {
                out.push((p, clamped_delta(0, c)));
            }
        }
    }
}

/// `a - b`, computed in `i128` and clamped to the range of `i64`.
fn clamped_delta(a: u64, b: u64) -> i64 {
    let exact = i128::from(a) - i128::from(b);
    i64::try_from(exact).unwrap_or(if exact > 0 { i64::MAX } else { i64::MIN })
}

/// Flat per-phase cycle totals: a `[u64; Phase::COUNT]` keyed by
/// `Phase::index` (i.e. [`Phase::ALL`] order).
///
/// This is the sampled-attribution accumulator: adding a span is one
/// array add — no span scan, no ordering metadata — and the result is
/// *exact*, because per-phase totals are plain `u64` sums over the same
/// spans a full ledger would record. Only span ordering and the
/// presence of zero-cycle spans are dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotals {
    cycles: [u64; Phase::COUNT],
}

impl Default for PhaseTotals {
    fn default() -> Self {
        PhaseTotals {
            cycles: [0; Phase::COUNT],
        }
    }
}

impl PhaseTotals {
    /// All-zero totals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `cycles` to `phase` (saturating at `u64::MAX`, like
    /// [`CycleLedger::charge`], so sampled totals keep equalling the
    /// ledger total under an absurd caller-supplied count).
    #[inline]
    pub fn charge(&mut self, phase: Phase, cycles: u64) {
        let c = &mut self.cycles[phase.index()];
        *c = c.saturating_add(cycles);
    }

    /// Cycles accumulated for `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Sum over all phases (saturating).
    pub fn total(&self) -> u64 {
        self.cycles.iter().fold(0, |sum, &c| sum.saturating_add(c))
    }

    /// Fold a ledger's spans in.
    #[inline]
    pub(crate) fn add_ledger(&mut self, ledger: &CycleLedger) {
        for &(p, c) in ledger.spans() {
            self.charge(p, c);
        }
    }

    /// Render as a [`CycleLedger`] in canonical [`Phase::ALL`] order,
    /// keeping only non-zero phases (flat totals carry no record of
    /// zero-cycle span presence).
    pub fn to_ledger(&self) -> CycleLedger {
        let mut l = CycleLedger::new();
        for p in Phase::ALL {
            let c = self.get(p);
            if c > 0 {
                l.charge(p, c);
            }
        }
        l
    }
}

/// Handle to one ledger inside a [`LedgerArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerRef(usize);

/// A high-water mark of a [`LedgerArena`], for truncate-and-reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaMark {
    ledgers: usize,
    spans: usize,
}

/// A structure-of-arrays pool of span ledgers: phases and cycles live in
/// two flat slabs, each ledger is a `(start, len)` range over them.
///
/// The invocation hot path charges into the arena instead of allocating
/// a `CycleLedger` per request; `truncate` /
/// [`reset`](Self::reset) roll the slabs back without freeing, so a
/// steady-state sweep performs zero heap allocation per request. Only
/// the most recently begun ledger may still be charged (its span range
/// must sit at the slab tail).
#[derive(Debug, Clone, Default)]
pub struct LedgerArena {
    phases: Vec<Phase>,
    cycles: Vec<u64>,
    /// Per-ledger `(start, len)` into the slabs.
    ranges: Vec<(usize, usize)>,
    /// [`SlotMap`] of the one chargeable (most recently begun) ledger,
    /// positions relative to its `start`.
    tail_slots: SlotMap,
    /// Cleared by `truncate`, which may make an older ledger the tail:
    /// the next `charge` then rebuilds the map from that ledger's spans.
    tail_mapped: bool,
}

impl LedgerArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena with room for `ledgers` ledgers totalling `spans` spans,
    /// so a bounded workload (e.g. a sampled sweep keeping 1-in-N
    /// request ledgers of at most [`Phase::COUNT`] spans each) never
    /// grows the slabs after construction.
    pub fn with_capacity(ledgers: usize, spans: usize) -> Self {
        LedgerArena {
            phases: Vec::with_capacity(spans),
            cycles: Vec::with_capacity(spans),
            ranges: Vec::with_capacity(ledgers),
            ..Self::default()
        }
    }

    /// Open a fresh (empty) ledger at the slab tail and return its
    /// handle. Charging is only valid for the most recently begun
    /// ledger.
    pub(crate) fn begin(&mut self) -> LedgerRef {
        let start = self.phases.len();
        self.ranges.push((start, 0));
        self.tail_slots = [0; Phase::COUNT];
        self.tail_mapped = true;
        LedgerRef(self.ranges.len() - 1)
    }

    /// Charge `cycles` to `phase` in ledger `h` (accumulating per phase,
    /// saturating, and recording zero charges, exactly like
    /// [`CycleLedger::charge`]).
    ///
    /// # Panics
    ///
    /// When `h` is not the most recently begun ledger (its spans would
    /// no longer sit at the slab tail).
    #[inline]
    pub(crate) fn charge(&mut self, h: LedgerRef, phase: Phase, cycles: u64) {
        assert_eq!(
            h.0 + 1,
            self.ranges.len(),
            "only the most recently begun arena ledger may be charged"
        );
        let (start, len) = self.ranges[h.0];
        if !self.tail_mapped {
            self.tail_slots = [0; Phase::COUNT];
            for (i, p) in self.phases[start..start + len].iter().enumerate() {
                self.tail_slots[p.index()] = slot_of(i);
            }
            self.tail_mapped = true;
        }
        match self.tail_slots[phase.index()] {
            0 => {
                self.phases.push(phase);
                self.cycles.push(cycles);
                self.ranges[h.0].1 += 1;
                self.tail_slots[phase.index()] = slot_of(len);
            }
            slot => {
                let c = &mut self.cycles[start + usize::from(slot) - 1];
                *c = c.saturating_add(cycles);
            }
        }
    }

    /// Fold a ledger's spans into arena ledger `h`.
    #[inline]
    pub(crate) fn merge_ledger(&mut self, h: LedgerRef, ledger: &CycleLedger) {
        for &(p, c) in ledger.spans() {
            self.charge(h, p, c);
        }
    }

    /// The spans of ledger `h`, in first-charge order.
    pub fn spans(&self, h: LedgerRef) -> impl Iterator<Item = (Phase, u64)> + '_ {
        let (start, len) = self.ranges[h.0];
        (start..start + len).map(|i| (self.phases[i], self.cycles[i]))
    }

    /// Copy ledger `h` out into an owned [`CycleLedger`].
    pub fn to_ledger(&self, h: LedgerRef) -> CycleLedger {
        let mut l = CycleLedger::new();
        for (p, c) in self.spans(h) {
            l.charge(p, c);
        }
        l
    }

    /// Number of ledgers currently held.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Handles to every ledger currently held, in `begin`
    /// order (e.g. walking the retained sample after a sampled sweep).
    pub fn handles(&self) -> impl Iterator<Item = LedgerRef> {
        (0..self.ranges.len()).map(LedgerRef)
    }

    /// Whether the arena holds no ledgers.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Allocated span-slab capacity — the steady-state gauge: a warmed-up
    /// sweep must not move this.
    pub fn span_capacity(&self) -> usize {
        self.phases.capacity()
    }

    /// Allocated ledger-table capacity (see
    /// [`span_capacity`](Self::span_capacity)).
    pub fn ledger_capacity(&self) -> usize {
        self.ranges.capacity()
    }

    /// Roll back to `mark`, dropping every ledger begun since — without
    /// freeing slab memory (the reuse half of reset-and-reuse).
    pub(crate) fn truncate(&mut self, mark: ArenaMark) {
        self.ranges.truncate(mark.ledgers);
        self.phases.truncate(mark.spans);
        self.cycles.truncate(mark.spans);
        self.tail_mapped = false;
    }

    /// Drop every ledger, keep the slabs.
    pub fn reset(&mut self) {
        self.truncate(ArenaMark {
            ledgers: 0,
            spans: 0,
        });
    }
}

/// Where the load generators record phase attribution — the
/// caller-provided sink of the arena hot path.
///
/// `Full` gives *every* request complete span attribution: each step's
/// spans are folded straight into the report ledger, in first-charge
/// order (the arena it carries is left untouched). `Sampled` accumulates
/// every request into flat [`PhaseTotals`] (exact per-phase sums — see
/// the `PhaseTotals` docs) and additionally retains a full span ledger
/// in the arena for one request in `every`.
pub enum Attribution<'a> {
    /// Full span attribution for every request. The arena is untouched:
    /// it comes back as it was handed in (same ledgers, same capacity).
    Full(&'a mut LedgerArena),
    /// Flat totals for all requests; 1-in-`every` requests also keep
    /// their span ledger in `arena`.
    Sampled {
        /// Keep a full span ledger for requests where
        /// `request_index % every == 0` (`every = 0` keeps none).
        every: u64,
        /// The exact flat accumulator every request charges into.
        totals: &'a mut PhaseTotals,
        /// Retains the sampled requests' span ledgers.
        arena: &'a mut LedgerArena,
    },
}

/// Temporal-safety mitigations, each independently switchable.
///
/// These are the runtime twins of the `xpc-verify` temporal passes:
/// revocation epochs refute stale grant-cap replay, zero-on-handover
/// scrubs relay-segment reuse leaks, and per-hop flow tags keep one
/// tenant's return from popping another tenant's linkage record. Every
/// `IpcSystem` model prices the mitigations it is asked for —
/// XPC-engine systems at hardware rates (an epoch compare rides the
/// `xcall` cap walk, a flow tag rides the linkage record), trap-based
/// baselines at their software-equivalent rates (kernel-side table
/// lookups in the IPC logic path). All-off (the [`Default`]) charges
/// nothing anywhere, so un-hardened pricing is byte-identical to the
/// pre-hardening model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hardening {
    /// Check the capability's revocation epoch on every call leg.
    pub revocation_epochs: bool,
    /// Zero the relay segment (or message buffer) before ownership
    /// transfer; priced per byte into [`Phase::Scrub`].
    pub zero_on_handover: bool,
    /// Stamp and verify a per-hop tenant flow tag on call and reply.
    pub flow_tags: bool,
}

impl Hardening {
    /// No mitigations (pricing identical to the unhardened model).
    pub const NONE: Hardening = Hardening {
        revocation_epochs: false,
        zero_on_handover: false,
        flow_tags: false,
    };

    /// Every mitigation on.
    pub const ALL: Hardening = Hardening {
        revocation_epochs: true,
        zero_on_handover: true,
        flow_tags: true,
    };
}

/// Options for one [`IpcSystem`](crate::ipc::IpcSystem) hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeOpts {
    /// Price the *reply* leg of a round trip instead of the call leg
    /// (XPC replies pay `xret` instead of trampoline + `xcall`).
    pub reply: bool,
    /// Chain hops the payload crosses (handover chains; >= 1).
    pub hops: u32,
    /// Socket distance between the caller and the shard holding the
    /// callee's x-entry (0 = the local shard — always the case on a
    /// single-socket topology). Systems with a sharded x-entry table
    /// (`XpcIpc`) charge [`Phase::ShardMiss`] for the remote fetch;
    /// trap-based systems have one global table and ignore it.
    pub shard_dist: u64,
    /// Temporal-safety mitigations to price on this hop (all-off by
    /// default — see [`Hardening`]).
    pub hardening: Hardening,
}

impl Default for InvokeOpts {
    fn default() -> Self {
        InvokeOpts {
            reply: false,
            hops: 1,
            shard_dist: 0,
            hardening: Hardening::NONE,
        }
    }
}

impl InvokeOpts {
    /// The call leg of a round trip (the default).
    pub fn call() -> Self {
        Self::default()
    }

    /// The reply leg of a round trip.
    pub fn reply_leg() -> Self {
        InvokeOpts {
            reply: true,
            ..Self::default()
        }
    }

    /// This hop resolves its x-entry from a shard `dist` distance units
    /// away (see [`Self::shard_dist`]).
    #[must_use]
    pub fn at_shard_distance(mut self, dist: u64) -> Self {
        self.shard_dist = dist;
        self
    }

    /// Price this hop with `hardening` mitigations on (see
    /// [`Hardening`]).
    #[must_use]
    pub fn hardened(mut self, hardening: Hardening) -> Self {
        self.hardening = hardening;
        self
    }
}

/// The priced outcome of one IPC invocation: the phase ledger and the
/// payload bytes the mechanism copied (0 for handover).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Invocation {
    /// Phase-attributed cycle account.
    pub ledger: CycleLedger,
    /// Bytes copied moving the payload (0 for relay-segment handover).
    pub copied_bytes: u64,
}

impl Invocation {
    /// Build from a ledger.
    pub(crate) fn from_ledger(ledger: CycleLedger, copied_bytes: u64) -> Self {
        Invocation {
            ledger,
            copied_bytes,
        }
    }

    /// Total cycles: the ledger sum (saturating).
    pub fn total(&self) -> u64 {
        self.ledger.total()
    }

    /// Price into a fresh ledger: run `price` (any of the sink methods —
    /// [`IpcSystem::oneway_into`](crate::ipc::IpcSystem::oneway_into),
    /// `invoke_batch_into`, several legs in sequence) against an empty
    /// sink and package the spans it charged with the copied bytes it
    /// returned. This is the one way an owned `Invocation` is made from
    /// the pricing path; tables, figures and tests call it, the load
    /// generators charge their own reused sinks instead.
    pub fn priced(price: impl FnOnce(&mut CycleLedger) -> u64) -> Self {
        let mut ledger = CycleLedger::new();
        let copied_bytes = price(&mut ledger);
        Self::from_ledger(ledger, copied_bytes)
    }

    /// Concatenate two invocations (round trips, chains).
    #[must_use]
    pub fn plus(mut self, other: Invocation) -> Self {
        self.ledger.merge(&other.ledger);
        self.copied_bytes = self.copied_bytes.saturating_add(other.copied_bytes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_and_keeps_order() {
        let mut l = CycleLedger::new();
        l.charge(Phase::Trap, 100);
        l.charge(Phase::Transfer, 0);
        l.charge(Phase::Trap, 7);
        assert_eq!(l.get(Phase::Trap), 107);
        assert_eq!(l.spans().len(), 2, "zero charge is recorded once");
        assert_eq!(l.spans()[0].0, Phase::Trap);
        assert_eq!(l.total(), 107);
    }

    #[test]
    fn merge_and_plus_preserve_totals() {
        let a = Invocation::from_ledger(
            CycleLedger::new()
                .with(Phase::Trap, 10)
                .with(Phase::Transfer, 5),
            5,
        );
        let b = Invocation::from_ledger(CycleLedger::new().with(Phase::Xret, 23), 0);
        let sum = a.clone().plus(b);
        assert_eq!(sum.total(), 38);
        assert_eq!(sum.copied_bytes, 5);
    }

    #[test]
    fn diff_covers_union_of_phases() {
        let a = CycleLedger::new()
            .with(Phase::Xcall, 18)
            .with(Phase::TlbRefill, 40);
        let b = CycleLedger::new()
            .with(Phase::Xcall, 6)
            .with(Phase::Trampoline, 15);
        let mut d = vec![(Phase::Driver, -999)]; // stale content must go
        a.diff_into(&b, &mut d);
        assert_eq!(d.len(), 3);
        assert!(d.contains(&(Phase::Xcall, 12)));
        assert!(d.contains(&(Phase::TlbRefill, 40)));
        assert!(d.contains(&(Phase::Trampoline, -15)));
        let total: i64 = d.iter().map(|(_, c)| c).sum();
        assert_eq!(total, a.total() as i64 - b.total() as i64);
    }

    #[test]
    fn phase_keys_are_distinct() {
        let mut keys: Vec<_> = Phase::ALL.iter().map(|p| p.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Phase::ALL.len());
    }

    #[test]
    fn phase_count_and_index_match_all() {
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?} index must match its ALL position");
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut l = CycleLedger::new()
            .with(Phase::Trap, 1)
            .with(Phase::Xcall, 2);
        assert_eq!(l.spans().len(), 2);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.total(), 0);
    }

    #[test]
    fn map_cycles_rescales_in_place() {
        let mut l = CycleLedger::new()
            .with(Phase::Trap, 100)
            .with(Phase::Transfer, 64);
        l.map_cycles(|p, c| if p == Phase::Trap { c * 3 } else { c });
        assert_eq!(l.get(Phase::Trap), 300);
        assert_eq!(l.get(Phase::Transfer), 64);
        assert_eq!(l.spans()[0].0, Phase::Trap, "span order preserved");
    }

    #[test]
    fn phase_totals_sum_ledgers_exactly() {
        let a = CycleLedger::new()
            .with(Phase::Trap, 107)
            .with(Phase::Transfer, 0); // zero span: present in ledger, invisible in totals
        let b = CycleLedger::new()
            .with(Phase::Trap, 7)
            .with(Phase::Xcall, 18);
        let mut t = PhaseTotals::new();
        assert_eq!(t.total(), 0);
        t.add_ledger(&a);
        t.add_ledger(&b);
        assert_eq!(t.get(Phase::Trap), 114);
        assert_eq!(t.total(), a.total() + b.total());
        let mut u = PhaseTotals::new();
        u.charge(Phase::Trap, 114);
        u.charge(Phase::Xcall, 18);
        assert_eq!(t, u);
        // to_ledger renders canonical ALL order, non-zero phases only.
        let l = t.to_ledger();
        assert_eq!(l.spans(), &[(Phase::Trap, 114), (Phase::Xcall, 18)]);
    }

    #[test]
    fn arena_charge_matches_cycle_ledger_semantics() {
        let mut arena = LedgerArena::new();
        let h = arena.begin();
        arena.charge(h, Phase::Trap, 100);
        arena.charge(h, Phase::Transfer, 0);
        arena.charge(h, Phase::Trap, 7);
        let l = arena.to_ledger(h);
        let mut want = CycleLedger::new();
        want.charge(Phase::Trap, 100);
        want.charge(Phase::Transfer, 0);
        want.charge(Phase::Trap, 7);
        assert_eq!(l, want, "accumulation, zero spans, and order all match");
        assert_eq!(l.total(), 107);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn arena_truncate_and_reset_keep_slab_capacity() {
        let mut arena = LedgerArena::with_capacity(4, 4 * Phase::COUNT);
        let cap = (arena.ledger_capacity(), arena.span_capacity());
        let mark = ArenaMark {
            ledgers: 0,
            spans: 0,
        };
        for _ in 0..4 {
            let h = arena.begin();
            for p in Phase::ALL {
                arena.charge(h, p, 1);
            }
        }
        assert_eq!(arena.len(), 4);
        arena.truncate(mark);
        assert!(arena.is_empty());
        assert_eq!(
            (arena.ledger_capacity(), arena.span_capacity()),
            cap,
            "truncate must not free or grow the slabs"
        );
        let h = arena.begin();
        arena.charge(h, Phase::Xcall, 18);
        arena.reset();
        assert!(arena.is_empty());
        assert_eq!((arena.ledger_capacity(), arena.span_capacity()), cap);
    }

    #[test]
    fn arena_merge_ledger_round_trips() {
        let src = CycleLedger::new()
            .with(Phase::Trampoline, 76)
            .with(Phase::Xcall, 18);
        let mut arena = LedgerArena::new();
        let h = arena.begin();
        arena.merge_ledger(h, &src);
        assert_eq!(arena.to_ledger(h), src);
        assert_eq!(
            arena.spans(h).collect::<Vec<_>>(),
            vec![(Phase::Trampoline, 76), (Phase::Xcall, 18)]
        );
    }

    /// [`CycleLedger`] as it was before the slot map: one linear scan per
    /// charge. The reference the indexed ledger is held to.
    #[derive(Clone, Default, PartialEq)]
    struct ScanLedger(Vec<(Phase, u64)>);

    impl ScanLedger {
        fn charge(&mut self, phase: Phase, cycles: u64) {
            if let Some(span) = self.0.iter_mut().find(|(p, _)| *p == phase) {
                span.1 = span.1.saturating_add(cycles);
            } else {
                self.0.push((phase, cycles));
            }
        }

        fn get(&self, phase: Phase) -> u64 {
            self.0
                .iter()
                .find(|(p, _)| *p == phase)
                .map_or(0, |(_, c)| *c)
        }

        fn total(&self) -> u64 {
            self.0.iter().fold(0, |sum, &(_, c)| sum.saturating_add(c))
        }

        fn diff(&self, baseline: &ScanLedger) -> Vec<(Phase, i64)> {
            let mut out: Vec<_> = self
                .0
                .iter()
                .map(|&(p, c)| (p, saturating_sub_i64(c, baseline.get(p))))
                .collect();
            for &(p, c) in &baseline.0 {
                if self.0.iter().all(|(q, _)| *q != p) {
                    out.push((p, saturating_sub_i64(0, c)));
                }
            }
            out
        }
    }

    /// `a - b` saturated to `i64` by comparison, without wide integers.
    fn saturating_sub_i64(a: u64, b: u64) -> i64 {
        if a >= b {
            i64::try_from(a - b).unwrap_or(i64::MAX)
        } else {
            i64::try_from(b - a).map_or(i64::MIN, |d| -d)
        }
    }

    #[test]
    fn indexed_ledger_matches_the_linear_scan_reference() {
        use ycsb::rng::Rng;
        let mut rng = Rng::seed_from_u64(0x1ed6e5);
        let mut pick = |n: usize| usize::try_from(rng.below(n as u64)).expect("below a usize");
        let mut pool: Vec<(CycleLedger, ScanLedger)> = vec![Default::default(); 4];
        let mut diff = Vec::new();
        for _ in 0..20_000 {
            let i = pick(4);
            let j = (i + 1 + pick(3)) % 4;
            match pick(16) {
                0 => {
                    // Clear and reuse: stale slots must not survive.
                    pool[i].0.clear();
                    pool[i].1 .0.clear();
                }
                1 => pool[i] = pool[j].clone(),
                2 => {
                    let (other, other_ref) = pool[j].clone();
                    pool[i].0.merge(&other);
                    for (p, c) in other_ref.0 {
                        pool[i].1.charge(p, c);
                    }
                }
                3 => {
                    let scale = |_: Phase, c: u64| c.saturating_mul(3) / 2;
                    pool[i].0.map_cycles(scale);
                    for (p, c) in &mut pool[i].1 .0 {
                        *c = scale(*p, *c);
                    }
                }
                _ => {
                    let phase = Phase::ALL[pick(Phase::COUNT)];
                    let cycles = match pick(64) {
                        0 => u64::MAX - pick(3) as u64,
                        1..=8 => 0,
                        _ => pick(5_000) as u64,
                    };
                    pool[i].0.charge(phase, cycles);
                    pool[i].1.charge(phase, cycles);
                }
            }
            let (got, want) = &pool[i];
            assert_eq!(got.spans(), &want.0[..], "order, zero spans, saturation");
            assert_eq!(got.is_empty(), want.0.is_empty());
            assert_eq!(got.total(), want.total());
            for p in Phase::ALL {
                assert_eq!(got.get(p), want.get(p), "{p:?}");
            }
            got.diff_into(&pool[j].0, &mut diff);
            assert_eq!(diff, want.diff(&pool[j].1));
            assert_eq!(*got == pool[j].0, *want == pool[j].1, "== is span equality");
        }
        // Equality sees the spans only: a cleared-and-recharged ledger
        // (every phase once slotted) equals a fresh one.
        let mut reused = CycleLedger::new();
        for p in Phase::ALL {
            reused.charge(p, 9);
        }
        reused.clear();
        reused.charge(Phase::Xcall, 18);
        let fresh = CycleLedger::new().with(Phase::Xcall, 18);
        assert_eq!(reused, fresh);
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
        assert_eq!(reused.get(Phase::Trap), 0);
    }

    #[test]
    fn arena_recharges_an_older_ledger_after_truncate() {
        let mut arena = LedgerArena::new();
        let mut want = ScanLedger::default();
        let a = arena.begin();
        for (p, c) in [(Phase::Trap, 100), (Phase::Transfer, 0), (Phase::Xcall, 18)] {
            arena.charge(a, p, c);
            want.charge(p, c);
        }
        let mark = ArenaMark {
            ledgers: 1,
            spans: 3,
        };
        let b = arena.begin();
        arena.charge(b, Phase::Xcall, 1);
        arena.charge(b, Phase::Driver, 2);
        arena.truncate(mark);
        // `a` is the tail again: its spans accumulate where they were,
        // not B's, and a new phase lands behind them.
        let again = [
            (Phase::Xcall, 5),
            (Phase::Driver, 7),
            (Phase::Trap, u64::MAX),
            (Phase::Transfer, 3),
        ];
        for (p, c) in again {
            arena.charge(a, p, c);
            want.charge(p, c);
        }
        assert_eq!(arena.to_ledger(a).spans(), &want.0[..]);
        assert_eq!(
            arena.to_ledger(a).total(),
            u64::MAX,
            "saturating, like the ledger"
        );
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn flat_totals_saturate_like_the_ledger() {
        let mut t = PhaseTotals::new();
        t.charge(Phase::Trap, u64::MAX);
        t.charge(Phase::Trap, 1);
        t.charge(Phase::Xcall, 18);
        assert_eq!(t.get(Phase::Trap), u64::MAX);
        assert_eq!(t.total(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "most recently begun")]
    fn arena_rejects_charging_a_closed_ledger() {
        let mut arena = LedgerArena::new();
        let old = arena.begin();
        arena.charge(old, Phase::Trap, 1);
        let _tail = arena.begin();
        arena.charge(old, Phase::Trap, 1);
    }
}
