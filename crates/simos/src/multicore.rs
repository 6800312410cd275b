//! Multi-core scale-out: per-core [`World`]s, NUMA-aware cross-core
//! call pricing, and placement policies.
//!
//! §5.2 prices cross-core IPC separately: a cross-core seL4 call is
//! 81–141× an XPC call because it pays an IPI, a remote wakeup through
//! the target core's scheduler, and cache-line transfers for the message
//! — while `xcall` migrates the calling thread on its own core and pays
//! none of that. This module makes that pricing uniform across every
//! [`IpcSystem`], and scales it with the machine's [`Topology`]:
//!
//! * [`XCoreCost`] — the IPI + remote-wakeup + cache-transfer surcharge,
//!   each component scaled by socket distance (see
//!   `XCoreCost::hop_extra_at`); migrating-thread designs stay free
//!   intra-socket and pay only the cache-line *distance* term when the
//!   relay segment has to be pulled across the interconnect;
//! * [`CrossCore`] — an adapter wrapping *any* system so the whole roster
//!   (not just hand-rolled `+xcore` variants) can be swept same-core vs
//!   cross-core, charging [`Phase::CrossCore`] into the existing ledger;
//! * [`MultiWorld`] — N per-core [`World`]s sharing a virtual clock
//!   discipline: each core is a FIFO server with a `free_at` time, a step
//!   starts at `max(request_ready, core_free)`, and cross-core hops are
//!   surcharged by distance. Built by [`MultiWorld::builder`], which
//!   validates the core count against the topology; executed through the
//!   unified [`MultiWorld::exec`] entry point (one [`Step`], one
//!   [`Completion`]). Cross-socket hops also resolve their x-entry from
//!   the remote socket's shard ([`InvokeOpts::shard_dist`]), which
//!   sharded-table systems price as [`Phase::ShardMiss`].
//!
//! [`Placement`] decides which core serves which service; the closed-loop
//! driver lives in [`crate::load`].

use crate::cost::CostModel;
use crate::ipc::{EngineCacheStats, IpcSystem};
use crate::ledger::{CycleLedger, Invocation, InvokeOpts, Phase};
use crate::program::{CallProgram, ProgramId, HANDOVER_DESC_BYTES};
use crate::topology::Topology;
use crate::world::{msg_len, World};
use std::fmt;

/// Index of a core in a [`MultiWorld`].
pub type CoreId = usize;

/// One step of a request recipe. In recipe space (see [`crate::load`])
/// the `from`/`to`/`at` fields are abstract *service* indices that a
/// [`Placement`] maps to cores per request; [`MultiWorld::exec`] takes
/// steps already resolved to core space. Each variant restates that
/// contract for its own fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A one-way IPC from `from` to `to` carrying `bytes`.
    ///
    /// `from`/`to` are service indices in recipe space; by the time the
    /// step reaches [`MultiWorld::exec`] both must be core ids (the
    /// serving core is `to`, and `from` is superseded by `exec`'s
    /// issuing-core argument).
    Oneway {
        /// Sending service (recipe space) / issuing core (core space).
        from: usize,
        /// Receiving and serving service (recipe space) / core (core
        /// space).
        to: usize,
        /// Payload bytes.
        bytes: u64,
    },
    /// A burst of `calls` one-way IPCs from `from` to `to` submitted
    /// together, priced by [`crate::ipc::IpcSystem::invoke_batch_into`]
    /// (per-batch entry work amortized, per-call transfer not). A
    /// zero-call burst prices as the empty invocation.
    ///
    /// `from`/`to` follow the same recipe-space → core-space contract as
    /// [`Step::Oneway`]: service indices in a recipe, core ids at
    /// [`MultiWorld::exec`], with `to` the serving core.
    Batch {
        /// Sending service (recipe space) / issuing core (core space).
        from: usize,
        /// Receiving and serving service (recipe space) / core (core
        /// space).
        to: usize,
        /// Calls in the burst.
        calls: u64,
        /// Payload bytes per call.
        bytes_each: u64,
    },
    /// A synchronous round trip from `from` into `to`.
    ///
    /// `from`/`to` follow the same recipe-space → core-space contract as
    /// [`Step::Oneway`]: at [`MultiWorld::exec`] the serving core `to`
    /// prices both legs and accrues the whole trip's busy time.
    Roundtrip {
        /// Calling service (recipe space) / issuing core (core space).
        from: usize,
        /// Serving service (recipe space) / core (core space).
        to: usize,
        /// Request payload bytes.
        request: u64,
        /// Response payload bytes.
        response: u64,
    },
    /// Fixed compute at a service.
    ///
    /// `at` is a service index in recipe space; at [`MultiWorld::exec`]
    /// the cycles are clocked and charged on the *issuing core* argument
    /// (`at` is not consulted — the resolver already routed the step).
    Compute {
        /// Computing service (recipe space) / core (core space).
        at: usize,
        /// Cycles.
        cycles: u64,
    },
    /// One pass over data at a service (`intensity_x10 / 10` ×
    /// memcpy-grade cycles per byte).
    ///
    /// `at` follows the same contract as [`Step::Compute`]: recipe-space
    /// service index, resolved to the issuing core by the time
    /// [`MultiWorld::exec`] runs it.
    DataPass {
        /// Computing service (recipe space) / core (core space).
        at: usize,
        /// Bytes touched.
        bytes: u64,
        /// Cost multiplier ×10.
        intensity_x10: u64,
    },
    /// A fused multi-hop call program (see [`crate::program`]) registered
    /// with the world via [`MultiWorld::register_program`]: submitted
    /// once, executed server-side hop to hop without returning to the
    /// client, priced per the serving systems' own fusion mechanism
    /// ([`IpcSystem::fused_hop_into`]).
    ///
    /// The program's `client` and per-hop `service` ids live in recipe
    /// space when the step sits in a recipe (the load/serve drivers map
    /// them through the request's [`Placement`] assignment);
    /// [`MultiWorld::exec`] resolves them with the *identity* map —
    /// service id == core id — which is this variant's form of the
    /// already-resolved-to-core-space contract.
    Fused(ProgramId),
}

/// The outcome of one executed [`Step`]: when it finished in virtual
/// time, and the priced invocation it charged (an empty ledger for pure
/// compute steps, which charge no IPC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Virtual time at which the step completed.
    pub done: u64,
    /// The priced invocation (surcharges included); `Invocation::default()`
    /// for [`Step::Compute`] / [`Step::DataPass`].
    pub inv: Invocation,
}

/// How a [`Step`]'s `from`/`to`/`at` (and a fused program's service)
/// ids name cores — the one thing that differs between a step handed to
/// [`MultiWorld::exec`] and a step sitting in a request recipe.
#[derive(Clone, Copy)]
pub(crate) enum Space<'m> {
    /// Core space ([`MultiWorld::exec`]'s contract): ids are core ids
    /// and the issuing core is the one given here, superseding
    /// `from`/`at`.
    Core(CoreId),
    /// Service space: ids index the request's [`Placement`] map.
    Service(&'m [CoreId]),
}

impl Space<'_> {
    fn issuer(self, id: usize) -> CoreId {
        match self {
            Space::Core(core) => core,
            Space::Service(map) => map[id],
        }
    }

    fn core(self, id: usize) -> CoreId {
        match self {
            Space::Core(_) => id,
            Space::Service(map) => map[id],
        }
    }
}

/// What one executed step did in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stepped {
    /// Completion time.
    pub(crate) done: u64,
    /// Cycles the step waited behind its serving core's earlier work.
    pub(crate) wait: u64,
    /// IPC invocations issued (a batch of n counts n, a fused program
    /// its hop count, compute 0).
    pub(crate) calls: u64,
    /// Payload bytes physically copied.
    pub(crate) copied: u64,
}

/// A priced step, as [`MultiWorld::replay`] clocks and charges it: the
/// serving core and what its [`World`] counters take. Pricing reads no
/// clock, so one record replays at any ready time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Replay {
    core: CoreId,
    /// Priced IPC cycles (the step's span total), and of those
    /// [`Phase::Transfer`].
    ipc: u64,
    transfer: u64,
    /// Non-IPC cycles: compute, a data pass, a fused program's hops.
    compute: u64,
    /// As in [`Stepped`].
    pub(crate) calls: u64,
    payload: u64,
    copied: u64,
}

impl Replay {
    /// `calls` IPC invocations served on `core`, their spans in `out`.
    fn ipc(core: CoreId, calls: u64, payload: u64, copied: u64, out: &CycleLedger) -> Self {
        Replay {
            core,
            ipc: out.total(),
            transfer: out.get(Phase::Transfer),
            compute: 0,
            calls,
            payload,
            copied,
        }
    }
}

/// The cross-core surcharge of §5.2, split into its physical parts and
/// scaled by socket distance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XCoreCost {
    /// Raising and delivering the inter-processor interrupt.
    pub ipi: u64,
    /// Remote wakeup: the target core's scheduler dequeues and resumes
    /// the server thread.
    pub remote_wakeup: u64,
    /// Cycles to pull one cache line of payload across the interconnect.
    pub line_transfer: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// NUMA scaling per socket-distance unit, in tenths: a surcharge
    /// component at distance `d` costs `x * (10 + d * numa_x10) / 10`,
    /// so distance 0 (same socket) reproduces the flat single-socket
    /// surcharge exactly and a dual-socket hop at distance 2 with the
    /// default 5 costs 2×.
    pub numa_x10: u64,
}

impl XCoreCost {
    /// The U500 calibration. The constant part (`ipi + remote_wakeup`)
    /// equals [`CostModel::u500`]'s `cross_core_base`, so the adapter
    /// reproduces the hand-rolled `seL4+xcore` / `Zircon+xcore` variants
    /// exactly at 0 B and lands seL4 in §5.2's 81–141× band.
    pub fn u500() -> Self {
        let base = CostModel::u500().cross_core_base;
        XCoreCost {
            ipi: 2_000,
            remote_wakeup: base - 2_000,
            line_transfer: 50,
            line_bytes: 64,
            numa_x10: 5,
        }
    }

    /// `x` scaled by socket distance: `x * (10 + dist * numa_x10) / 10`
    /// (exactly `x` at distance 0).
    #[inline]
    fn at_distance(&self, x: u64, dist: u64) -> u64 {
        x * (10 + dist * self.numa_x10) / 10
    }

    /// Surcharge for one *intra-socket* hop carrying `payload_bytes`
    /// across cores (socket distance 0).
    pub fn hop_extra(&self, payload_bytes: u64) -> u64 {
        self.hop_extra_at(payload_bytes, 0)
    }

    /// Surcharge for one hop carrying `payload_bytes` between cores whose
    /// sockets sit `dist` distance units apart: IPI, remote wakeup, and
    /// cache-line transfer each scale with the distance.
    #[inline]
    pub(crate) fn hop_extra_at(&self, payload_bytes: u64, dist: u64) -> u64 {
        let lines = payload_bytes.div_ceil(self.line_bytes.max(1));
        (self.at_distance(self.ipi, dist) + self.at_distance(self.remote_wakeup, dist))
            .saturating_add(lines.saturating_mul(self.at_distance(self.line_transfer, dist)))
    }

    /// Surcharge for a *migrating-thread* hop (`xcall` runs the server on
    /// the caller's core — no IPI, no remote wakeup): zero intra-socket,
    /// and only the distance-dependent part of the cache-line transfer
    /// cross-socket (the relay segment's lines are pulled across the
    /// interconnect on first touch).
    #[inline]
    pub(crate) fn migrating_hop_extra(&self, payload_bytes: u64, dist: u64) -> u64 {
        let lines = payload_bytes.div_ceil(self.line_bytes.max(1));
        lines.saturating_mul(self.at_distance(self.line_transfer, dist) - self.line_transfer)
    }
}

impl Default for XCoreCost {
    fn default() -> Self {
        Self::u500()
    }
}

/// Adapter pricing an inner [`IpcSystem`]'s calls as *cross-core* calls
/// (intra-socket: socket distance 0).
///
/// Every hop additionally charges [`Phase::CrossCore`] with
/// [`XCoreCost::hop_extra`] — zero when the inner system migrates
/// threads (XPC: the server runs on the client's core, §5.2), so the
/// span still records that the call crossed cores for free.
pub struct CrossCore {
    inner: Box<dyn IpcSystem>,
    xc: XCoreCost,
}

impl CrossCore {
    /// Wrap `inner` with the U500 cross-core surcharge.
    pub fn new(inner: Box<dyn IpcSystem>) -> Self {
        CrossCore {
            inner,
            xc: XCoreCost::u500(),
        }
    }
}

impl IpcSystem for CrossCore {
    fn name(&self) -> String {
        format!("{}+xcore", self.inner.name())
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let copied = self.inner.oneway_into(msg_len, opts, out);
        let extra = if self.inner.migrating_threads() {
            0
        } else {
            self.xc.hop_extra(msg_len as u64)
        };
        out.charge(Phase::CrossCore, extra);
        copied
    }

    fn supports_handover(&self) -> bool {
        self.inner.supports_handover()
    }

    fn migrating_threads(&self) -> bool {
        self.inner.migrating_threads()
    }

    fn amortizable_cycles(&self, phase: Phase, first_cycles: u64, opts: &InvokeOpts) -> u64 {
        self.inner.amortizable_cycles(phase, first_cycles, opts)
    }

    fn invoke_batch_into(
        &mut self,
        calls: u64,
        bytes_each: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        // Delegate to the inner system (keeping its amortization *and*
        // its stats counting), then surcharge every call: batching does
        // not amortize the IPI or the remote wakeup — each cross-core
        // delivery still interrupts and wakes the target core. (An
        // empty burst delivers nothing, so it records no crossing.)
        let copied = self.inner.invoke_batch_into(calls, bytes_each, opts, out);
        if calls > 0 {
            let extra = if self.inner.migrating_threads() {
                0
            } else {
                calls.saturating_mul(self.xc.hop_extra(bytes_each as u64))
            };
            out.charge(Phase::CrossCore, extra);
        }
        copied
    }

    fn fused_hop_into(
        &mut self,
        hop_index: u64,
        msg_len: usize,
        opts: &InvokeOpts,
        out: &mut CycleLedger,
    ) -> u64 {
        // Same shape as `oneway_into`: the inner system prices the fused
        // hop, then the crossing surcharge applies unless threads
        // migrate — fusion saves kernel entries, not IPIs.
        let copied = self.inner.fused_hop_into(hop_index, msg_len, opts, out);
        let extra = if self.inner.migrating_threads() {
            0
        } else {
            self.xc.hop_extra(msg_len as u64)
        };
        out.charge(Phase::CrossCore, extra);
        copied
    }

    fn fused_crossings(&self, hops: u64) -> u64 {
        self.inner.fused_crossings(hops)
    }

    fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
        self.inner.engine_cache_stats()
    }
}

/// Which core serves which service (the compartment-placement axis the
/// scale-out experiments sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Everything on core 0 — the single-core baseline.
    SameCore,
    /// Service *i* is pinned to `map[i] % n_cores` — the microkernel
    /// deployment where every server is a process on its own core.
    Pinned(Vec<CoreId>),
    /// Request *r*'s whole chain runs on core `r % n_cores` (the client
    /// stays on core 0) — dispatch-level round robin.
    RoundRobin,
    /// Each request's chain runs on the core with the best
    /// `free_at + distance penalty` score at dispatch time (the client
    /// stays on core 0): the NUMA-aware trade between queue depth and
    /// the surcharge a remote-socket chain would pay per hop. On a
    /// single-socket topology every penalty is zero and this is the
    /// classic earliest-free policy.
    LeastLoaded,
}

impl Placement {
    /// Stable label for tables and JSON dumps.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Placement::SameCore => "same-core",
            Placement::Pinned(_) => "pinned",
            Placement::RoundRobin => "round-robin",
            Placement::LeastLoaded => "least-loaded",
        }
    }

    /// Map the `n_services` services of request `r` to cores, into `out`
    /// (cleared first, so a load run placing every request reuses one
    /// map allocation). Service 0 is the client; it always sits on core
    /// 0. Every index written is strictly below `mw.n_cores()`.
    ///
    /// The map is a function of its last entry, the core the chain runs
    /// on (same-core and pinned map every request alike): the request
    /// engine keys its priced plans by it.
    ///
    /// # Errors
    ///
    /// [`PlacementError`] when a pinned map covers fewer services than
    /// the recipe uses, or when a policy produces a core index outside
    /// the world. Both used to be `assert!`/`debug_assert!`; release
    /// builds would silently mis-price every hop of a mis-mapped chain
    /// instead of rejecting it.
    pub(crate) fn assign_into(
        &self,
        r: u64,
        n_services: usize,
        mw: &MultiWorld,
        out: &mut Vec<CoreId>,
    ) -> Result<(), PlacementError> {
        let n = mw.n_cores();
        out.clear();
        match self {
            Placement::SameCore => out.resize(n_services, 0),
            Placement::Pinned(map) => {
                if map.len() < n_services {
                    return Err(PlacementError::PinnedMapTooShort {
                        have: map.len(),
                        need: n_services,
                    });
                }
                out.extend(map[..n_services].iter().map(|&c| c % n));
            }
            Placement::RoundRobin => {
                let chain = usize::try_from(r % n as u64).expect("core index fits usize");
                Self::chain_on(chain, n_services, out);
            }
            Placement::LeastLoaded => Self::chain_on(mw.least_loaded_weighted(), n_services, out),
        }
        if let Some(&bad) = out.iter().find(|&&c| c >= n) {
            return Err(PlacementError::CoreOutOfRange {
                policy: self.label(),
                core: bad,
                n_cores: n,
            });
        }
        Ok(())
    }

    fn chain_on(chain: CoreId, n_services: usize, out: &mut Vec<CoreId>) {
        out.resize(n_services, chain);
        // `resize` on the cleared buffer filled every slot with `chain`.
        if let Some(first) = out.first_mut() {
            *first = 0; // the client
        }
    }
}

/// A [`Placement`] could not produce a valid service → core map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// `Placement::Pinned` lists fewer cores than the recipe has
    /// services.
    PinnedMapTooShort {
        /// Cores the pinned map covers.
        have: usize,
        /// Services the recipe needs placed.
        need: usize,
    },
    /// A policy produced a core index outside the world.
    CoreOutOfRange {
        /// `Placement::label` of the offending policy.
        policy: &'static str,
        /// The out-of-range index.
        core: CoreId,
        /// Cores the world actually has.
        n_cores: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::PinnedMapTooShort { have, need } => {
                write!(f, "pinned map covers {have} of {need} services")
            }
            PlacementError::CoreOutOfRange {
                policy,
                core,
                n_cores,
            } => {
                write!(
                    f,
                    "{policy}: assigned core {core} on a {n_cores}-core world"
                )
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Configures a [`MultiWorld`]: active core count, machine [`Topology`],
/// and cross-core cost. [`build`](Self::build) validates the core count
/// against the topology.
#[derive(Debug, Clone)]
pub struct MultiWorldBuilder {
    cores: Option<usize>,
    topo: Topology,
    xc: XCoreCost,
}

impl MultiWorldBuilder {
    /// Use `n` cores (default: every core the topology has). Must fit
    /// the topology at [`build`](Self::build) time.
    #[must_use]
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = Some(n);
        self
    }

    /// The machine shape (default: [`Topology::u500`], the paper's
    /// single-socket quad-core).
    #[must_use]
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topo = topo;
        self
    }

    /// Build the world, with a fresh system from `mk` per core.
    ///
    /// # Panics
    ///
    /// Panics when the core count is zero or exceeds what the topology
    /// offers.
    pub fn build(self, mk: impl Fn() -> Box<dyn IpcSystem>) -> MultiWorld {
        let n = self.cores.unwrap_or_else(|| self.topo.n_cores());
        assert!(n > 0, "a world needs at least one core");
        assert!(
            n <= self.topo.n_cores(),
            "{n} cores do not fit the topology ({} sockets x {} cores/socket = {})",
            self.topo.sockets,
            self.topo.cores_per_socket,
            self.topo.n_cores()
        );
        let topo = &self.topo;
        MultiWorld {
            cores: (0..n).map(|_| World::new(mk())).collect(),
            free_at: vec![0; n],
            xc: self.xc,
            dist: (0..n * n)
                .map(|i| topo.core_distance(i / n, i % n))
                .collect(),
            topo: self.topo,
            programs: Vec::new(),
            replayed_cache: EngineCacheStats::default(),
        }
    }
}

/// N per-core [`World`]s under one virtual-time discipline.
///
/// Each core runs its own instance of the IPC system (warm state stays
/// core-local) and is a FIFO server: work charged at virtual time `t`
/// starts at `max(t, free_at)`. A hop is charged to the core *serving*
/// it; a blocked synchronous caller yields its core (that is the whole
/// point of scale-out), so only the serving core accrues busy time.
/// Hops between cores on different sockets pay distance-scaled
/// surcharges and remote x-entry shard fetches (see the module docs).
pub struct MultiWorld {
    cores: Vec<World>,
    free_at: Vec<u64>,
    xc: XCoreCost,
    topo: Topology,
    /// `topo.core_distance(a, b)` at `a * n_cores + b`, tabulated at build
    /// time (every priced leg reads one; `socket_of` divides). Owned here,
    /// not by [`Topology`], whose `pub` fields could leave a table stale.
    dist: Vec<u64>,
    programs: Vec<CallProgram>,
    /// The engine-cache advances of the request engine's replayed plans.
    pub(crate) replayed_cache: EngineCacheStats,
}

impl std::fmt::Debug for MultiWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiWorld")
            .field("cores", &self.cores.len())
            .field("topology", &self.topo)
            .field("free_at", &self.free_at)
            .finish()
    }
}

impl MultiWorld {
    /// Start configuring a world (see [`MultiWorldBuilder`]).
    pub fn builder() -> MultiWorldBuilder {
        MultiWorldBuilder {
            cores: None,
            topo: Topology::u500(),
            xc: XCoreCost::u500(),
        }
    }

    /// Number of (active) cores.
    pub(crate) fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// The world of core `i`.
    pub fn core(&self, i: CoreId) -> &World {
        &self.cores[i]
    }

    /// Socket distance between two of the world's cores.
    #[inline]
    fn core_distance(&self, a: CoreId, b: CoreId) -> u64 {
        self.dist[a * self.cores.len() + b]
    }

    /// Virtual time at which core `i` is next free.
    pub fn free_at(&self, i: CoreId) -> u64 {
        self.free_at[i]
    }

    /// The core among the first `n_active` that frees up earliest (ties
    /// to the lowest index) — the dispatch primitive of the open-loop
    /// autoscaler ([`crate::serve`]), which grows and shrinks the active
    /// prefix `0..n_active` of the world's cores instead of always
    /// spreading over all of them. `n_active` is clamped to the core
    /// count; `n_active = n_cores()` picks over every core, ignoring
    /// topology.
    pub(crate) fn least_loaded_among(&self, n_active: usize) -> CoreId {
        let n = n_active.clamp(1, self.cores.len());
        let mut best = 0;
        for (i, &t) in self.free_at.iter().enumerate().take(n) {
            if t < self.free_at[best] {
                best = i;
            }
        }
        best
    }

    /// How far behind virtual time `now` core `i`'s FIFO queue currently
    /// runs: `free_at - now`, saturating at 0 for an idle core. This is
    /// the observed queue-depth signal the open-loop admission control
    /// and the autoscale feedback controller both act on.
    pub(crate) fn backlog(&self, i: CoreId, now: u64) -> u64 {
        self.free_at[i].saturating_sub(now)
    }

    /// The core minimizing `free_at + distance penalty` from the client
    /// core (core 0), ties to the lowest index: a remote-socket core
    /// must beat a local one by more than the per-hop surcharge its
    /// distance would add. Identical to
    /// [`least_loaded_among`](Self::least_loaded_among) over every core on
    /// a single-socket topology.
    pub(crate) fn least_loaded_weighted(&self) -> CoreId {
        let mut best = 0;
        let mut best_score = u64::MAX;
        for i in 0..self.cores.len() {
            let score = self.free_at[i].saturating_add(self.placement_penalty(i));
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        best
    }

    /// The extra per-hop cycles a chain on `core` pays over an
    /// intra-socket placement, estimated at one cache line of payload:
    /// the distance-dependent slice of the surcharge (plus the x-entry
    /// shard fetch for migrating/sharded systems). Zero intra-socket.
    fn placement_penalty(&self, core: CoreId) -> u64 {
        let dist = self.core_distance(0, core);
        if dist == 0 {
            return 0;
        }
        if self.cores[core].migrating_threads() {
            self.xc.migrating_hop_extra(self.xc.line_bytes, dist)
                + self.cores[core].cost.xentry_shard_fetch * dist
        } else {
            self.xc.hop_extra_at(self.xc.line_bytes, dist) - self.xc.hop_extra(self.xc.line_bytes)
        }
    }

    /// Total busy cycles over all cores (utilization numerator),
    /// saturating like every other virtual-time sum.
    pub(crate) fn busy_cycles(&self) -> u64 {
        self.cores
            .iter()
            .fold(0, |sum, w| sum.saturating_add(w.cycles))
    }

    /// Engine-cache counters summed over every core's system and the
    /// replayed plans ([`None`] when no core models one).
    pub fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
        let mut acc: Option<EngineCacheStats> = None;
        for w in &self.cores {
            if let Some(s) = w.engine_cache_stats() {
                acc.get_or_insert_with(EngineCacheStats::default).merge(s);
            }
        }
        if let Some(acc) = &mut acc {
            acc.merge(self.replayed_cache);
        }
        acc
    }

    /// Register a fused call program, returning the [`ProgramId`] a
    /// [`Step::Fused`] dispatches it by. Programs are world-scoped: an
    /// id only resolves on the world that issued it.
    pub fn register_program(&mut self, program: CallProgram) -> ProgramId {
        self.programs.push(program);
        ProgramId::from_index(self.programs.len() - 1)
    }

    /// The registered program behind `id`. Panics on an id from another
    /// world (out of range for this table).
    pub(crate) fn program(&self, id: ProgramId) -> &CallProgram {
        &self.programs[id.index()]
    }

    /// Number of programs registered so far.
    pub(crate) fn n_programs(&self) -> usize {
        self.programs.len()
    }

    /// Fused-program pricing: charge every hop and the final reply leg
    /// into `out` (accumulating); the entry core — the first hop's —
    /// serves the whole program, and the call count is the hop count
    /// (one `xcall`/kernel entry per hop, however the mechanism prices
    /// it).
    ///
    /// The model follows AnyCall's submit-once shape: the client issues
    /// one submission to the entry service, which drives the remaining
    /// hops server-side; control never returns to the client between
    /// hops, and the final hop replies straight back. Every hop is
    /// priced by *its serving core's* system (warm engine-cache state
    /// stays where the service lives) via
    /// [`IpcSystem::fused_hop_into`], consecutive hops on different
    /// cores pay the §5.2 surcharge for their edge, and a handover edge
    /// into a handover-capable system moves only a
    /// [`HANDOVER_DESC_BYTES`] descriptor. A depth-1 program with no
    /// handover and no compute prices span-for-span identically to the
    /// equivalent [`Step::Roundtrip`].
    fn price_fused(&mut self, space: Space<'_>, id: ProgramId, out: &mut CycleLedger) -> Replay {
        let depth = self.programs[id.index()].depth();
        let issuer = space.issuer(self.programs[id.index()].client());
        let entry = space.core(self.programs[id.index()].hops()[0].service);
        let mut prev = issuer;
        let mut copied = 0u64;
        let mut payload = 0u64;
        let mut compute = 0u64;
        let mut calls = 0u64;
        for i in 0..depth {
            let hop = self.programs[id.index()].hops()[i];
            let to = space.core(hop.service);
            let bytes = if hop.handover && self.cores[to].handover() {
                HANDOVER_DESC_BYTES.min(hop.request)
            } else {
                hop.request
            };
            let opts = self.shard_opts(prev, to, &InvokeOpts::call());
            let hop_copied = self.cores[to]
                .ipc()
                .fused_hop_into(calls, msg_len(bytes), &opts, out);
            self.surcharge_into(prev, to, bytes, 1, out);
            // Saturating, like every virtual-time sum: a program's byte
            // and compute counts are caller-supplied.
            copied = copied.saturating_add(hop_copied);
            payload = payload.saturating_add(bytes);
            compute = compute.saturating_add(hop.compute);
            calls += 1;
            prev = to;
        }
        let response = self.programs[id.index()].response();
        let reply_opts = self.shard_opts(issuer, prev, &InvokeOpts::reply_leg());
        let reply_copied = self.cores[prev]
            .ipc()
            .oneway_into(msg_len(response), &reply_opts, out);
        self.surcharge_into(issuer, prev, response, 1, out);
        copied = copied.saturating_add(reply_copied);
        payload = payload.saturating_add(response);
        Replay {
            compute,
            ..Replay::ipc(entry, calls, payload, copied, out)
        }
    }

    /// Crossings-per-request the entry core's mechanism charges a fused
    /// program of `id`'s depth (the `fuse` figure's headline metric;
    /// see [`IpcSystem::fused_crossings`]).
    ///
    /// # Panics
    ///
    /// Panics when `id` was not registered on this world or `map` has no
    /// core for the program's first hop.
    pub fn fused_crossings(&self, id: ProgramId, map: &[CoreId]) -> u64 {
        let p = &self.programs[id.index()];
        let hops = u64::try_from(p.depth()).expect("hop count fits u64");
        self.cores[map[p.hops()[0].service]].fused_crossings(hops)
    }

    /// `opts` with the x-entry shard distance of a `from → to` hop
    /// filled in (0 when both cores share a socket).
    fn shard_opts(&self, from: CoreId, to: CoreId, opts: &InvokeOpts) -> InvokeOpts {
        opts.clone().at_shard_distance(self.core_distance(from, to))
    }

    /// Charge the cross-core extra for `calls` deliveries over a
    /// `from → to` leg straight into `out`: same-core legs, empty bursts
    /// and free intra-socket migrating crossings leave the ledger
    /// untouched (no span — the §5.2 free crossing), every other
    /// crossing appends/accumulates a [`Phase::CrossCore`] span.
    fn surcharge_into(
        &self,
        from: CoreId,
        to: CoreId,
        bytes: u64,
        calls: u64,
        out: &mut CycleLedger,
    ) {
        if from == to || calls == 0 {
            return;
        }
        let dist = self.core_distance(from, to);
        let extra = if self.cores[to].migrating_threads() {
            let extra = calls.saturating_mul(self.xc.migrating_hop_extra(bytes, dist));
            if extra == 0 {
                return;
            }
            extra
        } else {
            calls.saturating_mul(self.xc.hop_extra_at(bytes, dist))
        };
        out.charge(Phase::CrossCore, extra);
    }

    /// The unified execution entry point: run one [`Step`] (already
    /// resolved to core space) issued by `core` at virtual time `ready`.
    ///
    /// `core` is the step's origin — the client side of an IPC hop, or
    /// the computing core itself. IPC steps serve (and charge) on the
    /// core named by the step's `to` field; their `from`/`at` fields are
    /// not consulted (the caller resolves services to cores, see
    /// `Placement::assign_into`). Call legs are priced with
    /// [`InvokeOpts::call`]; x-entry shard distance and cross-core
    /// surcharges fall out of the topology.
    ///
    /// Thin adapter over the same path [`exec_into`](Self::exec_into)
    /// runs, for callers that want the step's spans as an owned
    /// [`Invocation`].
    ///
    /// # Panics
    ///
    /// Panics when `core` or a core id the step names is not a core of
    /// this world, or when a [`Step::Fused`] carries a [`ProgramId`]
    /// this world did not register (the ids index the world's tables
    /// unchecked).
    pub fn exec(&mut self, core: CoreId, step: Step, ready: u64) -> Completion {
        let mut done = ready;
        let inv = Invocation::priced(|out| {
            let stepped = self.exec_step(Space::Core(core), step, ready, out);
            done = stepped.done;
            stepped.copied
        });
        Completion { done, inv }
    }

    /// Run one [`Step`] and charge its phase spans into `out` (cleared
    /// first). Returns the completion time.
    ///
    /// No allocation, no per-world event histogram — worlds are clocked
    /// and only their scalar counters charged.
    ///
    /// # Panics
    ///
    /// As [`exec`](Self::exec).
    pub fn exec_into(
        &mut self,
        core: CoreId,
        step: Step,
        ready: u64,
        out: &mut CycleLedger,
    ) -> u64 {
        out.clear();
        self.exec_step(Space::Core(core), step, ready, out).done
    }

    /// Price `step` and replay it at `ready`: the one path behind
    /// [`exec`](Self::exec) and [`exec_into`](Self::exec_into). `out`
    /// must be empty.
    pub(crate) fn exec_step(
        &mut self,
        space: Space<'_>,
        step: Step,
        ready: u64,
        out: &mut CycleLedger,
    ) -> Stepped {
        let priced = self.price_step(space, step, out);
        self.replay(&priced, ready)
    }

    /// Price `step`, its ids read in `space`: charge its IPC spans and
    /// cross-core surcharges into `out` (which must be empty) and return
    /// what [`replay`](Self::replay) clocks and charges. Reads no clock
    /// and touches no [`World`] counter; only the systems' engine-cache
    /// counters may advance (see [`IpcSystem`]'s contract).
    pub(crate) fn price_step(
        &mut self,
        space: Space<'_>,
        step: Step,
        out: &mut CycleLedger,
    ) -> Replay {
        let opts = InvokeOpts::call();
        match step {
            Step::Oneway { from, to, bytes } => {
                let (core, to) = (space.issuer(from), space.core(to));
                let opts = self.shard_opts(core, to, &opts);
                let copied = self.cores[to].ipc().oneway_into(msg_len(bytes), &opts, out);
                self.surcharge_into(core, to, bytes, 1, out);
                Replay::ipc(to, 1, bytes, copied, out)
            }
            Step::Batch {
                from,
                to,
                calls,
                bytes_each,
            } => {
                let (core, to) = (space.issuer(from), space.core(to));
                let opts = self.shard_opts(core, to, &opts);
                let copied =
                    self.cores[to]
                        .ipc()
                        .invoke_batch_into(calls, msg_len(bytes_each), &opts, out);
                self.surcharge_into(core, to, bytes_each, calls, out);
                Replay::ipc(to, calls, calls.saturating_mul(bytes_each), copied, out)
            }
            Step::Roundtrip {
                from,
                to,
                request,
                response,
            } => {
                // Both legs charge one sink in sequence, so first-
                // occurrence span order is call spans, call surcharge,
                // then reply-only spans.
                let (core, to) = (space.issuer(from), space.core(to));
                let call_opts = self.shard_opts(core, to, &opts);
                let call = self.cores[to]
                    .ipc()
                    .oneway_into(msg_len(request), &call_opts, out);
                self.surcharge_into(core, to, request, 1, out);
                let reply_opts = self.shard_opts(core, to, &InvokeOpts::reply_leg());
                let reply = self.cores[to]
                    .ipc()
                    .oneway_into(msg_len(response), &reply_opts, out);
                self.surcharge_into(core, to, response, 1, out);
                let (payload, copied) =
                    (request.saturating_add(response), call.saturating_add(reply));
                Replay::ipc(to, 1, payload, copied, out)
            }
            Step::Compute { at, cycles } => Replay {
                core: space.issuer(at),
                compute: cycles,
                ..Replay::default()
            },
            Step::DataPass {
                at,
                bytes,
                intensity_x10,
            } => {
                let core = space.issuer(at);
                let compute = self.cores[core].cost.data_pass_cycles(bytes, intensity_x10);
                Replay {
                    core,
                    compute,
                    ..Replay::default()
                }
            }
            Step::Fused(id) => self.price_fused(space, id, out),
        }
    }

    /// Serve a priced step on its FIFO core no earlier than `ready` (the
    /// completion time saturates at `u64::MAX`) and charge the core's
    /// [`World`] counters.
    #[inline]
    pub(crate) fn replay(&mut self, step: &Replay, ready: u64) -> Stepped {
        let start = ready.max(self.free_at[step.core]);
        let done = start.saturating_add(step.ipc.saturating_add(step.compute));
        self.free_at[step.core] = done;
        let world = &mut self.cores[step.core];
        world.compute(step.compute);
        world.charge_ipc(step.calls, step.payload, step.ipc, step.transfer);
        Stepped {
            done,
            wait: start - ready,
            calls: step.calls,
            copied: step.copied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        base: u64,
        migrating: bool,
    }

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
            out.charge(Phase::Trap, self.base);
            out.charge(Phase::Transfer, msg_len as u64);
            msg_len as u64
        }
        fn migrating_threads(&self) -> bool {
            self.migrating
        }
    }

    fn fixed() -> Box<dyn IpcSystem> {
        Box::new(Fixed {
            base: 100,
            migrating: false,
        })
    }

    fn migrating() -> Box<dyn IpcSystem> {
        Box::new(Fixed {
            base: 100,
            migrating: true,
        })
    }

    fn world(n: usize) -> MultiWorld {
        MultiWorld::builder()
            .topology(Topology::single_socket(n))
            .build(fixed)
    }

    fn oneway(sys: &mut impl IpcSystem, bytes: usize) -> Invocation {
        Invocation::priced(|l| sys.oneway_into(bytes, &InvokeOpts::call(), l))
    }

    /// One one-way hop `from → to` on a fresh-or-shared world at t = 0.
    fn hop(mw: &mut MultiWorld, from: CoreId, to: CoreId, bytes: u64) -> Completion {
        mw.exec(from, Step::Oneway { from, to, bytes }, 0)
    }

    fn assign(policy: &Placement, r: u64, n_services: usize, mw: &MultiWorld) -> Vec<CoreId> {
        let mut map = Vec::new();
        policy.assign_into(r, n_services, mw, &mut map).unwrap();
        map
    }

    fn compute(mw: &mut MultiWorld, core: CoreId, cycles: u64) -> u64 {
        mw.exec(core, Step::Compute { at: core, cycles }, 0).done
    }

    #[test]
    fn adapter_adds_the_surcharge_into_the_ledger() {
        let mut cc = CrossCore::new(fixed());
        for bytes in [0usize, 64, 4096] {
            let inv = oneway(&mut cc, bytes);
            let expect = XCoreCost::u500().hop_extra(bytes as u64);
            assert_eq!(inv.ledger.get(Phase::CrossCore), expect);
            assert_eq!(inv.total(), 100 + bytes as u64 + expect);
        }
        assert_eq!(cc.name(), "fixed+xcore");
    }

    #[test]
    fn migrating_systems_cross_for_free() {
        let mut cc = CrossCore::new(migrating());
        let inv = oneway(&mut cc, 4096);
        assert_eq!(inv.ledger.get(Phase::CrossCore), 0);
        // The zero-cost span is still recorded: the hop *did* cross.
        assert!(inv
            .ledger
            .spans()
            .iter()
            .any(|(p, _)| *p == Phase::CrossCore));
        assert_eq!(inv.total(), 100 + 4096);
    }

    #[test]
    fn surcharge_constant_part_matches_the_cost_model() {
        let xc = XCoreCost::u500();
        assert_eq!(xc.ipi + xc.remote_wakeup, CostModel::u500().cross_core_base);
        assert_eq!(xc.hop_extra(0), CostModel::u500().cross_core_base);
        assert!(xc.hop_extra(4096) > xc.hop_extra(0));
    }

    #[test]
    fn distance_scales_every_surcharge_component() {
        let xc = XCoreCost::u500();
        // Distance 0 is exactly the flat surcharge.
        for bytes in [0u64, 64, 4096] {
            assert_eq!(xc.hop_extra_at(bytes, 0), xc.hop_extra(bytes));
            assert_eq!(xc.migrating_hop_extra(bytes, 0), 0);
        }
        // Distance 2 at the default numa_x10 = 5 doubles the whole hop.
        assert_eq!(xc.hop_extra_at(4096, 2), 2 * xc.hop_extra(4096));
        // Migrating threads pay only the cache-line distance term.
        assert_eq!(xc.migrating_hop_extra(4096, 2), 64 * xc.line_transfer);
        assert_eq!(xc.migrating_hop_extra(0, 2), 0);
        // Monotone in distance.
        assert!(xc.hop_extra_at(64, 4) > xc.hop_extra_at(64, 2));
        assert!(xc.migrating_hop_extra(64, 4) > xc.migrating_hop_extra(64, 2));
    }

    #[test]
    fn same_core_hops_pay_no_surcharge() {
        let mut mw = world(2);
        let c = hop(&mut mw, 0, 0, 64);
        assert_eq!(c.inv.ledger.get(Phase::CrossCore), 0);
        assert_eq!(c.done, 164);
        let inv = hop(&mut mw, 0, 1, 64).inv;
        assert_eq!(
            inv.ledger.get(Phase::CrossCore),
            XCoreCost::u500().hop_extra(64)
        );
    }

    #[test]
    fn cross_socket_hops_pay_the_distance_scaled_surcharge() {
        let mut mw = MultiWorld::builder()
            .topology(Topology::dual_socket())
            .build(fixed);
        // Intra-socket (0 → 1): flat surcharge.
        let local = hop(&mut mw, 0, 1, 64).inv;
        assert_eq!(
            local.ledger.get(Phase::CrossCore),
            XCoreCost::u500().hop_extra(64)
        );
        // Cross-socket (0 → 4): distance-2 surcharge, 2x at numa_x10 = 5.
        let remote = hop(&mut mw, 0, 4, 64).inv;
        assert_eq!(
            remote.ledger.get(Phase::CrossCore),
            2 * XCoreCost::u500().hop_extra(64)
        );
        assert!(remote.total() > local.total());
    }

    #[test]
    fn migrating_threads_cross_sockets_for_the_line_distance_term() {
        let mut mw = MultiWorld::builder()
            .topology(Topology::dual_socket())
            .build(migrating);
        // Intra-socket: completely free, no CrossCore span at all.
        let local = hop(&mut mw, 0, 3, 4096).inv;
        assert!(!local
            .ledger
            .spans()
            .iter()
            .any(|(p, _)| *p == Phase::CrossCore));
        // Cross-socket: only the cache-line distance term.
        let remote = hop(&mut mw, 0, 4, 4096).inv;
        assert_eq!(
            remote.ledger.get(Phase::CrossCore),
            XCoreCost::u500().migrating_hop_extra(4096, 2)
        );
        // A zero-byte migrating hop stays free even across sockets (the
        // generic `Fixed` models no x-entry shard).
        let zero = hop(&mut mw, 0, 4, 0).inv;
        assert_eq!(zero.ledger.get(Phase::CrossCore), 0);
    }

    #[test]
    fn builder_validates_the_core_count() {
        // Fits: 2 active cores on the 4-core single socket.
        let mw = MultiWorld::builder().cores(2).build(fixed);
        assert_eq!(mw.n_cores(), 2);
        assert_eq!(mw.topo, Topology::u500());
        // Default: every core the topology has.
        let mw = MultiWorld::builder()
            .topology(Topology::dual_socket())
            .build(fixed);
        assert_eq!(mw.n_cores(), 8);
    }

    #[test]
    #[should_panic(expected = "do not fit the topology")]
    fn builder_rejects_more_cores_than_the_topology_has() {
        let _ = MultiWorld::builder().cores(5).build(fixed);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn builder_rejects_zero_cores() {
        let _ = MultiWorld::builder().cores(0).build(fixed);
    }

    #[test]
    fn depth_one_fused_program_prices_like_a_roundtrip() {
        // The fused path's anchor: one hop, no handover, no compute must
        // reproduce Step::Roundtrip span for span — ledger, completion
        // time, and the serving core's accounting.
        let program = crate::program::Recipe::new(0)
            .hop(1, 10)
            .reply(20)
            .build()
            .unwrap();
        let mut fused = world(2);
        let id = fused.register_program(program);
        let c_fused = fused.exec(0, Step::Fused(id), 0);
        let mut plain = world(2);
        let c_plain = plain.exec(
            0,
            Step::Roundtrip {
                from: 0,
                to: 1,
                request: 10,
                response: 20,
            },
            0,
        );
        assert_eq!(c_fused.done, c_plain.done);
        assert_eq!(c_fused.inv.ledger, c_plain.inv.ledger);
        assert_eq!(c_fused.inv.total(), c_plain.inv.total());
        assert_eq!(fused.core(1).cycles, plain.core(1).cycles);
        assert_eq!(fused.core(1).stats.ipc_count, 1);
    }

    #[test]
    fn fused_program_serves_on_the_entry_core_with_hop_count_calls() {
        let program = crate::program::Recipe::new(0)
            .hop(1, 64)
            .hop(2, 64)
            .hop(1, 64)
            .reply(8)
            .build()
            .unwrap();
        let mut mw = world(3);
        let id = mw.register_program(program);
        // Service space under the identity placement is core space.
        let mut twin = world(3);
        let twin_id = twin.register_program(mw.program(id).clone());
        let mut out = CycleLedger::new();
        let stepped = twin.exec_step(
            Space::Service(&[0, 1, 2]),
            Step::Fused(twin_id),
            0,
            &mut out,
        );
        assert_eq!((stepped.calls, stepped.wait), (3, 0));
        let c = mw.exec(0, Step::Fused(id), 0);
        assert_eq!((stepped.done, &out), (c.done, &c.inv.ledger));
        assert_eq!(stepped.copied, c.inv.copied_bytes);
        // All busy time (and the 3 ipc calls) land on the entry core.
        assert_eq!(mw.core(1).cycles, c.inv.total());
        assert_eq!(mw.core(1).stats.ipc_count, 3);
        assert_eq!(mw.core(2).cycles, 0);
        assert_eq!(mw.free_at(1), c.done);
        assert_eq!(mw.free_at(2), 0);
    }

    #[test]
    fn fused_compute_extends_the_clock_but_not_the_ipc_ledger() {
        let with_compute = crate::program::Recipe::new(0)
            .hop(1, 64)
            .compute(500)
            .reply(8)
            .build()
            .unwrap();
        let without = crate::program::Recipe::new(0)
            .hop(1, 64)
            .reply(8)
            .build()
            .unwrap();
        let mut a = world(2);
        let id = a.register_program(with_compute);
        let ca = a.exec(0, Step::Fused(id), 0);
        let mut b = world(2);
        let id = b.register_program(without);
        let cb = b.exec(0, Step::Fused(id), 0);
        assert_eq!(ca.inv.ledger, cb.inv.ledger, "compute is not IPC");
        assert_eq!(ca.done, cb.done + 500);
        assert_eq!(a.core(1).stats.other_cycles, 500);
    }

    #[test]
    fn handover_edges_shrink_the_moved_bytes_only_on_capable_systems() {
        let program = crate::program::Recipe::new(0)
            .handover(1, 4096)
            .reply(0)
            .build()
            .unwrap();
        // `Fixed` charges Transfer = msg_len, so the moved bytes are
        // visible in the ledger. Without handover support the edge
        // copies all 4096 bytes...
        let mut plain = world(2);
        let id = plain.register_program(program.clone());
        let c = plain.exec(0, Step::Fused(id), 0);
        assert_eq!(c.inv.ledger.get(Phase::Transfer), 4096);
        // ...and a handover-capable system moves only the descriptor.
        struct HandFixed;
        impl IpcSystem for HandFixed {
            fn name(&self) -> String {
                "hand-fixed".into()
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
            fn supports_handover(&self) -> bool {
                true
            }
        }
        let mut hand = MultiWorld::builder()
            .topology(Topology::single_socket(2))
            .build(|| Box::new(HandFixed));
        let id = hand.register_program(program);
        let c = hand.exec(0, Step::Fused(id), 0);
        assert_eq!(
            c.inv.ledger.get(Phase::Transfer),
            HANDOVER_DESC_BYTES,
            "the relay segment carries the payload; only the descriptor moves"
        );
    }

    #[test]
    fn compute_steps_complete_with_an_empty_invocation() {
        let mut a = world(2);
        let c = a.exec(1, Step::Compute { at: 1, cycles: 50 }, 0);
        assert_eq!(c.inv, Invocation::default());
        assert_eq!(c.done, a.free_at(1));
    }

    #[test]
    fn cores_are_fifo_servers() {
        let mut mw = world(2);
        // Two 100-cycle computes both ready at t=0 on core 0: the second
        // queues behind the first.
        assert_eq!(compute(&mut mw, 0, 100), 100);
        assert_eq!(compute(&mut mw, 0, 100), 200);
        // A third on core 1 runs immediately.
        assert_eq!(compute(&mut mw, 1, 100), 100);
        assert_eq!(mw.free_at(0), 200);
        assert_eq!(mw.busy_cycles(), 300);
    }

    #[test]
    fn least_loaded_prefers_the_idle_core() {
        let mut mw = world(3);
        compute(&mut mw, 0, 500);
        compute(&mut mw, 1, 200);
        assert_eq!(mw.least_loaded_among(mw.n_cores()), 2);
        compute(&mut mw, 2, 900);
        assert_eq!(mw.least_loaded_among(mw.n_cores()), 1);
    }

    #[test]
    fn weighted_least_loaded_trades_distance_against_queue_depth() {
        let mut mw = MultiWorld::builder()
            .topology(Topology::dual_socket())
            .build(fixed);
        // All idle: socket-0 cores win outright (core 0 by tie-break).
        assert_eq!(mw.least_loaded_weighted(), 0);
        // Load up socket 0 lightly: the remote socket is idle but must
        // beat the local queue by more than its distance penalty.
        for c in 0..4 {
            compute(&mut mw, c, 10);
        }
        assert_eq!(mw.least_loaded_weighted(), 0, "10 cycles < the penalty");
        assert_eq!(
            mw.least_loaded_among(mw.n_cores()),
            4,
            "the naive policy jumps sockets"
        );
        // Pile enough work on socket 0 and the remote socket pays off.
        for c in 0..4 {
            compute(&mut mw, c, 1_000_000);
        }
        assert_eq!(mw.least_loaded_weighted(), 4);
    }

    #[test]
    fn placement_policies_map_services() {
        let mw = world(4);
        assert_eq!(assign(&Placement::SameCore, 7, 3, &mw), vec![0, 0, 0]);
        let pinned = Placement::Pinned(vec![0, 1, 2, 3]);
        assert_eq!(assign(&pinned, 0, 4, &mw), vec![0, 1, 2, 3]);
        // Round robin keeps the client (service 0) on core 0.
        assert_eq!(assign(&Placement::RoundRobin, 5, 3, &mw), vec![0, 1, 1]);
        assert_eq!(assign(&Placement::RoundRobin, 4, 3, &mw), vec![0, 0, 0]);
        assert_eq!(assign(&Placement::LeastLoaded, 0, 2, &mw), vec![0, 0]);
    }

    #[test]
    fn assign_never_exceeds_the_core_count() {
        // Regression: the 1-core/many-services corner must map every
        // service (and every policy) to core 0, never out of range.
        let mut mw = world(1);
        compute(&mut mw, 0, 100);
        for policy in [
            Placement::SameCore,
            Placement::Pinned(vec![7, 3, 9, 2, 11]),
            Placement::RoundRobin,
            Placement::LeastLoaded,
        ] {
            for r in 0..5 {
                let map = assign(&policy, r, 5, &mw);
                assert_eq!(map.len(), 5, "{}", policy.label());
                assert!(
                    map.iter().all(|&c| c < mw.n_cores()),
                    "{} assigned out-of-range core: {map:?}",
                    policy.label()
                );
            }
        }
    }

    #[test]
    fn zero_call_batch_is_the_empty_invocation() {
        // A caller-supplied `calls: 0` used to reach an `assert!` in the
        // batch pricing. It prices as nothing: no spans (not even a
        // zero-cycle cross-core one), no bytes, no IPC calls — the step
        // still takes its FIFO turn on the serving core.
        let mut mw = world(2);
        compute(&mut mw, 1, 500);
        let empty = Step::Batch {
            from: 0,
            to: 1,
            calls: 0,
            bytes_each: 64,
        };
        let c = mw.exec(0, empty, 0);
        assert_eq!(c.inv, Invocation::default());
        assert_eq!(c.done, 500, "queued behind the core's earlier work");
        assert_eq!(mw.core(1).stats.ipc_count, 0);
        assert_eq!(mw.core(1).stats.ipc_cycles, 0);
        // The adapter agrees: an empty burst crosses nothing.
        let mut cc = CrossCore::new(fixed());
        let inv = Invocation::priced(|l| cc.invoke_batch_into(0, 64, &InvokeOpts::call(), l));
        assert_eq!(inv, Invocation::default());
    }

    #[test]
    fn cross_core_surcharge_is_per_call_in_a_batch() {
        // `Fixed` has no IpcLogic phase, so the default amortization
        // amortizes nothing: a batch of n costs exactly n oneway calls —
        // and crossing cores must still pay n full surcharges.
        let mut mw = world(2);
        let n = 8u64;
        let batch = |from, to| Step::Batch {
            from,
            to,
            calls: n,
            bytes_each: 64,
        };
        let inv = mw.exec(0, batch(0, 1), 0).inv;
        assert_eq!(
            inv.ledger.get(Phase::CrossCore),
            n * XCoreCost::u500().hop_extra(64)
        );
        assert_eq!(
            inv.total(),
            n * (100 + 64 + XCoreCost::u500().hop_extra(64))
        );
        assert_eq!(mw.core(1).stats.ipc_count, n);
        // Same-core batches pay none.
        let inv = mw.exec(0, batch(0, 0), 0).inv;
        assert_eq!(inv.ledger.get(Phase::CrossCore), 0);
    }

    #[test]
    fn cross_core_adapter_batches_like_the_multiworld() {
        let mut cc = CrossCore::new(fixed());
        let inv = Invocation::priced(|l| cc.invoke_batch_into(4, 16, &InvokeOpts::call(), l));
        assert_eq!(
            inv.ledger.get(Phase::CrossCore),
            4 * XCoreCost::u500().hop_extra(16)
        );
        assert_eq!(cc.engine_cache_stats(), None);
    }

    #[test]
    fn roundtrip_charges_the_serving_core() {
        let mut mw = world(2);
        let step = Step::Roundtrip {
            from: 0,
            to: 1,
            request: 10,
            response: 20,
        };
        let Completion { done, inv } = mw.exec(0, step, 0);
        // Two legs of 100 + bytes, each surcharged.
        let extra = XCoreCost::u500();
        let expect = 100 + 10 + extra.hop_extra(10) + 100 + 20 + extra.hop_extra(20);
        assert_eq!(inv.total(), expect);
        assert_eq!(done, expect);
        assert_eq!(mw.core(1).cycles, expect);
        assert_eq!(mw.core(0).cycles, 0);
        assert_eq!(
            inv.copied_bytes, 30,
            "both legs' copies reach the completion"
        );
    }
}
