//! OS-model simulation framework for the XPC (ISCA'19) reproduction.
//!
//! The paper's micro-benchmarks (Tables 1/3, Figures 5/6) run on the real
//! [`rv64`](https://docs.rs) emulator. Its *application* results (Figures
//! 1, 7, 8, 9) are end-to-end workloads — file systems, network stacks, a
//! database, Android Binder — whose IPC patterns dominate. This crate
//! provides the cost-model layer those workloads run on:
//!
//! * [`cost::CostModel`] — the calibrated phase constants (Table 1's
//!   trap / IPC-logic / switch / restore, copy cycles per byte, the XPC
//!   instruction costs measured on the emulator);
//! * [`ledger`] — the [`CycleLedger`]/[`Phase`] attribution every system
//!   charges against, and the owned [`Invocation`] tables and figures
//!   build from it ([`Invocation::priced`]);
//! * [`ipc::IpcSystem`] — the invocation pipeline every kernel model
//!   implements (one hop charged into a ledger sink as a function of
//!   message size and [`InvokeOpts`]);
//! * [`transport`] — the four long-message mechanisms of Figure 10
//!   (twofold copy, user shared memory, remap, relay segment) with their
//!   security properties from Table 7;
//! * [`world::World`] — a charging context that services run against,
//!   splitting time into IPC vs non-IPC (exactly the Figure 1(a)
//!   measurement) and recording a message-size histogram (Figure 1(b));
//! * [`topology`] — the machine shape ([`topology::Topology`]: sockets ×
//!   cores with a socket distance matrix; presets for the paper's
//!   single-socket U500 and a dual-socket box);
//! * [`multicore`] — N per-core worlds with §5.2 cross-core call pricing
//!   scaled by socket distance (the [`multicore::CrossCore`] adapter
//!   works over *any* system), built via [`multicore::MultiWorldBuilder`]
//!   and driven through the unified [`multicore::MultiWorld::exec`], plus
//!   NUMA-aware placement policies;
//! * [`program`] — fused multi-hop call programs (AnyCall-style): a
//!   [`program::Recipe`] builder produces bounded [`program::CallProgram`]s
//!   that a world registers and dispatches as one `Step::Fused`,
//!   executing server-side without returning to the client between hops;
//! * `engine` (private) — the one request engine: issue → place →
//!   price → record → reduce, generic over where the next request comes
//!   from and what a full owner queue means. [`load`] and [`serve`] are
//!   its two front doors;
//! * [`load`] — the closed-loop door: windowed clients whose next issue
//!   is triggered by their own completion, reporting throughput and
//!   p50/p95/p99 latency from per-request ledgers;
//! * [`serve`] — the open-loop door: seeded Poisson/bursty arrival
//!   traces ([`serve::ArrivalTrace`]) replayed with per-tenant admission
//!   control, SLO targets, and an autoscaling placement controller —
//!   the layer that exposes the tail-vs-load saturation knee a closed
//!   loop structurally cannot show;
//! * [`par`] — a zero-dependency scoped-thread cell pool with
//!   index-ordered reduction, so sweep grids fan out over N workers
//!   while every rendered figure stays byte-identical to the serial
//!   run.

#![forbid(unsafe_code)]

pub mod cost;
mod engine;
pub mod ipc;
pub mod ledger;
pub mod load;
pub mod multicore;
pub mod par;
pub mod program;
pub mod serve;
pub mod topology;
pub mod transport;
pub mod world;

pub use cost::CostModel;
pub use ipc::{amortized_batch_into, EngineCacheStats, IpcSystem};
pub use ledger::{
    Attribution, CycleLedger, Hardening, Invocation, InvokeOpts, LedgerArena, LedgerRef, Phase,
    PhaseTotals,
};
pub use load::{LoadError, LoadGen, LoadReport, SweepScratch};
pub use multicore::{
    Completion, CoreId, CrossCore, MultiWorld, MultiWorldBuilder, Placement, Step, XCoreCost,
};
pub use par::{map_cells, map_cells_on, threads, with_threads, CellScratch};
pub use program::{
    CallProgram, Hop, ProgramError, ProgramId, Recipe, HANDOVER_DESC_BYTES, MAX_PROGRAM_HOPS,
};
pub use serve::{
    Arrival, ArrivalProcess, ArrivalTrace, AutoscaleCfg, AutoscaleReport, OpenLoopGen, ServeError,
    ServePolicy, ServeReport, ServeScratch, ServeSpec, ShedCause, TenantClass, TenantReport,
    TraceDiff,
};
pub use topology::{DistanceMatrix, SocketId, Topology};
pub use world::{World, WorldStats};
