//! Open-loop, trace-driven serving over a [`MultiWorld`]: arrival
//! processes, admission control, per-tenant SLOs, and autoscaling.
//!
//! The windowed generators in [`crate::load`] are *closed* loops: a
//! fixed client roster issues a new request only as an old one completes
//! (plus think time), so the offered load self-throttles exactly when
//! the system saturates — the regime where tail latency explodes is the
//! regime a closed loop refuses to enter. The p99 figures it produces
//! can therefore never show the saturation knee. This module drives the
//! same `MultiWorld`/recipe machinery from an **open** loop:
//!
//! * **arrival processes** — requests arrive at trace-determined virtual
//!   times regardless of completions, modeling millions of logical users
//!   none of whom waits for another. [`OpenLoopGen`] draws either
//!   memoryless Poisson arrivals or a bursty two-state on-off modulated
//!   Poisson process (an MMPP-2: bursts at an accelerated rate separated
//!   by idle gaps, long-run rate preserved), both seeded and
//!   deterministic;
//! * **compact traces** — the generator records into an
//!   [`ArrivalTrace`]: arrival cycles (sorted) × tenant × recipe id,
//!   12 bytes of meaning per arrival and nothing else. Traces are
//!   replayable (same trace ⇒ same [`ServeReport`], byte for byte) and
//!   diffable ([`ArrivalTrace::diff`]); hand-built traces enter through
//!   the same validated constructor;
//! * **admission control** — each tenant owns a bounded queue
//!   ([`TenantClass::queue_cap`] admitted-but-incomplete requests); an
//!   arrival that would overflow it is **shed**, not served and not
//!   panicked over, with the typed [`ShedCause`] accounted per tenant.
//!   An optional global backlog bound sheds arrivals whose serving cores
//!   have fallen more than [`ServeSpec::backlog_cap_cycles`] behind.
//!   Conservation is structural: `admitted + shed == offered`, exactly;
//! * **autoscaling** — [`ServePolicy::Autoscale`] turns placement into a
//!   feedback controller: every epoch it observes the mean backlog over
//!   the active cores and grows or shrinks the active set within
//!   `[min_cores, max_cores]`, dispatching each chain to the
//!   least-loaded active core. Controller activity is reported
//!   ([`AutoscaleReport`]);
//! * **zero per-request allocation** — arrivals replay through the same
//!   [`Attribution`] sinks and scratch buffers as the closed-loop hot
//!   path ([`crate::load::run_windowed_with`]), so 10⁶–10⁷ simulated
//!   requests run at arena speed.
//!
//! The per-request service pricing, queue discipline (FIFO cores in
//! virtual time), and phase attribution are byte-identical to the
//! closed-loop path — only the *issue rule* changes. At offered load far
//! below capacity the two agree on median latency (pinned by tests); as
//! offered load crosses capacity they diverge, and that divergence *is*
//! the knee curve the `serve` experiment plots.

use crate::engine::{self, Trace};
use crate::ipc::EngineCacheStats;
use crate::ledger::{Attribution, CycleLedger, LedgerArena, Phase};
use crate::load::{check_roster, LoadError};
use crate::multicore::{MultiWorld, Placement, Step};
use std::fmt;
use ycsb::rng::Rng;

/// One recorded arrival: when (virtual cycles), who (tenant), what
/// (recipe index into the roster the trace is served against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in virtual cycles (non-decreasing within a trace).
    pub at: u64,
    /// Tenant the request belongs to.
    pub tenant: u32,
    /// Recipe index into the serving roster.
    pub recipe: u32,
}

/// The arrival process an [`OpenLoopGen`] draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals: exponential interarrivals at the
    /// generator's mean rate.
    Poisson,
    /// Bursty two-state on-off modulated Poisson (MMPP-2): bursts of
    /// ~`burst_len` arrivals (uniform in `[1, 2·burst_len − 1]`, so the
    /// mean is `burst_len`) drawn at `accel_x10/10 ×` the mean rate,
    /// separated by idle gaps sized so the *long-run* rate still matches
    /// the generator's mean — same offered load as [`Poisson`], far
    /// worse tail.
    ///
    /// [`Poisson`]: ArrivalProcess::Poisson
    OnOff {
        /// Mean arrivals per burst (≥ 1).
        burst_len: u64,
        /// In-burst rate acceleration, ×10 (must be > 10: bursts are
        /// strictly faster than the long-run mean).
        accel_x10: u64,
    },
}

/// A seeded, deterministic open-loop arrival generator: the recorder
/// side of the generator-to-trace contract. [`OpenLoopGen::trace`]
/// produces the [`ArrivalTrace`] that [`serve`] replays; generating
/// twice with the same spec yields byte-identical traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenLoopGen {
    /// The interarrival process.
    pub process: ArrivalProcess,
    /// Mean interarrival time in cycles (the offered-load knob:
    /// `clock_hz / mean_interarrival_cycles` requests per second).
    pub mean_interarrival_cycles: u64,
    /// Tenants sharing the service (each arrival is tagged with one).
    pub tenants: u32,
    /// Logical user population arrivals are drawn from. Users only
    /// determine tenant tagging (`tenant = user % tenants`) — an open
    /// loop never waits for a user, so millions of users cost nothing.
    pub users: u64,
    /// Seed for interarrival draws, user draws, and recipe picks.
    pub seed: u64,
}

impl OpenLoopGen {
    /// A Poisson generator at `mean_interarrival_cycles`, single tenant,
    /// one million logical users.
    pub fn poisson(mean_interarrival_cycles: u64, seed: u64) -> Self {
        OpenLoopGen {
            process: ArrivalProcess::Poisson,
            mean_interarrival_cycles,
            tenants: 1,
            users: 1_000_000,
            seed,
        }
    }

    /// Draw one exponential interarrival with mean `mean` cycles.
    fn exp_cycles(rng: &mut Rng, mean: f64) -> u64 {
        let u = rng.next_f64();
        // 1 − u ∈ (0, 1], so ln is finite and ≤ 0; |ln(2⁻⁵³)| < 37, so
        // the result is non-negative and at most 37 × mean. An on-off
        // idle gap's mean is `burst_len ×` the interarrival mean, which
        // can exceed u64: the cast then saturates at u64::MAX, and the
        // caller adds gaps with saturating arithmetic.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (-mean * (1.0 - u).ln()) as u64
        }
    }

    /// Record `n` arrivals over a roster of `n_recipes` recipes into a
    /// trace. Deterministic in the spec (same spec ⇒ same trace).
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the spec is degenerate: zero recipes, zero
    /// tenants, zero users, a zero mean interarrival, or an on-off
    /// process whose burst acceleration is not strictly faster than the
    /// long-run rate or whose `burst_len` is 2⁶³ or more (burst sizes are
    /// drawn from `[1, 2·burst_len − 1]`).
    ///
    /// # Panics
    ///
    /// Panics when `n` arrivals do not fit in memory (the trace is
    /// allocated up front).
    pub fn trace(&self, n: u64, n_recipes: u32) -> Result<ArrivalTrace, ServeError> {
        if n_recipes == 0 {
            return Err(ServeError::Load(LoadError::EmptyRecipes));
        }
        if self.tenants == 0 {
            return Err(ServeError::NoTenants);
        }
        if self.users == 0 {
            return Err(ServeError::NoUsers);
        }
        if self.mean_interarrival_cycles == 0 {
            return Err(ServeError::ZeroMeanInterarrival);
        }
        let mean = self.mean_interarrival_cycles as f64;
        let (burst_len, accel_x10) = match self.process {
            ArrivalProcess::Poisson => (0, 0),
            ArrivalProcess::OnOff {
                burst_len,
                accel_x10,
            } => {
                // Burst sizes are drawn from [1, 2·burst_len − 1].
                if burst_len == 0 || burst_len.checked_mul(2).is_none() || accel_x10 <= 10 {
                    return Err(ServeError::BadBurstSpec {
                        burst_len,
                        accel_x10,
                    });
                }
                (burst_len, accel_x10)
            }
        };
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut arrivals = Vec::with_capacity(usize::try_from(n).expect("trace length fits usize"));
        let mut t = 0u64;
        // On-off state: arrivals left in the current burst (0 in the
        // Poisson case means "not modulated").
        let mut left_in_burst = 0u64;
        for _ in 0..n {
            let gap = match self.process {
                ArrivalProcess::Poisson => Self::exp_cycles(&mut rng, mean),
                ArrivalProcess::OnOff { .. } => {
                    let mean_on = mean * 10.0 / accel_x10 as f64;
                    if left_in_burst == 0 {
                        // New burst: size uniform in [1, 2L−1] (mean L),
                        // preceded by an idle gap sized to restore the
                        // long-run mean rate over the whole cycle.
                        left_in_burst = 1 + rng.below(2 * burst_len - 1);
                        let gap_mean = burst_len as f64 * (mean - mean_on);
                        Self::exp_cycles(&mut rng, gap_mean)
                            .saturating_add(Self::exp_cycles(&mut rng, mean_on))
                    } else {
                        Self::exp_cycles(&mut rng, mean_on)
                    }
                }
            };
            if let ArrivalProcess::OnOff { .. } = self.process {
                left_in_burst -= 1;
            }
            t = t.saturating_add(gap);
            let user = rng.below(self.users);
            let tenant = u32::try_from(user % u64::from(self.tenants)).expect("tenant fits u32");
            let recipe =
                u32::try_from(rng.below(u64::from(n_recipes))).expect("recipe index fits u32");
            arrivals.push(Arrival {
                at: t,
                tenant,
                recipe,
            });
        }
        // Sorted by construction (cumulative time): the validated
        // constructor is still the single entry point.
        ArrivalTrace::from_arrivals(arrivals)
    }
}

/// First divergence between two traces ([`ArrivalTrace::diff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDiff {
    /// Index of the first differing arrival.
    pub index: usize,
    /// Our arrival at that index ([`None`] when we are shorter).
    pub ours: Option<Arrival>,
    /// Their arrival at that index ([`None`] when they are shorter).
    pub theirs: Option<Arrival>,
}

/// A compact, replayable open-loop trace: arrivals sorted by time.
///
/// The only constructor validates ordering, so every `ArrivalTrace` in
/// the program is sorted — [`serve`] can rely on it without re-checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    /// Wrap pre-built arrivals, validating that arrival times are
    /// non-decreasing.
    ///
    /// # Errors
    ///
    /// [`ServeError::TraceNotSorted`] naming the first out-of-order
    /// index.
    pub fn from_arrivals(arrivals: Vec<Arrival>) -> Result<Self, ServeError> {
        if let Some(i) = arrivals.windows(2).position(|w| w[1].at < w[0].at) {
            return Err(ServeError::TraceNotSorted { index: i + 1 });
        }
        Ok(ArrivalTrace { arrivals })
    }

    /// The recorded arrivals, in time order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals (the offered load of a [`serve`] run).
    pub(crate) fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Virtual-time span from 0 to the last arrival.
    pub(crate) fn span_cycles(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.at)
    }

    /// First divergence against another trace ([`None`] when equal):
    /// the diffable half of the generator-to-trace contract, for
    /// pinpointing where two supposedly identical traces part ways.
    pub fn diff(&self, other: &ArrivalTrace) -> Option<TraceDiff> {
        let n = self.arrivals.len().max(other.arrivals.len());
        (0..n).find_map(|i| {
            let ours = self.arrivals.get(i).copied();
            let theirs = other.arrivals.get(i).copied();
            (ours != theirs).then_some(TraceDiff {
                index: i,
                ours,
                theirs,
            })
        })
    }
}

/// Admission and SLO parameters of one tenant class.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Bounded-queue depth: the most admitted-but-incomplete requests
    /// the tenant may hold. An arrival beyond it is shed with
    /// [`ShedCause::TenantQueueFull`].
    pub queue_cap: usize,
    /// The tenant's p99 latency target in microseconds (reported as
    /// met/missed per tenant, never enforced by shedding).
    pub slo_p99_us: f64,
}

impl Default for TenantClass {
    fn default() -> Self {
        TenantClass {
            queue_cap: 1024,
            slo_p99_us: f64::INFINITY,
        }
    }
}

/// Serving parameters: tenancy, admission bounds, SLO targets.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Tenants the trace may reference (`Arrival::tenant < tenants`).
    pub tenants: u32,
    /// Tenant classes; tenant `t` is governed by `classes[t % len]`.
    pub classes: Vec<TenantClass>,
    /// Global backlog bound in cycles (0 = unbounded): an arrival whose
    /// serving cores have fallen further than this behind virtual time
    /// is shed with [`ShedCause::CoreBacklog`] instead of joining a
    /// queue it would wait that long in.
    pub backlog_cap_cycles: u64,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            tenants: 1,
            classes: vec![TenantClass::default()],
            backlog_cap_cycles: 0,
        }
    }
}

impl ServeSpec {
    /// The class governing `tenant`.
    pub(crate) fn class_of(&self, tenant: u32) -> &TenantClass {
        &self.classes[tenant as usize % self.classes.len()]
    }
}

/// Why an arrival was shed instead of admitted. Shedding is an
/// accounted outcome, not an error: the report carries per-tenant
/// counts per cause, and `admitted + shed == offered` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The tenant's bounded admission queue was full.
    TenantQueueFull,
    /// The serving cores' backlog exceeded
    /// [`ServeSpec::backlog_cap_cycles`].
    CoreBacklog,
}

/// The autoscale feedback controller's configuration
/// ([`ServePolicy::Autoscale`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoscaleCfg {
    /// Fewest cores the active set may shrink to (≥ 1).
    pub min_cores: usize,
    /// Most cores the active set may grow to (clamped to the world).
    pub max_cores: usize,
    /// Arrivals between controller decisions.
    pub epoch_arrivals: u64,
    /// Grow when the mean backlog over active cores exceeds this.
    pub grow_backlog_cycles: u64,
    /// Shrink when the mean backlog falls below this (must be below the
    /// grow threshold — the dead band between them prevents flapping).
    pub shrink_backlog_cycles: u64,
}

impl Default for AutoscaleCfg {
    fn default() -> Self {
        AutoscaleCfg {
            min_cores: 1,
            max_cores: usize::MAX,
            epoch_arrivals: 64,
            grow_backlog_cycles: 50_000,
            shrink_backlog_cycles: 5_000,
        }
    }
}

/// How [`serve`] places each admitted chain.
#[derive(Debug, Clone, PartialEq)]
pub enum ServePolicy {
    /// A fixed [`Placement`] policy, per arrival index — the same
    /// policies the closed-loop grids sweep.
    Static(Placement),
    /// The feedback controller: dispatch each chain to the least-loaded
    /// *active* core, and every epoch grow/shrink the active set as the
    /// observed mean backlog crosses the configured thresholds.
    Autoscale(AutoscaleCfg),
}

impl ServePolicy {
    /// Stable label for tables and JSON dumps.
    pub(crate) fn label(&self) -> String {
        match self {
            ServePolicy::Static(p) => format!("static:{}", p.label()),
            ServePolicy::Autoscale(_) => "autoscale".to_string(),
        }
    }
}

/// What the autoscale controller did over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleReport {
    /// Times the active set grew by one core.
    pub grow_events: u64,
    /// Times it shrank by one core.
    pub shrink_events: u64,
    /// Smallest active set observed.
    pub min_active: usize,
    /// Largest active set observed.
    pub max_active: usize,
    /// Active cores when the trace ended.
    pub final_active: usize,
}

/// Per-tenant serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: u32,
    /// Arrivals addressed to this tenant.
    pub offered: u64,
    /// Arrivals admitted and served.
    pub admitted: u64,
    /// Arrivals shed because the tenant queue was full.
    pub shed_queue_full: u64,
    /// Arrivals shed because the cores' backlog exceeded the bound.
    pub shed_backlog: u64,
    /// Median admitted-request latency (µs).
    pub p50_us: f64,
    /// 99th-percentile admitted-request latency (µs).
    pub p99_us: f64,
    /// The tenant's SLO target (µs).
    pub slo_p99_us: f64,
    /// Whether observed p99 met the target.
    pub slo_met: bool,
}

impl TenantReport {
    /// Shed arrivals over all causes.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_backlog
    }
}

/// The outcome of one open-loop serve run. All quantities derive from
/// virtual time and merged invocation ledgers; same trace + same spec ⇒
/// byte-identical report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// IPC system under test.
    pub system: String,
    /// Policy label (`ServePolicy::label`).
    pub policy: String,
    /// Cores in the world.
    pub cores: usize,
    /// Arrivals in the trace (the offered load).
    pub offered: u64,
    /// Arrivals admitted (and, in virtual time, completed).
    pub admitted: u64,
    /// Arrivals shed over all tenants: queue-full cause.
    pub shed_queue_full: u64,
    /// Arrivals shed over all tenants: backlog cause.
    pub shed_backlog: u64,
    /// IPC invocations issued by admitted requests.
    pub ipc_calls: u64,
    /// Virtual time of the last completion (0 if nothing was admitted).
    pub makespan_cycles: u64,
    /// Busy cycles summed over cores.
    pub busy_cycles: u64,
    /// Offered arrival rate over the trace span (requests/second of
    /// virtual time).
    pub offered_rps: f64,
    /// Admitted completions per second of virtual makespan.
    pub goodput_rps: f64,
    /// Mean admitted-request latency (µs).
    pub mean_us: f64,
    /// Median admitted-request latency (µs).
    pub p50_us: f64,
    /// 95th-percentile admitted-request latency (µs).
    pub p95_us: f64,
    /// 99th-percentile admitted-request latency (µs).
    pub p99_us: f64,
    /// Worst admitted-request latency (µs).
    pub max_us: f64,
    /// Phase ledger merged over every admitted request (queue waiting
    /// attributed to [`Phase::Queue`]).
    pub ledger: CycleLedger,
    /// Per-tenant outcomes, tenant order.
    pub tenants: Vec<TenantReport>,
    /// Controller activity ([`None`] under a static policy).
    pub autoscale: Option<AutoscaleReport>,
    /// Engine-cache counters summed over cores, for systems that model
    /// one.
    pub engine_cache: Option<EngineCacheStats>,
}

impl ServeReport {
    /// Shed arrivals over all tenants and causes.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_backlog
    }

    /// Fraction of offered arrivals shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }

    /// Fraction of all ledger cycles that were queue waiting.
    pub fn queue_fraction(&self) -> f64 {
        let total = self.ledger.total();
        if total == 0 {
            0.0
        } else {
            self.ledger.get(Phase::Queue) as f64 / total as f64
        }
    }
}

/// A serve run was asked to do something structurally impossible —
/// distinct from shedding, which is a priced outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// A load-layer precondition failed (empty roster, a step naming a
    /// service or program out of range, placement).
    Load(LoadError),
    /// The trace has no arrivals.
    EmptyTrace,
    /// Arrival times regress at this index.
    TraceNotSorted {
        /// Index of the first arrival earlier than its predecessor.
        index: usize,
    },
    /// An arrival names a recipe outside the roster.
    RecipeOutOfRange {
        /// Offending arrival index.
        index: usize,
        /// The recipe id it named.
        recipe: u32,
        /// Roster size.
        n_recipes: usize,
    },
    /// An arrival names a tenant outside the spec.
    TenantOutOfRange {
        /// Offending arrival index.
        index: usize,
        /// The tenant it named.
        tenant: u32,
        /// Tenants the spec covers.
        tenants: u32,
    },
    /// The spec has zero tenants.
    NoTenants,
    /// The generator has zero logical users.
    NoUsers,
    /// The generator's mean interarrival is zero.
    ZeroMeanInterarrival,
    /// An on-off process with no burst, no acceleration, or a burst
    /// length of 2⁶³ or more.
    BadBurstSpec {
        /// Configured mean burst length.
        burst_len: u64,
        /// Configured acceleration ×10.
        accel_x10: u64,
    },
    /// The spec lists no tenant classes.
    NoTenantClasses,
    /// A tenant class with a zero queue cap can never admit anything.
    ZeroQueueCap,
    /// An autoscale configuration that cannot act.
    BadAutoscale {
        /// What is wrong with it.
        why: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Load(e) => write!(f, "{e}"),
            ServeError::EmptyTrace => write!(f, "empty arrival trace: nothing to serve"),
            ServeError::TraceNotSorted { index } => {
                write!(f, "trace arrival {index} is earlier than its predecessor")
            }
            ServeError::RecipeOutOfRange {
                index,
                recipe,
                n_recipes,
            } => write!(
                f,
                "arrival {index} names recipe {recipe} of a {n_recipes}-recipe roster"
            ),
            ServeError::TenantOutOfRange {
                index,
                tenant,
                tenants,
            } => write!(
                f,
                "arrival {index} names tenant {tenant} of a {tenants}-tenant spec"
            ),
            ServeError::NoTenants => write!(f, "spec has zero tenants"),
            ServeError::NoUsers => write!(f, "generator has zero logical users"),
            ServeError::ZeroMeanInterarrival => {
                write!(f, "zero mean interarrival: infinite offered load")
            }
            ServeError::BadBurstSpec {
                burst_len,
                accel_x10,
            } => write!(
                f,
                "on-off process needs burst_len >= 1 and accel_x10 > 10 \
                 (got burst_len {burst_len}, accel_x10 {accel_x10})"
            ),
            ServeError::NoTenantClasses => write!(f, "spec lists no tenant classes"),
            ServeError::ZeroQueueCap => {
                write!(f, "a tenant class with queue_cap 0 can never admit")
            }
            ServeError::BadAutoscale { why } => write!(f, "autoscale config: {why}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoadError> for ServeError {
    fn from(e: LoadError) -> Self {
        ServeError::Load(e)
    }
}

/// The engine's scratch buffers under the name open-loop callers
/// thread through [`serve_with`].
pub type ServeScratch = crate::engine::SweepScratch;

/// Replay `trace` through `mw` under `policy` and `spec` with fresh
/// scratch and full span attribution. Convenience wrapper over
/// [`serve_with`].
///
/// # Errors
///
/// See [`serve_with`].
pub fn serve(
    mw: &mut MultiWorld,
    policy: &ServePolicy,
    n_services: usize,
    recipes: &[Vec<Step>],
    trace: &ArrivalTrace,
    spec: &ServeSpec,
) -> Result<ServeReport, ServeError> {
    let mut scratch = ServeScratch::new();
    let mut arena = LedgerArena::new();
    serve_with(
        mw,
        policy,
        n_services,
        recipes,
        trace,
        spec,
        &mut scratch,
        Attribution::Full(&mut arena),
    )
}

/// Replay an [`ArrivalTrace`] through a [`MultiWorld`]: the open-loop
/// serving engine.
///
/// Arrivals are processed in trace order. Each is either **admitted**
/// (its recipe priced through the same [`Attribution`] sinks as the
/// closed-loop hot path, queueing attributed to [`Phase::Queue`]) or
/// **shed** with a typed [`ShedCause`]; the report conserves arrivals
/// exactly (`admitted + shed == offered`). Same trace + same spec ⇒
/// byte-identical [`ServeReport`].
///
/// # Errors
///
/// [`ServeError`] when the roster is empty or names a service or program
/// out of range ([`ServeError::Load`]), the trace is empty or
/// references tenants/recipes outside bounds, a tenant class can never
/// admit, the autoscale configuration cannot act, or placement rejects
/// a map — all structural problems, reported before (or instead of)
/// pricing anything. Shed arrivals are *not* errors.
#[allow(clippy::too_many_arguments)] // the sweep axes are the signature
pub fn serve_with(
    mw: &mut MultiWorld,
    policy: &ServePolicy,
    n_services: usize,
    recipes: &[Vec<Step>],
    trace: &ArrivalTrace,
    spec: &ServeSpec,
    scratch: &mut ServeScratch,
    att: Attribution<'_>,
) -> Result<ServeReport, ServeError> {
    if recipes.is_empty() {
        return Err(ServeError::Load(LoadError::EmptyRecipes));
    }
    if trace.is_empty() {
        return Err(ServeError::EmptyTrace);
    }
    if spec.tenants == 0 {
        return Err(ServeError::NoTenants);
    }
    if spec.classes.is_empty() {
        return Err(ServeError::NoTenantClasses);
    }
    if spec.classes.iter().any(|c| c.queue_cap == 0) {
        return Err(ServeError::ZeroQueueCap);
    }
    check_roster(mw, n_services, recipes)?;
    let mut src = Trace::new(
        policy,
        n_services,
        recipes.len(),
        trace,
        spec,
        mw.n_cores(),
        scratch,
    )?;
    let out = engine::run(mw, recipes, &mut src, scratch, att)?;
    for (tn, t) in src.tenants.iter_mut().enumerate() {
        let tail = scratch.owner_tail(tn, out.clock_hz);
        (t.p50_us, t.p99_us) = (tail.p50_us, tail.p99_us);
        t.slo_met = t.p99_us <= t.slo_p99_us;
    }
    let offered = trace.len() as u64;
    Ok(ServeReport {
        goodput_rps: out.per_second(out.priced),
        system: out.system,
        policy: policy.label(),
        cores: out.cores,
        offered,
        admitted: out.priced,
        shed_queue_full: src.tenants.iter().map(|t| t.shed_queue_full).sum(),
        shed_backlog: src.tenants.iter().map(|t| t.shed_backlog).sum(),
        ipc_calls: out.ipc_calls,
        makespan_cycles: out.makespan_cycles,
        busy_cycles: out.busy_cycles,
        offered_rps: offered as f64 * out.clock_hz as f64 / trace.span_cycles().max(1) as f64,
        mean_us: out.tail.mean_us,
        p50_us: out.tail.p50_us,
        p95_us: out.tail.p95_us,
        p99_us: out.tail.p99_us,
        max_us: out.tail.max_us,
        ledger: out.ledger,
        autoscale: src.autoscale(),
        tenants: src.tenants,
        engine_cache: out.engine_cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipc::IpcSystem;
    use crate::ledger::{InvokeOpts, PhaseTotals};
    use crate::topology::Topology;

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

    fn mw(n: usize) -> MultiWorld {
        MultiWorld::builder()
            .topology(Topology::single_socket(n))
            .build(|| Box::new(Fixed))
    }

    fn recipe() -> Vec<Step> {
        vec![
            Step::Oneway {
                from: 0,
                to: 1,
                bytes: 64,
            },
            Step::Compute {
                at: 1,
                cycles: 1_000,
            },
            Step::Oneway {
                from: 1,
                to: 0,
                bytes: 256,
            },
        ]
    }

    fn gen(mean: u64) -> OpenLoopGen {
        OpenLoopGen {
            process: ArrivalProcess::Poisson,
            mean_interarrival_cycles: mean,
            tenants: 2,
            users: 1_000_000,
            seed: 0xfeed,
        }
    }

    #[test]
    fn generator_is_deterministic_and_traces_diff_cleanly() {
        let a = gen(5_000).trace(500, 1).unwrap();
        let b = gen(5_000).trace(500, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.diff(&b), None);
        let c = OpenLoopGen {
            seed: 0xbeef,
            ..gen(5_000)
        }
        .trace(500, 1)
        .unwrap();
        let d = a.diff(&c).expect("different seeds diverge");
        assert_eq!(d.index, 0);
        assert!(d.ours.is_some() && d.theirs.is_some());
        // Length mismatches surface as a one-sided diff.
        let short = gen(5_000).trace(100, 1).unwrap();
        let d = a.diff(&short).expect("length mismatch diverges");
        assert_eq!(d.index, 100);
        assert!(d.theirs.is_none());
    }

    #[test]
    fn traces_are_sorted_and_tag_in_range() {
        let tr = gen(2_000).trace(2_000, 3).unwrap();
        assert_eq!(tr.len(), 2_000);
        for w in tr.arrivals().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(tr.arrivals().iter().all(|a| a.tenant < 2 && a.recipe < 3));
        // Both tenants and all recipes actually occur.
        for tn in 0..2u32 {
            assert!(tr.arrivals().iter().any(|a| a.tenant == tn));
        }
        for rc in 0..3u32 {
            assert!(tr.arrivals().iter().any(|a| a.recipe == rc));
        }
    }

    #[test]
    fn poisson_mean_interarrival_lands_near_the_spec() {
        let mean = 10_000u64;
        let n = 20_000u64;
        let tr = gen(mean).trace(n, 1).unwrap();
        let measured = tr.span_cycles() as f64 / n as f64;
        let err = (measured - mean as f64).abs() / mean as f64;
        assert!(
            err < 0.05,
            "measured mean {measured:.0} vs {mean} ({err:.3})"
        );
    }

    #[test]
    fn onoff_preserves_the_long_run_rate_but_clusters() {
        let mean = 10_000u64;
        let n = 20_000u64;
        let spec = OpenLoopGen {
            process: ArrivalProcess::OnOff {
                burst_len: 32,
                accel_x10: 80,
            },
            ..gen(mean)
        };
        let tr = spec.trace(n, 1).unwrap();
        let measured = tr.span_cycles() as f64 / n as f64;
        let err = (measured - mean as f64).abs() / mean as f64;
        assert!(
            err < 0.10,
            "long-run mean {measured:.0} vs {mean} ({err:.3})"
        );
        // Burstiness: the median gap is far below the mean gap (most
        // gaps are in-burst at 8x the rate).
        let mut gaps: Vec<u64> = tr
            .arrivals()
            .windows(2)
            .map(|w| w[1].at - w[0].at)
            .collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        assert!(
            (median as f64) < 0.4 * mean as f64,
            "median gap {median} vs mean {mean}"
        );
    }

    #[test]
    fn trace_constructor_rejects_regressions() {
        let bad = vec![
            Arrival {
                at: 10,
                tenant: 0,
                recipe: 0,
            },
            Arrival {
                at: 5,
                tenant: 0,
                recipe: 0,
            },
        ];
        assert_eq!(
            ArrivalTrace::from_arrivals(bad).unwrap_err(),
            ServeError::TraceNotSorted { index: 1 }
        );
    }

    #[test]
    fn generator_spec_errors_are_typed() {
        assert_eq!(
            gen(0).trace(10, 1).unwrap_err(),
            ServeError::ZeroMeanInterarrival
        );
        assert_eq!(
            gen(100).trace(10, 0).unwrap_err(),
            ServeError::Load(LoadError::EmptyRecipes)
        );
        let bad = OpenLoopGen {
            process: ArrivalProcess::OnOff {
                burst_len: 8,
                accel_x10: 10,
            },
            ..gen(100)
        };
        assert!(matches!(
            bad.trace(10, 1).unwrap_err(),
            ServeError::BadBurstSpec { .. }
        ));
        // 2·burst_len overflows u64.
        let huge_burst = OpenLoopGen {
            process: ArrivalProcess::OnOff {
                burst_len: u64::MAX,
                accel_x10: 20,
            },
            ..gen(100)
        };
        assert_eq!(
            huge_burst.trace(10, 1).unwrap_err(),
            ServeError::BadBurstSpec {
                burst_len: u64::MAX,
                accel_x10: 20,
            }
        );
        // An idle-gap mean of 100 × 10^18 cycles: the gap draws saturate
        // instead of overflowing, and time never runs backwards.
        let long_gaps = OpenLoopGen {
            process: ArrivalProcess::OnOff {
                burst_len: 100,
                accel_x10: 20,
            },
            ..gen(1_000_000_000_000_000_000)
        };
        let tr = long_gaps.trace(300, 1).unwrap();
        assert_eq!(tr.arrivals().len(), 300);
        assert!(tr.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
    }

    fn spec2() -> ServeSpec {
        ServeSpec {
            tenants: 2,
            classes: vec![TenantClass {
                queue_cap: 64,
                slo_p99_us: f64::INFINITY,
            }],
            backlog_cap_cycles: 0,
        }
    }

    #[test]
    fn same_trace_same_spec_is_byte_identical() {
        let tr = gen(3_000).trace(2_000, 1).unwrap();
        let run_once = || {
            let mut mw = mw(2);
            serve(
                &mut mw,
                &ServePolicy::Static(Placement::RoundRobin),
                2,
                &[recipe()],
                &tr,
                &spec2(),
            )
            .unwrap()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn zero_call_batches_in_a_recipe_price_as_nothing() {
        // `calls: 0` in a caller-supplied recipe used to panic inside the
        // batch pricing; the open loop serves it as an empty step.
        let mut with_empty = recipe();
        with_empty.insert(
            0,
            Step::Batch {
                from: 0,
                to: 1,
                calls: 0,
                bytes_each: 64,
            },
        );
        let tr = gen(3_000).trace(500, 1).unwrap();
        let mut scratch = ServeScratch::new();
        let mut arena = LedgerArena::new();
        let mut go = |recipe: Vec<Step>| {
            serve_with(
                &mut mw(2),
                &ServePolicy::Static(Placement::RoundRobin),
                2,
                &[recipe],
                &tr,
                &spec2(),
                &mut scratch,
                Attribution::Full(&mut arena),
            )
            .unwrap()
        };
        let r = go(with_empty);
        assert_eq!(r.ipc_calls, 2 * r.admitted, "the empty burst made no calls");
        assert_eq!(r, go(recipe()));
    }

    #[test]
    fn conservation_is_exact_globally_and_per_tenant() {
        // Overload a single core so both shed causes fire.
        let tr = gen(200).trace(5_000, 1).unwrap();
        let spec = ServeSpec {
            tenants: 2,
            classes: vec![
                TenantClass {
                    queue_cap: 4,
                    slo_p99_us: 50.0,
                },
                TenantClass {
                    queue_cap: 32,
                    slo_p99_us: f64::INFINITY,
                },
            ],
            backlog_cap_cycles: 60_000,
        };
        let mut mw = mw(1);
        let r = serve(
            &mut mw,
            &ServePolicy::Static(Placement::SameCore),
            2,
            &[recipe()],
            &tr,
            &spec,
        )
        .unwrap();
        assert_eq!(r.offered, 5_000);
        assert_eq!(r.admitted + r.shed(), r.offered, "exact conservation");
        assert!(r.shed_queue_full > 0, "tight caps must shed");
        let mut offered_sum = 0;
        for t in &r.tenants {
            assert_eq!(t.admitted + t.shed(), t.offered, "tenant {}", t.tenant);
            offered_sum += t.offered;
        }
        assert_eq!(offered_sum, r.offered);
        // The tight-cap tenant sheds more than the loose-cap tenant.
        assert!(r.tenants[0].shed_queue_full > r.tenants[1].shed_queue_full);
    }

    #[test]
    fn open_loop_tail_diverges_past_the_knee() {
        // Service time is ~1.4k cycles on one serving core; offered
        // interarrivals of 4x that are easy, 0.7x collapse the queue.
        let mk_report = |mean: u64| {
            let tr = gen(mean).trace(4_000, 1).unwrap();
            let mut mw = mw(2);
            serve(
                &mut mw,
                &ServePolicy::Static(Placement::SameCore),
                2,
                &[recipe()],
                &tr,
                &spec2(),
            )
            .unwrap()
        };
        let light = mk_report(6_000);
        let heavy = mk_report(1_000);
        assert!(
            heavy.p99_us > 5.0 * light.p99_us,
            "open-loop overload must blow the tail: light {} heavy {}",
            light.p99_us,
            heavy.p99_us
        );
        assert!(heavy.ledger.get(Phase::Queue) > light.ledger.get(Phase::Queue));
        // Queueing, not sheds: the default cap is generous.
        assert_eq!(light.shed(), 0);
    }

    #[test]
    fn sampled_attribution_matches_full_totals() {
        let tr = gen(2_500).trace(3_000, 1).unwrap();
        let policy = ServePolicy::Static(Placement::RoundRobin);
        let mut full_mw = mw(2);
        let full = serve(&mut full_mw, &policy, 2, &[recipe()], &tr, &spec2()).unwrap();
        let mut totals = PhaseTotals::new();
        let mut kept = LedgerArena::new();
        let mut scratch = ServeScratch::new();
        let mut sampled_mw = mw(2);
        let sampled = serve_with(
            &mut sampled_mw,
            &policy,
            2,
            &[recipe()],
            &tr,
            &spec2(),
            &mut scratch,
            Attribution::Sampled {
                every: 16,
                totals: &mut totals,
                arena: &mut kept,
            },
        )
        .unwrap();
        for p in Phase::ALL {
            assert_eq!(sampled.ledger.get(p), full.ledger.get(p), "{p:?}");
        }
        assert_eq!(sampled.p99_us, full.p99_us);
        assert_eq!(sampled.admitted, full.admitted);
        assert_eq!(kept.len() as u64, sampled.admitted.div_ceil(16));
    }

    #[test]
    fn autoscaler_grows_under_load_and_shrinks_when_idle() {
        // Phase 1: a hot burst; phase 2: a long idle tail. The
        // controller must grow beyond min_cores during the burst and
        // shrink back by the end.
        let hot = gen(400).trace(4_000, 1).unwrap();
        let mut arrivals = hot.arrivals().to_vec();
        let t0 = arrivals.last().unwrap().at;
        // Sparse tail: one arrival every 50k cycles, long enough for
        // the epoch cadence to walk the active set back down.
        for k in 0..500u64 {
            arrivals.push(Arrival {
                at: t0 + (k + 1) * 50_000,
                tenant: 0,
                recipe: 0,
            });
        }
        let tr = ArrivalTrace::from_arrivals(arrivals).unwrap();
        let cfg = AutoscaleCfg {
            min_cores: 1,
            max_cores: 4,
            epoch_arrivals: 64,
            grow_backlog_cycles: 10_000,
            shrink_backlog_cycles: 2_000,
        };
        let mut world = mw(4);
        let r = serve(
            &mut world,
            &ServePolicy::Autoscale(cfg),
            2,
            &[recipe()],
            &tr,
            &spec2(),
        )
        .unwrap();
        let auto = r.autoscale.expect("autoscale policy reports controller");
        assert!(auto.grow_events > 0, "burst must grow the active set");
        assert!(auto.shrink_events > 0, "idle tail must shrink it");
        assert!(auto.max_active > 1);
        assert_eq!(auto.final_active, 1, "idle tail returns to min_cores");
        assert_eq!(r.policy, "autoscale");
    }

    #[test]
    fn autoscale_growth_beats_a_capacity_capped_controller() {
        // Identical dispatch, identical trace, identical thresholds —
        // the only difference is whether the controller may grow past
        // one core. At an offered load one core cannot sustain, growth
        // is the difference between a bounded tail and collapse.
        let tr = gen(1_200).trace(6_000, 1).unwrap();
        let spec = ServeSpec {
            tenants: 2,
            classes: vec![TenantClass {
                queue_cap: 8_192,
                slo_p99_us: f64::INFINITY,
            }],
            backlog_cap_cycles: 0,
        };
        let run = |max_cores: usize| {
            let cfg = AutoscaleCfg {
                min_cores: 1,
                max_cores,
                epoch_arrivals: 32,
                grow_backlog_cycles: 10_000,
                shrink_backlog_cycles: 1_000,
            };
            let mut world = mw(4);
            serve(
                &mut world,
                &ServePolicy::Autoscale(cfg),
                2,
                &[recipe()],
                &tr,
                &spec,
            )
            .unwrap()
        };
        let capped = run(1);
        let scaled = run(4);
        assert_eq!(capped.autoscale.unwrap().max_active, 1);
        assert!(scaled.autoscale.unwrap().grow_events > 0);
        assert!(
            scaled.p99_us < capped.p99_us / 10.0,
            "scaled {} vs capped {}",
            scaled.p99_us,
            capped.p99_us
        );
    }

    #[test]
    fn structural_errors_are_typed() {
        let tr = gen(1_000).trace(100, 1).unwrap();
        let policy = ServePolicy::Static(Placement::RoundRobin);
        let mut world = mw(2);
        // Empty roster.
        assert_eq!(
            serve(&mut world, &policy, 2, &[], &tr, &spec2()).unwrap_err(),
            ServeError::Load(LoadError::EmptyRecipes)
        );
        // Empty trace.
        let empty = ArrivalTrace::from_arrivals(vec![]).unwrap();
        assert_eq!(
            serve(&mut world, &policy, 2, &[recipe()], &empty, &spec2()).unwrap_err(),
            ServeError::EmptyTrace
        );
        // Recipe out of range: the trace names recipe 1 of a 1-roster.
        let bad = gen(1_000).trace(100, 2).unwrap();
        assert!(matches!(
            serve(&mut world, &policy, 2, &[recipe()], &bad, &spec2()).unwrap_err(),
            ServeError::RecipeOutOfRange { .. }
        ));
        // Tenant out of range: 2-tenant trace, 1-tenant spec.
        let spec1 = ServeSpec {
            tenants: 1,
            ..spec2()
        };
        assert!(matches!(
            serve(&mut world, &policy, 2, &[recipe()], &tr, &spec1).unwrap_err(),
            ServeError::TenantOutOfRange { .. }
        ));
        // Zero queue cap can never admit.
        let cap0 = ServeSpec {
            classes: vec![TenantClass {
                queue_cap: 0,
                slo_p99_us: 1.0,
            }],
            ..spec2()
        };
        assert_eq!(
            serve(&mut world, &policy, 2, &[recipe()], &tr, &cap0).unwrap_err(),
            ServeError::ZeroQueueCap
        );
        // Autoscale config that cannot act.
        let bad_auto = ServePolicy::Autoscale(AutoscaleCfg {
            grow_backlog_cycles: 100,
            shrink_backlog_cycles: 100,
            ..AutoscaleCfg::default()
        });
        assert!(matches!(
            serve(&mut world, &bad_auto, 2, &[recipe()], &tr, &spec2()).unwrap_err(),
            ServeError::BadAutoscale { .. }
        ));
    }

    #[test]
    fn slo_verdicts_follow_the_observed_tail() {
        let tr = gen(4_000).trace(2_000, 1).unwrap();
        let spec = ServeSpec {
            tenants: 2,
            classes: vec![
                TenantClass {
                    queue_cap: 64,
                    slo_p99_us: 1e9, // unmissable
                },
                TenantClass {
                    queue_cap: 64,
                    slo_p99_us: 0.0, // unmeetable (service time > 0)
                },
            ],
            backlog_cap_cycles: 0,
        };
        let mut world = mw(2);
        let r = serve(
            &mut world,
            &ServePolicy::Static(Placement::RoundRobin),
            2,
            &[recipe()],
            &tr,
            &spec,
        )
        .unwrap();
        assert!(r.tenants[0].slo_met);
        assert!(!r.tenants[1].slo_met);
    }

    #[test]
    fn serve_scratch_reuse_matches_fresh_scratch() {
        let big = gen(300).trace(4_000, 1).unwrap();
        let small = gen(4_000).trace(500, 1).unwrap();
        let policy = ServePolicy::Static(Placement::RoundRobin);
        let mut scratch = ServeScratch::new();
        let mut arena = LedgerArena::new();
        let mut w1 = mw(2);
        let _ = serve_with(
            &mut w1,
            &policy,
            2,
            &[recipe()],
            &big,
            &spec2(),
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        let mut w2 = mw(2);
        let reused = serve_with(
            &mut w2,
            &policy,
            2,
            &[recipe()],
            &small,
            &spec2(),
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        let mut w3 = mw(2);
        let fresh = serve(&mut w3, &policy, 2, &[recipe()], &small, &spec2()).unwrap();
        assert_eq!(reused, fresh, "reused serve scratch must not leak state");
    }
}
