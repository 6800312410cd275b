//! The one request engine behind [`crate::load`] and [`crate::serve`].
//!
//! Every request, whoever issued it, takes the same path: the engine
//! takes the next [`Issue`] from a [`Source`], lets the source place it
//! (or shed it), replays the [`Plan`] its recipe and core map were
//! priced into once per run, records its wait and latency, and pushes
//! its completion into the owner's bounded heap of outstanding requests.
//! After the last request, [`run`] folds the run's attribution from the
//! plans and reduces the latency sample to mean / p50 / p95 / p99 / max;
//! a run that errs attributes nothing. The two sources differ in exactly
//! two rules:
//!
//! * [`Clients`] (closed loop) — *issue rule:* a client's next issue is
//!   triggered by its own completion (+ think time), the recipe drawn
//!   from the seeded RNG; *a full owner heap means* the client **waits**
//!   for its earliest outstanding completion.
//! * [`Trace`] (open loop) — *issue rule:* the next
//!   [`Arrival`] of an [`ArrivalTrace`], whatever has completed; *a full
//!   owner heap means* the tenant **sheds** the arrival.
//!
//! The backlog cap and the autoscale controller are [`Trace`]'s
//! pre-price hook. The engine is monomorphised over the source, so the
//! per-request path stays allocation-free and one call deep.

use crate::ipc::EngineCacheStats;
use crate::ledger::{Attribution, CycleLedger, Phase};
use crate::load::{LoadError, LoadGen};
use crate::multicore::{CoreId, MultiWorld, Placement, Replay, Space, Step};
use crate::serve::{
    Arrival, ArrivalTrace, AutoscaleCfg, AutoscaleReport, ServeError, ServePolicy, ServeSpec,
    TenantReport,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ycsb::rng::Rng;

/// Reusable buffers for an engine run, meant to be threaded across the
/// cells of a sweep (mechanism × policy × window × load) so a grid of
/// [`crate::load::run_windowed_with`] / [`crate::serve::serve_with`]
/// calls performs its per-request work without heap allocation: the
/// latency samples, the per-request core map, the plan table, and the
/// event queues all reach steady-state capacity in the first cell and
/// are reused by every later one.
#[derive(Default)]
pub struct SweepScratch {
    latencies: Vec<u64>,
    /// Per-owner latency samples (kept by [`Trace`] for the tenant tails).
    owner_latencies: Vec<Vec<u64>>,
    map: Vec<CoreId>,
    plans: Plans,
    /// The closed loop's `(next issue time, client index)` per client —
    /// "lowest issue-time first, ties to lowest client index".
    issue: IssueQueue,
    /// Per-owner min-heaps of the times outstanding requests free their
    /// slot: a client's window, a tenant's bounded admission queue.
    outstanding: Vec<BinaryHeap<Reverse<u64>>>,
}

impl SweepScratch {
    /// Fresh (empty) scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every buffer's *contents* while keeping their capacity —
    /// done on entry by every run so no state can leak from one sweep
    /// cell into the next. The contamination risk this forecloses: a
    /// large cell leaves `outstanding` with more per-owner heaps than a
    /// following smaller cell has owners, and `resize_with` only ever
    /// *grows* the vec — so without an explicit clear, a cell that
    /// exited abnormally would replay stale issue times and completion
    /// heaps into the next cell's schedule.
    pub(crate) fn clear(&mut self) {
        self.latencies.clear();
        for v in &mut self.owner_latencies {
            v.clear();
        }
        self.map.clear();
        self.plans.reset(0, 0);
        self.issue.clear();
        for heap in &mut self.outstanding {
            heap.clear();
        }
    }

    /// [`clear`](Self::clear), then size the per-owner buffers for
    /// `owners` and the latency sample for `issues` requests.
    fn reset(&mut self, owners: usize, issues: usize) {
        self.clear();
        if self.outstanding.len() < owners {
            self.outstanding.resize_with(owners, BinaryHeap::new);
        }
        self.latencies.reserve(issues);
    }

    /// Reduce owner `owner`'s latency sample (reordering it).
    pub(crate) fn owner_tail(&mut self, owner: usize, clock_hz: u64) -> Tail {
        tail(&mut self.owner_latencies[owner], clock_hz)
    }
}

/// The closed loop's issue queue: one `(issue time, client)` entry per
/// client, keyed `time << 64 | client` (one integer compare orders by
/// time, then client index). The closed loop only ever reads the
/// earliest entry and replaces it with that client's next issue, so
/// those are the only operations. Keys are distinct (one per client), so
/// any correct priority queue yields the same minima.
///
/// It is a loser (tournament) tree over `n` leaves, one per entry, in
/// the implicit layout where leaf `i` sits at position `n + i` and node
/// `p`'s children are `2p` and `2p + 1`. Internal node `p ∈ 1..n` holds
/// the leaf that *lost* the match played there, and `tree[0]` the
/// overall winner. Replacing the winner's key replays only its own
/// leaf-to-root path, one compare per level (11 at 2 048 clients). The
/// path is fixed by the leaf, so no load address depends on a compare,
/// and each level is three selects that compile to conditional moves. A
/// branch there would mispredict often: in `closed_sweep` the outcome at
/// a level repeats the previous request's at most 77 % of the time. A
/// heap's choice of child is such a branch, and its outcome also decides
/// which node the next level loads.
#[derive(Default)]
struct IssueQueue {
    /// Leaf `i`'s key.
    keys: Vec<u128>,
    /// `tree[0]`: the winning leaf; `tree[p]`, `p ∈ 1..n`: the leaf that
    /// lost at node `p`.
    tree: Vec<usize>,
    /// Build buffer: the winner at every position (kept so a rebuild
    /// allocates nothing after the first cell).
    winners: Vec<usize>,
}

impl IssueQueue {
    fn key(t: u64, client: usize) -> u128 {
        u128::from(t) << 64 | client as u128
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.tree.clear();
    }

    /// Append entries whose keys ascend, onto a queue whose keys are all
    /// smaller, and play the tournament over every leaf.
    fn extend_sorted(&mut self, entries: impl Iterator<Item = (u64, usize)>) {
        self.keys.extend(entries.map(|(t, c)| Self::key(t, c)));
        debug_assert!(self.keys.is_sorted());
        let n = self.keys.len();
        self.winners.clear();
        self.winners.resize(n, 0);
        self.winners.extend(0..n);
        self.tree.clear();
        self.tree.resize(n, 0);
        for p in (1..n).rev() {
            let (a, b) = (self.winners[2 * p], self.winners[2 * p + 1]);
            let (win, lose) = if self.keys[a] < self.keys[b] {
                (a, b)
            } else {
                (b, a)
            };
            self.winners[p] = win;
            self.tree[p] = lose;
        }
        if n > 0 {
            // Position 1 is the root match, or the lone leaf when n = 1.
            self.tree[0] = self.winners[1];
        }
    }

    /// The earliest `(issue time, client)`, ties to the lowest client.
    #[allow(clippy::cast_possible_truncation)] // the halves `key` packed
    fn peek(&self) -> Option<(u64, usize)> {
        let k = self.keys[*self.tree.first()?];
        Some(((k >> 64) as u64, k as u64 as usize))
    }

    /// Replace the earliest entry with `(t, client)`: rewrite the
    /// winner's leaf and replay its path to the root, branch-free.
    fn replace_min(&mut self, t: u64, client: usize) {
        let n = self.keys.len();
        let leaf = self.tree[0];
        let key = Self::key(t, client);
        self.keys[leaf] = key;
        let (mut winner, mut winner_key) = (leaf, key);
        let mut node = (n + leaf) / 2;
        while node > 0 {
            let other = self.tree[node];
            let other_key = self.keys[other];
            let other_wins = other_key < winner_key;
            self.tree[node] = if other_wins { winner } else { other };
            winner = if other_wins { other } else { winner };
            winner_key = if other_wins { other_key } else { winner_key };
            node /= 2;
        }
        self.tree[0] = winner;
    }
}

/// One recipe priced for one core map: what every request with that
/// pair replays.
#[derive(Default)]
struct Plan {
    /// The steps' replay records.
    records: Vec<Replay>,
    /// The steps' spans, merged in step order.
    ledger: CycleLedger,
    /// IPC invocations issued.
    calls: u64,
    /// What pricing the steps advanced the engine-cache counters by.
    cache: EngineCacheStats,
    /// Requests of this run that replayed the plan.
    uses: u64,
}

/// The plans of one run, one per (recipe, core map) priced so far. A
/// placement's map is a function of its last entry, the chain's core
/// (see `Placement::assign_into`), which keys it. [`reset`](Self::reset)
/// empties the table every run, so a plan never outlives its world.
#[derive(Default)]
struct Plans {
    /// `index[recipe * keys + key]`: the plan's position in `plans`
    /// plus one, 0 while unpriced.
    index: Vec<usize>,
    keys: usize,
    plans: Vec<Plan>,
    /// `(plan index, wait)` of each request a sampled run keeps.
    kept: Vec<(usize, u64)>,
    /// Scratch: one step's spans while pricing, a kept request's after.
    step_ledger: CycleLedger,
}

impl Plans {
    /// Empty the table for `recipes` recipes on a world of `keys` cores.
    fn reset(&mut self, recipes: usize, keys: usize) {
        self.index.clear();
        self.index.resize(recipes.saturating_mul(keys), 0);
        self.keys = keys;
        self.plans.clear();
        self.kept.clear();
    }

    /// The index of the plan of `recipe` (`steps`) under core map
    /// `map`: priced on the pair's first request; every later one counts
    /// its engine-cache advance again. Plans sit in first-use order.
    fn plan(
        &mut self,
        mw: &mut MultiWorld,
        recipe: usize,
        steps: &[Step],
        map: &[CoreId],
    ) -> usize {
        let key = map.last().copied().unwrap_or(0);
        let slot = &mut self.index[recipe * self.keys + key];
        if *slot == 0 {
            let before = mw.engine_cache_stats();
            let mut plan = Plan::default();
            for &step in steps {
                self.step_ledger.clear();
                let priced = mw.price_step(Space::Service(map), step, &mut self.step_ledger);
                plan.ledger.merge(&self.step_ledger);
                plan.calls = plan.calls.saturating_add(priced.calls);
                plan.records.push(priced);
            }
            if let (Some(before), Some(after)) = (before, mw.engine_cache_stats()) {
                plan.cache = after.since(before);
            }
            self.plans.push(plan);
            *slot = self.plans.len();
        } else {
            mw.replayed_cache.merge(self.plans[*slot - 1].cache);
        }
        *slot - 1
    }

    /// The run's ledger and IPC call count, folded from the plans' use
    /// counts and `waited`, the summed wait (charged to [`Phase::Queue`]
    /// when `queue`); a sampled run also gets its kept requests' ledgers.
    fn fold(&mut self, queue: bool, waited: u64, att: Attribution<'_>) -> (CycleLedger, u64) {
        let queued = |plan: &Plan| queue && !plan.records.is_empty();
        let mut ledger = CycleLedger::new();
        if self.plans.iter().any(queued) {
            ledger.charge(Phase::Queue, waited);
        }
        let mut ipc_calls = 0u64;
        for plan in &self.plans {
            ledger.merge_times(&plan.ledger, plan.uses);
            ipc_calls = ipc_calls.saturating_add(plan.calls.saturating_mul(plan.uses));
        }
        if let Attribution::Sampled { totals, arena, .. } = att {
            totals.add_ledger(&ledger);
            ledger = totals.to_ledger();
            for &(at, wait) in &self.kept {
                let (plan, one) = (&self.plans[at], &mut self.step_ledger);
                one.clear();
                if queued(plan) {
                    one.charge(Phase::Queue, wait);
                }
                one.merge(&plan.ledger);
                arena.push(one);
            }
        }
        (ledger, ipc_calls)
    }
}

/// One placed request about to be priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Issue {
    /// Issue time in virtual cycles.
    pub(crate) t0: u64,
    /// The client / tenant whose outstanding heap bounds it.
    pub(crate) owner: usize,
    /// Recipe index into the roster.
    pub(crate) recipe: usize,
}

/// Where requests come from, and what a full owner heap means. The
/// two per-request hooks are `#[inline]` in both sources: the engine is
/// monomorphised over them, and the hint keeps the request path one
/// call deep (measured: ~3% on `open_serve` without it).
pub(crate) trait Source {
    /// The structural error a malformed issue or placement raises.
    type Error;

    /// Whether per-step waiting is charged to [`Phase::Queue`].
    fn attribute_queue(&self) -> bool;

    /// Cycles between a completion and the moment it frees its owner's
    /// slot (client think time).
    fn think_cycles(&self) -> u64;

    /// The next request in issue order, placed into `scratch.map`;
    /// `None` ends the run. Shed requests never surface here — the
    /// source accounts them and moves on.
    fn issue(
        &mut self,
        mw: &MultiWorld,
        scratch: &mut SweepScratch,
    ) -> Result<Option<Issue>, Self::Error>;

    /// The request is priced and recorded, and its completion sits in
    /// the owner's heap.
    fn completed(&mut self, issue: &Issue, latency: u64, scratch: &mut SweepScratch);
}

/// A latency sample reduced to the report quantities (µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tail {
    pub(crate) mean_us: f64,
    pub(crate) p50_us: f64,
    pub(crate) p95_us: f64,
    pub(crate) p99_us: f64,
    pub(crate) max_us: f64,
}

/// What an engine run produced; the front doors shape their reports
/// from it.
#[derive(Debug)]
pub(crate) struct Outcome {
    pub(crate) system: String,
    pub(crate) cores: usize,
    pub(crate) clock_hz: u64,
    /// Requests priced (admitted and completed).
    pub(crate) priced: u64,
    pub(crate) ipc_calls: u64,
    pub(crate) makespan_cycles: u64,
    pub(crate) busy_cycles: u64,
    pub(crate) ledger: CycleLedger,
    pub(crate) tail: Tail,
    pub(crate) engine_cache: Option<EngineCacheStats>,
}

impl Outcome {
    /// `n` completions per second of virtual makespan.
    pub(crate) fn per_second(&self, n: u64) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            n as f64 * self.clock_hz as f64 / self.makespan_cycles as f64
        }
    }
}

/// Convert cycles (as f64, so means pass through) to microseconds at
/// `clock_hz` — the one place reports do this conversion.
fn cycles_to_us(cycles: f64, clock_hz: u64) -> f64 {
    cycles / clock_hz as f64 * 1e6
}

/// 0-based index of the nearest-rank quantile `q` in an ascending sample
/// of `n >= 1` values.
///
/// Convention: the quantile `q ∈ [0, 1]` selects the 1-based rank
/// `⌈q·n⌉`, clamped to `[1, n]` — so `q = 0.5` over 100 samples is the
/// 50th smallest, `q = 0` the minimum, `q = 1` the maximum. `q` outside
/// `[0, 1]` is a contract violation (debug-asserted): `q > 1` would
/// silently clamp to the maximum, a negative `q` to the minimum, and a
/// NaN rank would reach the `f64 → usize` cast whose result for NaN is
/// an implementation artifact (0) rather than a defined quantile.
fn rank_index(n: usize, q: f64) -> usize {
    debug_assert!(
        (0.0..=1.0).contains(&q),
        "percentile: q = {q} outside [0, 1] (NaN included) has no nearest-rank meaning"
    );
    // q is in [0, 1] (asserted above), so the rank is bounded by n and
    // the cast back from f64 cannot truncate.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile over an ascending-sorted slice (see
/// [`rank_index`]; the empty slice reports 0 at every quantile) — the
/// sort-based reference the tests hold [`tail`] to.
#[cfg(test)]
pub(crate) fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank_index(sorted.len(), q)]
}

/// Reduce a latency sample (cycles), reordering it: the percentiles are
/// selections, not a sort — highest first, each leaving every smaller
/// rank in the prefix the next one partitions. The mean accumulates in
/// `u128`: eight latencies near `u64::MAX / 2` overflow a `u64` sum.
fn tail(sample: &mut [u64], clock_hz: u64) -> Tail {
    let us = |cycles: u64| cycles_to_us(cycles as f64, clock_hz);
    let n = sample.len();
    let (sum, max) = sample.iter().fold((0u128, 0), |(sum, max), &l| {
        (sum + u128::from(l), l.max(max))
    });
    let mut prefix = n;
    let mut nth = |q: f64| {
        if n == 0 {
            return 0.0;
        }
        let rank = rank_index(n, q);
        let (_, &mut cycles, _) = sample[..prefix].select_nth_unstable(rank);
        prefix = rank + 1;
        us(cycles)
    };
    let (p99_us, p95_us, p50_us) = (nth(0.99), nth(0.95), nth(0.50));
    Tail {
        mean_us: cycles_to_us(sum as f64 / n.max(1) as f64, clock_hz),
        p50_us,
        p95_us,
        p99_us,
        max_us: us(max),
    }
}

/// Drive every issue of `src` through `mw`: issue → place → replay the
/// request's plan (priced on the pair's first request) → record, then
/// fold and reduce. [`crate::load::run_windowed_with`] documents the two
/// [`Attribution`] modes; the sampling stride counts *priced* requests.
///
/// Every output equals pricing each step of each request on its own and
/// merging each request's ledger (one [`Phase::Queue`] charge of its
/// summed wait, zero included, then its plan's spans) in issue order:
/// `Queue` comes first, each plan's phases in first-use order, and
/// saturating sums do not depend on grouping. Each reuse adds its plan's
/// engine-cache advance to the world.
pub(crate) fn run<S: Source>(
    mw: &mut MultiWorld,
    recipes: &[Vec<Step>],
    src: &mut S,
    scratch: &mut SweepScratch,
    att: Attribution<'_>,
) -> Result<Outcome, S::Error> {
    scratch.plans.reset(recipes.len(), mw.n_cores());
    let think = src.think_cycles();
    let every = match att {
        Attribution::Sampled { every, .. } => every,
        Attribution::Full(_) => 0,
    };
    let (mut priced, mut waited, mut makespan) = (0u64, 0u64, 0u64);
    while let Some(issue) = src.issue(mw, scratch)? {
        let at = scratch
            .plans
            .plan(mw, issue.recipe, &recipes[issue.recipe], &scratch.map);
        let plan = &mut scratch.plans.plans[at];
        let (mut done, mut wait) = (issue.t0, 0u64);
        for step in &plan.records {
            let stepped = mw.replay(step, done);
            wait = wait.saturating_add(stepped.wait);
            done = stepped.done;
        }
        plan.uses += 1;
        waited = waited.saturating_add(wait);
        if every != 0 && priced.is_multiple_of(every) {
            scratch.plans.kept.push((at, wait));
        }
        priced += 1;
        let latency = done - issue.t0;
        scratch.latencies.push(latency);
        makespan = makespan.max(done);
        scratch.outstanding[issue.owner].push(Reverse(done.saturating_add(think)));
        src.completed(&issue, latency, scratch);
    }
    let (ledger, ipc_calls) = scratch.plans.fold(src.attribute_queue(), waited, att);
    let clock_hz = mw.core(0).cost.clock_hz;
    Ok(Outcome {
        system: mw.core(0).ipc_name(),
        cores: mw.n_cores(),
        clock_hz,
        priced,
        ipc_calls,
        makespan_cycles: makespan,
        busy_cycles: mw.busy_cycles(),
        ledger,
        tail: tail(&mut scratch.latencies, clock_hz),
        engine_cache: mw.engine_cache_stats(),
    })
}

/// The closed-loop source: a fixed population of clients, each keeping
/// up to `window` requests outstanding.
pub(crate) struct Clients<'a> {
    policy: &'a Placement,
    n_services: usize,
    n_recipes: u64,
    rng: Rng,
    spec: &'a LoadGen,
    issued: u64,
    window: usize,
}

impl<'a> Clients<'a> {
    /// `spec.clients` clients, all ready at t = 0. Resets `scratch`.
    pub(crate) fn new(
        policy: &'a Placement,
        n_services: usize,
        n_recipes: usize,
        spec: &'a LoadGen,
        window: usize,
        scratch: &mut SweepScratch,
    ) -> Self {
        let requests = usize::try_from(spec.requests).expect("request count fits usize");
        scratch.reset(spec.clients, requests);
        scratch
            .issue
            .extend_sorted((0..spec.clients).map(|c| (0, c)));
        Clients {
            policy,
            n_services,
            n_recipes: n_recipes as u64,
            rng: Rng::seed_from_u64(spec.seed),
            spec,
            issued: 0,
            window,
        }
    }
}

impl Source for Clients<'_> {
    type Error = LoadError;

    /// Closed loops (`window = 1`) keep their historical ledgers: no
    /// `Queue` spans, waiting is folded into latency as it always was.
    fn attribute_queue(&self) -> bool {
        self.window > 1
    }

    fn think_cycles(&self) -> u64 {
        self.spec.think_cycles
    }

    #[inline]
    fn issue(
        &mut self,
        mw: &MultiWorld,
        scratch: &mut SweepScratch,
    ) -> Result<Option<Issue>, LoadError> {
        if self.issued == self.spec.requests {
            return Ok(None);
        }
        // Earliest-issuable client, ties to the lowest index; its entry
        // stays at the head until `completed` replaces it.
        let (t0, owner) = scratch.issue.peek().expect("one entry per client");
        let recipe = usize::try_from(self.rng.below(self.n_recipes)).expect("index fits usize");
        self.policy
            .assign_into(self.issued, self.n_services, mw, &mut scratch.map)?;
        self.issued += 1;
        Ok(Some(Issue { t0, owner, recipe }))
    }

    #[inline]
    fn completed(&mut self, issue: &Issue, _latency: u64, scratch: &mut SweepScratch) {
        let heap = &mut scratch.outstanding[issue.owner];
        let next = if heap.len() >= self.window {
            // Window full: the client waits for the outstanding request
            // that frees its slot earliest.
            let Reverse(first_free) = heap.pop().expect("window >= 1");
            issue.t0.max(first_free)
        } else {
            issue.t0
        };
        scratch.issue.replace_min(next, issue.owner);
    }
}

/// The open-loop source: the arrivals of an [`ArrivalTrace`], admitted
/// against per-tenant queue caps and the global backlog bound, placed
/// statically or by the autoscale controller.
pub(crate) struct Trace<'a> {
    arrivals: std::iter::Enumerate<std::slice::Iter<'a, Arrival>>,
    policy: &'a ServePolicy,
    spec: &'a ServeSpec,
    n_services: usize,
    n_recipes: usize,
    /// Per-tenant counters, bumped in place (the tails are filled in by
    /// the front door once the run is over).
    pub(crate) tenants: Vec<TenantReport>,
    /// The controller's core ceiling (clamped to the world).
    max_active: usize,
    /// The active set is the core prefix `[0, active)`.
    active: usize,
    since_epoch: u64,
    events: AutoscaleReport,
}

impl<'a> Trace<'a> {
    /// Validate the controller configuration against an `n_cores` world
    /// and start at the head of `trace`. Resets `scratch`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadAutoscale`] for a controller that cannot act.
    pub(crate) fn new(
        policy: &'a ServePolicy,
        n_services: usize,
        n_recipes: usize,
        trace: &'a ArrivalTrace,
        spec: &'a ServeSpec,
        n_cores: usize,
        scratch: &mut SweepScratch,
    ) -> Result<Self, ServeError> {
        let bad = |why| Err(ServeError::BadAutoscale { why });
        let (active, max_active) = match policy {
            ServePolicy::Static(_) => (n_cores, n_cores),
            ServePolicy::Autoscale(cfg) => {
                let max = cfg.max_cores.min(n_cores);
                if cfg.min_cores == 0 {
                    return bad("min_cores must be >= 1");
                }
                if cfg.epoch_arrivals == 0 {
                    return bad("epoch_arrivals must be >= 1");
                }
                if cfg.min_cores > max {
                    return bad("min_cores exceeds max_cores (after clamping to the world)");
                }
                if cfg.shrink_backlog_cycles >= cfg.grow_backlog_cycles {
                    return bad("shrink threshold must sit below the grow threshold");
                }
                (cfg.min_cores, max)
            }
        };
        let n_tenants = spec.tenants as usize;
        scratch.reset(n_tenants, trace.len());
        if scratch.owner_latencies.len() < n_tenants {
            scratch.owner_latencies.resize_with(n_tenants, Vec::new);
        }
        let tenants = (0..spec.tenants).map(|tenant| TenantReport {
            tenant,
            offered: 0,
            admitted: 0,
            shed_queue_full: 0,
            shed_backlog: 0,
            p50_us: 0.0,
            p99_us: 0.0,
            slo_p99_us: spec.class_of(tenant).slo_p99_us,
            slo_met: false,
        });
        Ok(Trace {
            arrivals: trace.arrivals().iter().enumerate(),
            policy,
            spec,
            n_services,
            n_recipes,
            tenants: tenants.collect(),
            max_active,
            active,
            since_epoch: 0,
            events: AutoscaleReport {
                grow_events: 0,
                shrink_events: 0,
                min_active: active,
                max_active: active,
                final_active: active,
            },
        })
    }

    /// What the controller did ([`None`] under a static policy).
    pub(crate) fn autoscale(&self) -> Option<AutoscaleReport> {
        matches!(self.policy, ServePolicy::Autoscale(_)).then_some(self.events)
    }

    /// The feedback controller: every epoch of *arrivals* (admitted or
    /// shed — sheds are pressure too), compare the mean backlog over the
    /// active set against the thresholds. Sampled before the arrival at
    /// `t` dispatches, so an idle system reads as idle instead of as its
    /// own just-issued request's footprint.
    fn control(&mut self, cfg: &AutoscaleCfg, mw: &MultiWorld, t: u64) {
        self.since_epoch += 1;
        if self.since_epoch < cfg.epoch_arrivals {
            return;
        }
        self.since_epoch = 0;
        let active = self.active;
        // Summed in u128: two cores whose clocks saturated at u64::MAX
        // overflow a u64 sum. A mean of u64s fits a u64.
        let lag: u128 = (0..active).map(|c| u128::from(mw.backlog(c, t))).sum();
        let mean_lag = u64::try_from(lag / active as u128).unwrap_or(u64::MAX);
        if mean_lag > cfg.grow_backlog_cycles && active < self.max_active {
            self.active += 1;
            self.events.grow_events += 1;
        } else if mean_lag < cfg.shrink_backlog_cycles && active > cfg.min_cores {
            self.active -= 1;
            self.events.shrink_events += 1;
        }
        self.events.min_active = self.events.min_active.min(self.active);
        self.events.max_active = self.events.max_active.max(self.active);
        self.events.final_active = self.active;
    }
}

impl Source for Trace<'_> {
    type Error = ServeError;

    /// Always: an open loop's whole point is that the wait behind
    /// earlier work is visible, not folded away.
    fn attribute_queue(&self) -> bool {
        true
    }

    fn think_cycles(&self) -> u64 {
        0
    }

    #[inline]
    fn issue(
        &mut self,
        mw: &MultiWorld,
        scratch: &mut SweepScratch,
    ) -> Result<Option<Issue>, ServeError> {
        while let Some((index, a)) = self.arrivals.next() {
            let (t, owner, recipe) = (a.at, a.tenant as usize, a.recipe as usize);
            if a.tenant >= self.spec.tenants {
                return Err(ServeError::TenantOutOfRange {
                    index,
                    tenant: a.tenant,
                    tenants: self.spec.tenants,
                });
            }
            if recipe >= self.n_recipes {
                return Err(ServeError::RecipeOutOfRange {
                    index,
                    recipe: a.recipe,
                    n_recipes: self.n_recipes,
                });
            }
            self.tenants[owner].offered += 1;
            if let ServePolicy::Autoscale(cfg) = self.policy {
                self.control(cfg, mw, t);
            }
            // Retire completions: an admitted request leaves its
            // tenant's queue the moment virtual time passes its
            // completion.
            let heap = &mut scratch.outstanding[owner];
            while heap.peek().is_some_and(|Reverse(done)| *done <= t) {
                heap.pop();
            }
            // Admission, stage 1: the tenant's bounded queue is full.
            if heap.len() >= self.spec.class_of(a.tenant).queue_cap {
                self.tenants[owner].shed_queue_full += 1;
                continue;
            }
            match self.policy {
                // Static policies map by arrival index, as the closed
                // loop maps by request index.
                ServePolicy::Static(p) => p
                    .assign_into(index as u64, self.n_services, mw, &mut scratch.map)
                    .map_err(LoadError::Placement)?,
                ServePolicy::Autoscale(_) => {
                    // Whole chain on the least-loaded active core: an
                    // open-loop arrival has no pinned client core, so the
                    // controller behaves like a front-end load balancer
                    // assigning the request to one worker — active cores
                    // are independent capacity, with no cross-core tax
                    // introduced by the scaling itself.
                    let chain = mw.least_loaded_among(self.active);
                    scratch.map.clear();
                    // Every service on `chain`: the map is a function of
                    // its last entry, as `Placement`'s are.
                    scratch.map.resize(self.n_services, chain);
                }
            }
            // Admission, stage 2: the global backlog bound — shed instead
            // of joining a queue the request would wait `> cap` cycles in.
            if self.spec.backlog_cap_cycles > 0 {
                let lag = scratch.map.iter().map(|&c| mw.backlog(c, t)).max();
                if lag.unwrap_or(0) > self.spec.backlog_cap_cycles {
                    self.tenants[owner].shed_backlog += 1;
                    continue;
                }
            }
            return Ok(Some(Issue {
                t0: t,
                owner,
                recipe,
            }));
        }
        Ok(None)
    }

    #[inline]
    fn completed(&mut self, issue: &Issue, latency: u64, scratch: &mut SweepScratch) {
        self.tenants[issue.owner].admitted += 1;
        scratch.owner_latencies[issue.owner].push(latency);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ipc::IpcSystem;
    use crate::ledger::{InvokeOpts, LedgerArena, PhaseTotals};
    use crate::load::{run_windowed, run_windowed_with};
    use crate::program::{CallProgram, ProgramId, Recipe};
    use crate::serve::{serve, serve_with, AutoscaleCfg, ServeReport, TenantClass};
    use crate::topology::Topology;

    /// The per-step reference the plan cache is held to: run `steps`
    /// (service space, resolved by `map`) from virtual time `t0`, pricing
    /// and replaying each step on its own, the request's spans landing in
    /// `out`. When `attribute_queue`, the wait each step spends behind its
    /// serving core's earlier work is charged to [`Phase::Queue`] ahead of
    /// the step's own spans. Returns `(done, ipc_calls)`.
    pub(crate) fn drive_request(
        mw: &mut MultiWorld,
        map: &[CoreId],
        steps: &[Step],
        t0: u64,
        attribute_queue: bool,
        out: &mut CycleLedger,
    ) -> (u64, u64) {
        let mut t = t0;
        let mut ipc_calls = 0u64;
        let mut step_ledger = CycleLedger::new();
        for &step in steps {
            step_ledger.clear();
            let stepped = mw.exec_step(Space::Service(map), step, t, &mut step_ledger);
            if attribute_queue {
                out.charge(Phase::Queue, stepped.wait);
            }
            out.merge(&step_ledger);
            ipc_calls = ipc_calls.saturating_add(stepped.calls);
            t = stepped.done;
        }
        (t, ipc_calls)
    }

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

    /// A 4-core world with the test program registered, and the roster
    /// that names it: a plain chain, a batch + data pass, a fused chain.
    fn bed() -> (MultiWorld, Vec<Vec<Step>>) {
        let mut mw = MultiWorld::builder()
            .topology(Topology::single_socket(4))
            .build(|| Box::new(Fixed));
        let program = Recipe::new(0)
            .hop(1, 64)
            .compute(300)
            .handover(2, 512)
            .reply(32)
            .build()
            .unwrap();
        let fused = Step::Fused(mw.register_program(program));
        let chain = vec![
            Step::Oneway {
                from: 0,
                to: 1,
                bytes: 64,
            },
            Step::Compute { at: 1, cycles: 500 },
            Step::Roundtrip {
                from: 1,
                to: 2,
                request: 16,
                response: 1024,
            },
        ];
        let burst = vec![
            Step::Batch {
                from: 0,
                to: 2,
                calls: 3,
                bytes_each: 128,
            },
            Step::DataPass {
                at: 2,
                bytes: 4096,
                intensity_x10: 15,
            },
        ];
        (mw, vec![chain, burst, vec![fused]])
    }

    fn spec() -> LoadGen {
        LoadGen {
            clients: 4,
            requests: 120,
            seed: 7,
            think_cycles: 900,
        }
    }

    /// A [`Source`] that logs the `(t0, recipe)` of every issue it hands
    /// the engine and otherwise is its inner source.
    struct Recording<S> {
        inner: S,
        log: Vec<(u64, usize)>,
    }

    impl<S: Source> Source for Recording<S> {
        type Error = S::Error;
        fn attribute_queue(&self) -> bool {
            self.inner.attribute_queue()
        }
        fn think_cycles(&self) -> u64 {
            self.inner.think_cycles()
        }
        fn issue(
            &mut self,
            mw: &MultiWorld,
            scratch: &mut SweepScratch,
        ) -> Result<Option<Issue>, S::Error> {
            let issue = self.inner.issue(mw, scratch)?;
            self.log.extend(issue.map(|i| (i.t0, i.recipe)));
            Ok(issue)
        }
        fn completed(&mut self, issue: &Issue, latency: u64, scratch: &mut SweepScratch) {
            self.inner.completed(issue, latency, scratch);
        }
    }

    /// The closed-loop run of `spec()` at `window`, and the same issue
    /// schedule replayed as an open-loop trace that can neither shed nor
    /// re-place anything.
    fn closed_then_replayed(policy: &Placement, window: usize) -> (Outcome, ServeReport) {
        let (mut mw, recipes) = bed();
        let spec = spec();
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let mut clients = Recording {
            inner: Clients::new(policy, 3, recipes.len(), &spec, window, &mut scratch),
            log: Vec::new(),
        };
        let closed = run(
            &mut mw,
            &recipes,
            &mut clients,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        // The recorder only watched: the front door reports the same run.
        let (mut front_mw, _) = bed();
        let front = run_windowed(&mut front_mw, policy, 3, &recipes, &spec, window);
        assert_eq!(front.ledger, closed.ledger);
        assert_eq!(front.p99_us, closed.tail.p99_us);

        let arrivals = clients
            .log
            .iter()
            .map(|&(at, recipe)| Arrival {
                at,
                tenant: 0,
                recipe: u32::try_from(recipe).unwrap(),
            })
            .collect();
        let trace = ArrivalTrace::from_arrivals(arrivals).expect("issue times never regress");
        let cannot_shed = ServeSpec {
            tenants: 1,
            classes: vec![TenantClass {
                queue_cap: usize::MAX,
                slo_p99_us: f64::INFINITY,
            }],
            backlog_cap_cycles: 0,
        };
        let (mut open_mw, _) = bed();
        let replayed = serve_with(
            &mut open_mw,
            &ServePolicy::Static(policy.clone()),
            3,
            &recipes,
            &trace,
            &cannot_shed,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        assert_eq!(replayed.admitted, spec.requests);
        (closed, replayed)
    }

    #[test]
    fn a_closed_loop_is_an_open_loop_over_its_own_issue_schedule() {
        // The fold's claim: the two front doors differ only in where the
        // next issue comes from. Feed the open loop the closed loop's
        // schedule and everything downstream of the issue rule agrees.
        for policy in [Placement::RoundRobin, Placement::LeastLoaded] {
            for window in [1usize, 4] {
                let (closed, open) = closed_then_replayed(&policy, window);
                let at = format!("{} w={window}", policy.label());
                assert_eq!(open.makespan_cycles, closed.makespan_cycles, "{at}");
                assert_eq!(open.busy_cycles, closed.busy_cycles, "{at}");
                assert_eq!(open.ipc_calls, closed.ipc_calls, "{at}");
                let open_tail = (open.mean_us, open.p50_us, open.p95_us, open.p99_us);
                let t = closed.tail;
                assert_eq!(open_tail, (t.mean_us, t.p50_us, t.p95_us, t.p99_us), "{at}");
                if window > 1 {
                    assert!(closed.ledger.get(Phase::Queue) > 0, "{at}: contended");
                    assert_eq!(open.ledger, closed.ledger, "{at}: span for span");
                } else {
                    // The closed loop folds waiting into latency; the
                    // open loop also attributes it. Nothing else moves.
                    let unqueued: Vec<_> = open
                        .ledger
                        .spans()
                        .iter()
                        .copied()
                        .filter(|(p, _)| *p != Phase::Queue)
                        .collect();
                    assert_eq!(unqueued, closed.ledger.spans(), "{at}");
                }
            }
        }
    }

    #[test]
    fn issue_times_saturate_under_unbounded_think_time() {
        // `done + think_cycles` used to overflow (debug: panic; release:
        // wrap to an issue time in the past).
        let (_, recipes) = bed();
        let spec = LoadGen {
            think_cycles: u64::MAX,
            ..spec()
        };
        for window in [1usize, 4] {
            let (mut mw, _) = bed();
            let r = run_windowed(&mut mw, &Placement::RoundRobin, 3, &recipes, &spec, window);
            assert_eq!(r.requests, spec.requests, "w={window}");
            // Every client's first `window` requests run normally; the
            // rest issue at the end of time.
            assert_eq!(r.makespan_cycles, u64::MAX, "w={window}");
            assert!(r.p50_us <= r.p99_us);
        }
    }

    /// One `replace_min` of the issue-queue property: what the popped
    /// client's next issue time is, relative to the time it was popped at.
    #[derive(Debug, Clone, Copy)]
    enum Next {
        /// Replaced by the same key.
        Same,
        /// Unbounded think time.
        Max,
        /// Back from the end of time, to an absolute time.
        Back(u64),
        /// A step of 0–2 cycles: runs of equal times, ties to the lowest
        /// client.
        Tie(u64),
    }

    #[test]
    fn the_issue_queue_is_a_priority_queue() {
        // Against a `BinaryHeap` doing pop + push, at client counts from
        // 1 to 2 048 (tiny ones, the benchmark's 2 048 and everything
        // between, powers of two or not); the op count is the size the
        // harness halves when a case fails.
        ycsb::check(
            "the_issue_queue_is_a_priority_queue",
            48,
            &[],
            |rng, size| {
                let clients = match rng.below(4) {
                    0 => 1 + rng.below(8),
                    1 => 2048,
                    _ => 1 + rng.below(2048),
                };
                let ops = (0..rng.below(12_000.min(size)))
                    .map(|_| match rng.below(16) {
                        0 => Next::Same,
                        1 => Next::Max,
                        2 => Next::Back(rng.below(1_000)),
                        _ => Next::Tie(rng.below(3)),
                    })
                    .collect::<Vec<_>>();
                (usize::try_from(clients).expect("at most 2 048"), ops)
            },
            |(clients, ops)| {
                let mut queue = IssueQueue::default();
                queue.extend_sorted((0..*clients).map(|c| (0, c)));
                let mut oracle: BinaryHeap<_> = (0..*clients).map(|c| Reverse((0u64, c))).collect();
                for (i, op) in ops.iter().enumerate() {
                    let Reverse((t, client)) = oracle.pop().expect("one entry per client");
                    if queue.peek() != Some((t, client)) {
                        return Err(format!(
                            "op {i}: queue head {:?}, oracle ({t}, {client})",
                            queue.peek()
                        ));
                    }
                    let next = match *op {
                        Next::Same => t,
                        Next::Max => u64::MAX,
                        Next::Back(at) => at,
                        Next::Tie(step) => t.saturating_add(step),
                    };
                    oracle.push(Reverse((next, client)));
                    queue.replace_min(next, client);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn tails_by_selection_match_sort_then_percentile() {
        let hz = 1_000_000_000;
        let mut rng = Rng::seed_from_u64(0x7a11);
        for n in [0usize, 1, 2, 3, 100, 100_000] {
            // Heavy duplication (eight distinct values), then a spread.
            for distinct in [8u64, u64::MAX] {
                let mut sample: Vec<u64> = (0..n).map(|_| rng.below(distinct)).collect();
                let mut sorted = sample.clone();
                sorted.sort_unstable();
                let sum: u128 = sorted.iter().map(|&l| u128::from(l)).sum();
                let us = |cycles: u64| cycles_to_us(cycles as f64, hz);
                let want = Tail {
                    mean_us: cycles_to_us(sum as f64 / n.max(1) as f64, hz),
                    p50_us: us(percentile(&sorted, 0.50)),
                    p95_us: us(percentile(&sorted, 0.95)),
                    p99_us: us(percentile(&sorted, 0.99)),
                    max_us: us(sorted.last().copied().unwrap_or(0)),
                };
                assert_eq!(tail(&mut sample, hz), want, "n={n} distinct={distinct}");
            }
        }
    }

    #[test]
    fn an_absurd_batch_saturates_every_accumulator() {
        // `calls: u64::MAX` over >= 2 requests used to overflow the
        // `ipc_calls` sums (Full) and `PhaseTotals::charge` (Sampled):
        // a debug panic, a release wrap.
        let absurd = vec![vec![Step::Batch {
            from: 0,
            to: 1,
            calls: u64::MAX,
            bytes_each: 64,
        }]];
        let spec = LoadGen {
            clients: 2,
            requests: 4,
            ..spec()
        };
        let world = || {
            MultiWorld::builder()
                .topology(Topology::single_socket(2))
                .build(|| Box::new(Fixed))
        };
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let mut totals = PhaseTotals::new();
        let full = Attribution::Full(&mut arena);
        let full = run_windowed_with(
            &mut world(),
            &Placement::RoundRobin,
            2,
            &absurd,
            &spec,
            1,
            &mut scratch,
            full,
        )
        .expect("priced, not panicked");
        let sampled = Attribution::Sampled {
            every: 2,
            totals: &mut totals,
            arena: &mut arena,
        };
        let sampled = run_windowed_with(
            &mut world(),
            &Placement::RoundRobin,
            2,
            &absurd,
            &spec,
            1,
            &mut scratch,
            sampled,
        )
        .expect("priced, not panicked");
        for r in [&full, &sampled] {
            assert_eq!(r.requests, 4);
            assert_eq!(r.ledger.total(), u64::MAX);
            assert_eq!(r.ipc_calls, u64::MAX);
        }
        assert_eq!(totals.total(), sampled.ledger.total());
    }

    #[test]
    fn the_latency_mean_survives_a_sample_that_overflows_u64() {
        // Eight latencies above u64::MAX / 2: `iter().sum::<u64>()` in
        // either tail used to overflow.
        let heavy = vec![vec![Step::Compute {
            at: 1,
            cycles: u64::MAX / 2 + 7,
        }]];
        // No request finishes faster than its compute, so neither does
        // the mean (a wrapped sum lands far below).
        let floor_us = cycles_to_us((u64::MAX / 2 + 7) as f64, bed().0.core(0).cost.clock_hz);
        let check = |mean_us: f64, p50_us: f64, p99_us: f64| {
            assert!(mean_us.is_finite() && mean_us >= floor_us, "mean {mean_us}");
            assert!(p50_us <= p99_us);
        };
        let spec = LoadGen {
            clients: 8,
            requests: 8,
            ..spec()
        };
        let (mut mw, _) = bed();
        let r = run_windowed(&mut mw, &Placement::RoundRobin, 2, &heavy, &spec, 1);
        check(r.mean_us, r.p50_us, r.p99_us);

        let arrivals = (0..8u64)
            .map(|at| Arrival {
                at,
                tenant: 0,
                recipe: 0,
            })
            .collect();
        let trace = ArrivalTrace::from_arrivals(arrivals).unwrap();
        let (mut mw, _) = bed();
        let policy = ServePolicy::Static(Placement::RoundRobin);
        let r = serve(&mut mw, &policy, 2, &heavy, &trace, &ServeSpec::default()).unwrap();
        assert_eq!(r.admitted, 8);
        check(r.mean_us, r.p50_us, r.p99_us);
    }

    /// [`run`] as it priced before plans: every step of every request
    /// through [`drive_request`], each request's own ledger merged into
    /// the sinks as it completes. The oracle of the replay differential.
    fn reference_run<S: Source>(
        mw: &mut MultiWorld,
        recipes: &[Vec<Step>],
        src: &mut S,
        scratch: &mut SweepScratch,
        mut att: Attribution<'_>,
    ) -> Result<Outcome, S::Error> {
        let attribute_queue = src.attribute_queue();
        let think = src.think_cycles();
        let mut ledger = CycleLedger::new();
        let (mut priced, mut ipc_calls, mut makespan) = (0u64, 0u64, 0u64);
        while let Some(issue) = src.issue(mw, scratch)? {
            let mut one = CycleLedger::new();
            let steps = &recipes[issue.recipe];
            let (done, calls) =
                drive_request(mw, &scratch.map, steps, issue.t0, attribute_queue, &mut one);
            match &mut att {
                Attribution::Full(_) => ledger.merge(&one),
                Attribution::Sampled {
                    every,
                    totals,
                    arena,
                } => {
                    totals.add_ledger(&one);
                    if *every != 0 && priced.is_multiple_of(*every) {
                        arena.push(&one);
                    }
                }
            }
            priced += 1;
            ipc_calls = ipc_calls.saturating_add(calls);
            let latency = done - issue.t0;
            scratch.latencies.push(latency);
            makespan = makespan.max(done);
            scratch.outstanding[issue.owner].push(Reverse(done.saturating_add(think)));
            src.completed(&issue, latency, scratch);
        }
        if let Attribution::Sampled { totals, .. } = &att {
            ledger = totals.to_ledger();
        }
        let clock_hz = mw.core(0).cost.clock_hz;
        Ok(Outcome {
            system: mw.core(0).ipc_name(),
            cores: mw.n_cores(),
            clock_hz,
            priced,
            ipc_calls,
            makespan_cycles: makespan,
            busy_cycles: mw.busy_cycles(),
            ledger,
            tail: tail(&mut scratch.latencies, clock_hz),
            engine_cache: mw.engine_cache_stats(),
        })
    }

    /// A `kernels` roster system. `kernels` links the library build of
    /// this crate, whose types are not this test build's, so the adapter
    /// translates options, phases, spans and counters both ways.
    struct Roster(Box<dyn kernels::IpcSystem>);

    fn their_opts(opts: &InvokeOpts) -> kernels::InvokeOpts {
        let mut theirs = kernels::InvokeOpts::call();
        theirs.reply = opts.reply;
        theirs.hops = opts.hops;
        theirs.shard_dist = opts.shard_dist;
        theirs.hardening.revocation_epochs = opts.hardening.revocation_epochs;
        theirs.hardening.zero_on_handover = opts.hardening.zero_on_handover;
        theirs.hardening.flow_tags = opts.hardening.flow_tags;
        theirs
    }

    /// Charge `theirs`' spans into `out` in order: the same ledger as
    /// charging them one by one, since first-charge order and saturating
    /// sums survive the regrouping.
    fn charge_theirs(theirs: &kernels::CycleLedger, out: &mut CycleLedger) {
        for &(phase, cycles) in theirs.spans() {
            let at = kernels::Phase::ALL.iter().position(|&p| p == phase);
            out.charge(Phase::ALL[at.expect("same phase list")], cycles);
        }
    }

    impl IpcSystem for Roster {
        fn name(&self) -> String {
            self.0.name()
        }
        fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
            let mut theirs = kernels::CycleLedger::new();
            let copied = self.0.oneway_into(msg_len, &their_opts(opts), &mut theirs);
            charge_theirs(&theirs, out);
            copied
        }
        fn supports_handover(&self) -> bool {
            self.0.supports_handover()
        }
        fn migrating_threads(&self) -> bool {
            self.0.migrating_threads()
        }
        fn invoke_batch_into(
            &mut self,
            calls: u64,
            bytes_each: usize,
            opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            let mut theirs = kernels::CycleLedger::new();
            let copied =
                self.0
                    .invoke_batch_into(calls, bytes_each, &their_opts(opts), &mut theirs);
            charge_theirs(&theirs, out);
            copied
        }
        fn fused_hop_into(
            &mut self,
            hop_index: u64,
            msg_len: usize,
            opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            let mut theirs = kernels::CycleLedger::new();
            let copied = self
                .0
                .fused_hop_into(hop_index, msg_len, &their_opts(opts), &mut theirs);
            charge_theirs(&theirs, out);
            copied
        }
        fn fused_crossings(&self, hops: u64) -> u64 {
            self.0.fused_crossings(hops)
        }
        fn engine_cache_stats(&self) -> Option<EngineCacheStats> {
            self.0.engine_cache_stats().map(|s| EngineCacheStats {
                prefetches: s.prefetches,
                cache_hits: s.cache_hits,
                shard_misses: s.shard_misses,
            })
        }
    }

    /// seL4, Zircon, Binder and seL4-XPC.
    const SYSTEMS: [fn() -> Box<dyn IpcSystem>; 4] = [
        || {
            Box::new(Roster(Box::new(kernels::Sel4::new(
                kernels::Sel4Transfer::OneCopy,
            ))))
        },
        || Box::new(Roster(Box::new(kernels::Zircon::new()))),
        || {
            let binder = kernels::BinderIpc::new(kernels::BinderSystem::Binder, false);
            Box::new(Roster(Box::new(binder)))
        },
        || Box::new(Roster(Box::new(kernels::XpcIpc::sel4_xpc()))),
    ];

    /// Services a generated recipe names (service 0 is the client).
    const SERVICES: usize = 4;

    /// One generated case of the replay differential.
    #[derive(Debug)]
    struct ReplayCase {
        /// Fused programs, registered in order, so `Step::Fused` ids
        /// index this list.
        programs: Vec<CallProgram>,
        recipes: Vec<Vec<Step>>,
        pinned: Vec<CoreId>,
        spec: LoadGen,
        arrivals: Vec<Arrival>,
        serve: ServeSpec,
        autoscale: AutoscaleCfg,
        every: u64,
    }

    /// Payload sizes: empty, a register message, a line, a page, a
    /// large transfer.
    const BYTES: [u64; 6] = [0, 8, 64, 100, 4096, 1 << 20];

    /// Draws bounded by the harness's shrinking size.
    struct Draw<'a> {
        rng: &'a mut Rng,
        size: u64,
    }

    impl Draw<'_> {
        fn below(&mut self, span: u64) -> u64 {
            self.rng.below(span.min(self.size).max(1))
        }
        fn index(&mut self, len: usize) -> usize {
            usize::try_from(self.below(len as u64)).unwrap()
        }
        fn bytes(&mut self) -> u64 {
            BYTES[self.index(BYTES.len())]
        }
        fn service(&mut self) -> usize {
            self.index(SERVICES)
        }

        /// A step of `kind` (0–7: one-way, batches of 0, 1 and n calls,
        /// round trip, compute, data pass, fused) over `programs`.
        fn step(&mut self, kind: u64, programs: usize) -> Step {
            let (from, to) = (self.service(), self.service());
            match kind {
                0 => Step::Oneway {
                    from,
                    to,
                    bytes: self.bytes(),
                },
                1..=3 => Step::Batch {
                    from,
                    to,
                    calls: [0, 1, 2 + self.below(15)][usize::try_from(kind - 1).unwrap()],
                    bytes_each: self.bytes(),
                },
                4 => Step::Roundtrip {
                    from,
                    to,
                    request: self.bytes(),
                    response: self.bytes(),
                },
                5 => Step::Compute {
                    at: to,
                    cycles: self.below(20_000),
                },
                6 => Step::DataPass {
                    at: to,
                    bytes: self.bytes(),
                    intensity_x10: 1 + self.below(30),
                },
                _ => Step::Fused(ProgramId::from_index(self.index(programs))),
            }
        }
    }

    fn gen_case(rng: &mut Rng, size: u64) -> ReplayCase {
        let mut d = Draw { rng, size };
        let programs: Vec<_> = (0..1 + d.below(3))
            .map(|p| {
                let mut recipe = Recipe::new(d.service());
                for h in 0..1 + d.below(4) {
                    let to = d.service();
                    // Program 0 always hands its first hop over.
                    recipe = if (p, h) == (0, 0) || d.below(2) == 0 {
                        recipe.handover(to, d.bytes())
                    } else {
                        recipe.hop(to, d.bytes())
                    };
                    if d.below(3) == 0 {
                        recipe = recipe.compute(d.below(5_000));
                    }
                }
                recipe.reply(d.bytes()).build().expect("1 to 4 hops")
            })
            .collect();
        // Recipe 0 tours every kind; the others, the empty recipe
        // included, are drawn.
        let mut recipes = vec![(0..8)
            .map(|kind| d.step(kind, programs.len()))
            .collect::<Vec<_>>()];
        for _ in 0..d.below(4) {
            let recipe = (0..d.below(5)).map(|_| {
                let kind = d.below(8);
                d.step(kind, programs.len())
            });
            recipes.push(recipe.collect());
        }
        let requests = 1 + d.below(48);
        let mut at = 0;
        let arrivals = (0..requests)
            .map(|_| {
                at += d.below(3_000);
                Arrival {
                    at,
                    tenant: u32::try_from(d.below(2)).unwrap(),
                    recipe: u32::try_from(d.index(recipes.len())).unwrap(),
                }
            })
            .collect();
        let grow = 1_000 + d.below(40_000);
        ReplayCase {
            pinned: (0..SERVICES).map(|_| d.index(8)).collect(),
            spec: LoadGen {
                clients: 1 + d.index(6),
                requests,
                seed: d.below(u64::MAX),
                think_cycles: d.below(2_000),
            },
            arrivals,
            serve: ServeSpec {
                tenants: 2,
                classes: vec![
                    TenantClass {
                        queue_cap: 1 + d.index(4),
                        slo_p99_us: f64::INFINITY,
                    },
                    TenantClass {
                        queue_cap: usize::MAX,
                        slo_p99_us: 1.0,
                    },
                ],
                backlog_cap_cycles: [0, 2_000 + d.below(20_000)][d.index(2)],
            },
            autoscale: AutoscaleCfg {
                min_cores: 1,
                max_cores: usize::MAX,
                epoch_arrivals: 1 + d.below(8),
                grow_backlog_cycles: grow,
                shrink_backlog_cycles: d.below(grow),
            },
            every: 1 + d.below(4),
            programs,
            recipes,
        }
    }

    /// Which loop a differential run drives.
    enum Loop {
        Closed(Placement, usize),
        Open(ServePolicy),
    }

    /// Plans, or the per-step reference.
    #[derive(Clone, Copy, PartialEq)]
    enum Pricing {
        Plans,
        Reference,
    }

    fn drive<S: Source>(
        pricing: Pricing,
        mw: &mut MultiWorld,
        recipes: &[Vec<Step>],
        src: &mut S,
        scratch: &mut SweepScratch,
        att: Attribution<'_>,
    ) -> Outcome
    where
        S::Error: std::fmt::Debug,
    {
        let out = match pricing {
            Pricing::Plans => run(mw, recipes, src, scratch, att),
            Pricing::Reference => reference_run(mw, recipes, src, scratch, att),
        };
        out.expect("a runnable cell")
    }

    /// Everything one run leaves behind, a line per item: the outcome
    /// every report is shaped from (and the tenant and controller
    /// counters of an open loop), the sampled totals and kept ledgers,
    /// the engine-cache counters, and every core's clock and counters.
    fn digest(
        case: &ReplayCase,
        mw: &mut MultiWorld,
        lp: &Loop,
        sampled: bool,
        pricing: Pricing,
        scratch: &mut SweepScratch,
    ) -> Vec<String> {
        let mut arena = LedgerArena::new();
        let mut totals = PhaseTotals::new();
        let att = if sampled {
            Attribution::Sampled {
                every: case.every,
                totals: &mut totals,
                arena: &mut arena,
            }
        } else {
            Attribution::Full(&mut arena)
        };
        let (recipes, n) = (&case.recipes, case.recipes.len());
        let mut lines = Vec::new();
        match lp {
            Loop::Closed(policy, window) => {
                let mut src = Clients::new(policy, SERVICES, n, &case.spec, *window, scratch);
                lines.push(format!(
                    "{:?}",
                    drive(pricing, mw, recipes, &mut src, scratch, att)
                ));
            }
            Loop::Open(policy) => {
                let trace = ArrivalTrace::from_arrivals(case.arrivals.clone()).unwrap();
                let cores = mw.n_cores();
                let mut src =
                    Trace::new(policy, SERVICES, n, &trace, &case.serve, cores, scratch).unwrap();
                let out = drive(pricing, mw, recipes, &mut src, scratch, att);
                lines.push(format!("{out:?}"));
                lines.push(format!("{:?} {:?}", src.tenants, src.autoscale()));
                for tenant in 0..src.tenants.len() {
                    lines.push(format!("{:?}", scratch.owner_tail(tenant, out.clock_hz)));
                }
            }
        }
        lines.push(format!("totals {:?}", totals.to_ledger()));
        lines.extend(
            arena
                .handles()
                .map(|h| format!("kept {:?}", arena.to_ledger(h))),
        );
        lines.push(format!("cache {:?}", mw.engine_cache_stats()));
        for c in 0..mw.n_cores() {
            let w = mw.core(c);
            lines.push(format!(
                "core {c} free {} cycles {} {:?}",
                mw.free_at(c),
                w.cycles,
                w.stats
            ));
        }
        lines
    }

    #[test]
    fn replaying_plans_matches_pricing_every_step() {
        // Generated rosters through both loops under every placement and
        // autoscale, both attribution modes and windows 1 and 8, on four
        // roster systems and two topologies. The plan side reuses one
        // scratch across every world of the case, so a plan that
        // outlived its run would replay on the wrong world.
        ycsb::check(
            "replaying_plans_matches_pricing_every_step",
            24,
            &[],
            gen_case,
            |case| {
                let placements = [
                    Placement::SameCore,
                    Placement::Pinned(case.pinned.clone()),
                    Placement::RoundRobin,
                    Placement::LeastLoaded,
                ];
                let mut loops: Vec<_> = placements
                    .iter()
                    .flat_map(|p| [Loop::Closed(p.clone(), 1), Loop::Closed(p.clone(), 8)])
                    .collect();
                loops.extend(
                    placements
                        .iter()
                        .map(|p| Loop::Open(ServePolicy::Static(p.clone()))),
                );
                loops.push(Loop::Open(ServePolicy::Autoscale(case.autoscale.clone())));
                let mut scratch = [SweepScratch::new(), SweepScratch::new()];
                for mk in SYSTEMS {
                    for topo in [Topology::u500(), Topology::dual_socket()] {
                        for lp in &loops {
                            for sampled in [false, true] {
                                let [got, want] = [Pricing::Plans, Pricing::Reference].map(|p| {
                                    let mut mw =
                                        MultiWorld::builder().topology(topo.clone()).build(mk);
                                    for program in &case.programs {
                                        mw.register_program(program.clone());
                                    }
                                    let scratch =
                                        &mut scratch[usize::from(p == Pricing::Reference)];
                                    digest(case, &mut mw, lp, sampled, p, scratch)
                                });
                                if let Some(i) = (0..got.len().max(want.len()))
                                    .find(|&i| got.get(i) != want.get(i))
                                {
                                    let (name, mode) =
                                        (mk().name(), if sampled { "sampled" } else { "full" });
                                    let what = match lp {
                                        Loop::Closed(p, w) => format!("closed {} w{w}", p.label()),
                                        Loop::Open(p) => format!("open {}", p.label()),
                                    };
                                    return Err(format!(
                                        "{name} on {} sockets, {what}, {mode}: line {i}\n  plans     {:?}\n  reference {:?}",
                                        topo.sockets, got.get(i), want.get(i)
                                    ));
                                }
                            }
                        }
                    }
                }
                Ok(())
            },
        );
    }
}
