//! Deterministic windowed load generation over a [`MultiWorld`].
//!
//! The §5.4 evaluation serves one request at a time; the ROADMAP's
//! north star is a system under *concurrent* load. This module drives
//! request recipes (sequences of [`Step`]s in service-id space) through
//! N cores in virtual time:
//!
//! * **windowed clients** — a fixed population of clients, each keeping
//!   up to `window` requests outstanding ([`run_windowed`]). `window =
//!   1` is the classic closed loop: a client issues its next request
//!   only after the previous one completes (plus think time). Wider
//!   windows model asynchronous submission: the client fires `window`
//!   requests back-to-back and replaces each as it completes;
//! * **FIFO cores in virtual time** — each core is a FIFO server
//!   ([`MultiWorld::free_at`]); a step issued at `t` starts at
//!   `max(t, core_free)`. In windowed runs the wait `core_free - t` is
//!   attributed to [`Phase::Queue`] in the request ledger, so the report
//!   shows where time goes as the window opens. Closed-loop runs keep
//!   their historical ledgers untouched (no `Queue` spans) — waiting is
//!   folded into latency as it always was;
//! * **deterministic** — request ordering is "lowest issue-time first,
//!   ties to the lowest client index", and the only randomness is the
//!   in-tree seeded [`ycsb::rng`], so the same seed reproduces the same
//!   percentile report bit for bit — and `window = 1` reproduces the
//!   pre-windowed closed-loop report exactly;
//! * **ledger-derived** — every hop charges its phase spans into the
//!   request's [`Attribution`] sink; a request's latency is the
//!   virtual-time span from issue to last step (queueing included), and
//!   the report's phase breakdown (how much of the fleet's IPC time was
//!   cross-core, transfer, queueing, …) is the merged per-request
//!   ledger.

use crate::engine::{self, Clients};
use crate::ipc::EngineCacheStats;
use crate::ledger::{Attribution, CycleLedger, LedgerArena, Phase};
use crate::multicore::{MultiWorld, Placement, PlacementError};
use std::fmt;

// The scratch buffers are the engine's; named here because threading one
// through a sweep is this module's vocabulary.
pub use crate::engine::SweepScratch;

// Recipes are sequences of `Step`s in *service-id* space; the same enum,
// resolved to core space, is what `MultiWorld::exec` runs. Re-exported
// here because recipe construction is this module's vocabulary.
pub use crate::multicore::Step;

/// Closed-loop generator parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadGen {
    /// Concurrent clients (closed population).
    pub clients: usize,
    /// Total requests to issue across all clients.
    pub requests: u64,
    /// Seed for recipe selection (and nothing else).
    pub seed: u64,
    /// Client think time between a completion and the next issue.
    pub think_cycles: u64,
}

impl Default for LoadGen {
    fn default() -> Self {
        LoadGen {
            clients: 16,
            requests: 400,
            seed: 0x59c5_bdad,
            think_cycles: 0,
        }
    }
}

/// A load run was asked to do something structurally impossible. Raised
/// at [`run_windowed_with`] (and [`crate::serve::serve_with`]) *entry*,
/// before any request is priced — previously these were `assert!`s (and
/// the empty-roster case relied on `Rng::below`'s `debug_assert!`, so a
/// release build would draw index 0 from an empty roster and panic on
/// the slice access downstream instead of reporting the actual problem).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// The recipe roster is empty: there is nothing to draw, and
    /// `Rng::below(0)` has no uniform value to produce.
    EmptyRecipes,
    /// The client population is zero — no one can ever issue.
    NoClients,
    /// `window = 0`: a client must keep at least one request in flight.
    ZeroWindow,
    /// The placement policy rejected a service → core map.
    Placement(PlacementError),
    /// A recipe step (or the fused program it dispatches) names a
    /// service outside the `n_services` a placement maps.
    ServiceOutOfRange {
        /// Roster index of the recipe.
        recipe: usize,
        /// Index of the step within the recipe.
        step: usize,
        /// The largest service id the step names.
        service: usize,
        /// Services the placement maps.
        n_services: usize,
    },
    /// A [`Step::Fused`] names a program this world never registered
    /// (an id from another world's table, say).
    UnknownProgram {
        /// Roster index of the recipe.
        recipe: usize,
        /// Index of the step within the recipe.
        step: usize,
        /// [`ProgramId::index`](crate::ProgramId::index) of the id.
        program: usize,
        /// Programs registered on this world.
        n_programs: usize,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::EmptyRecipes => write!(f, "empty recipe roster: nothing to draw"),
            LoadError::NoClients => write!(f, "zero clients: no one can issue requests"),
            LoadError::ZeroWindow => {
                write!(
                    f,
                    "window = 0: a client keeps at least one request in flight"
                )
            }
            LoadError::Placement(e) => write!(f, "placement rejected the core map: {e}"),
            LoadError::ServiceOutOfRange {
                recipe,
                step,
                service,
                n_services,
            } => write!(
                f,
                "recipe {recipe} step {step} names service {service} of {n_services}"
            ),
            LoadError::UnknownProgram {
                recipe,
                step,
                program,
                n_programs,
            } => write!(
                f,
                "recipe {recipe} step {step} dispatches program {program}, \
                 but this world registered {n_programs}"
            ),
        }
    }
}

/// Check every step of `recipes` against `mw` and the `n_services` a
/// placement maps, once, before any request is priced: every service id
/// a step names (`from` / `to` / `at`, and a fused program's client and
/// hop services) is below `n_services`, and every [`Step::Fused`] id is
/// registered on `mw`. The per-request path indexes the placement map
/// and the program table by these ids unchecked.
pub(crate) fn check_roster(
    mw: &MultiWorld,
    n_services: usize,
    recipes: &[Vec<Step>],
) -> Result<(), LoadError> {
    for (recipe, steps) in recipes.iter().enumerate() {
        for (step, &s) in steps.iter().enumerate() {
            let service = match s {
                Step::Oneway { from, to, .. }
                | Step::Batch { from, to, .. }
                | Step::Roundtrip { from, to, .. } => from.max(to),
                Step::Compute { at, .. } | Step::DataPass { at, .. } => at,
                Step::Fused(id) => {
                    if id.index() >= mw.n_programs() {
                        return Err(LoadError::UnknownProgram {
                            recipe,
                            step,
                            program: id.index(),
                            n_programs: mw.n_programs(),
                        });
                    }
                    mw.program(id).max_service()
                }
            };
            if service >= n_services {
                return Err(LoadError::ServiceOutOfRange {
                    recipe,
                    step,
                    service,
                    n_services,
                });
            }
        }
    }
    Ok(())
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Placement(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlacementError> for LoadError {
    fn from(e: PlacementError) -> Self {
        LoadError::Placement(e)
    }
}

/// The percentile report of one load run. All quantities derive from
/// per-request virtual-time spans and merged invocation ledgers; two
/// runs with the same seed produce identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// IPC system under test.
    pub system: String,
    /// Placement policy label.
    pub policy: &'static str,
    /// Cores in the world.
    pub cores: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests each client keeps outstanding (1 = closed loop).
    pub window: usize,
    /// Requests completed.
    pub requests: u64,
    /// IPC invocations issued (a [`Step::Batch`] of n counts n).
    pub ipc_calls: u64,
    /// Virtual time of the last completion.
    pub makespan_cycles: u64,
    /// Busy cycles summed over cores (utilization numerator).
    pub busy_cycles: u64,
    /// Completed requests per second of virtual time.
    pub throughput_rps: f64,
    /// Mean request latency (µs).
    pub mean_us: f64,
    /// Median request latency (µs).
    pub p50_us: f64,
    /// 95th-percentile request latency (µs).
    pub p95_us: f64,
    /// 99th-percentile request latency (µs).
    pub p99_us: f64,
    /// Phase ledger merged over every request's IPC invocations (plus
    /// [`Phase::Queue`] waiting, windowed runs only).
    pub ledger: CycleLedger,
    /// Engine-cache counters summed over cores, for systems that model
    /// one ([`None`] otherwise).
    pub engine_cache: Option<EngineCacheStats>,
}

impl LoadReport {
    /// Fraction of all IPC cycles that were cross-core surcharge.
    pub fn cross_core_fraction(&self) -> f64 {
        self.phase_fraction(Phase::CrossCore)
    }

    /// Fraction of all ledger cycles that were queue waiting (0 in
    /// closed-loop runs, which do not attribute waiting).
    pub fn queue_fraction(&self) -> f64 {
        self.phase_fraction(Phase::Queue)
    }

    fn phase_fraction(&self, phase: Phase) -> f64 {
        let total = self.ledger.total();
        if total == 0 {
            0.0
        } else {
            self.ledger.get(phase) as f64 / total as f64
        }
    }
}

/// Drive `spec.requests` requests from `spec.clients` *windowed*
/// clients through `mw` under `policy`: each client keeps up to `window`
/// requests outstanding (`window = 1` is the closed loop), issuing a
/// replacement (after think time) as the oldest-completing one finishes.
/// Each request uses a recipe drawn from `recipes` by the seeded RNG;
/// `n_services` is the recipe service-id space (service 0 is the
/// client). Issue order is "lowest issue-time first, ties to the lowest
/// client index"; cores serve FIFO in virtual time, and (for
/// `window > 1`) per-step queue waiting is charged to [`Phase::Queue`]
/// in the report ledger.
///
/// # Panics
///
/// Panics on an input [`run_windowed_with`] rejects with a
/// [`LoadError`] (empty recipes, no clients, a zero window, a recipe service id
/// outside `n_services`, ...).
pub fn run_windowed(
    mw: &mut MultiWorld,
    policy: &Placement,
    n_services: usize,
    recipes: &[Vec<Step>],
    spec: &LoadGen,
    window: usize,
) -> LoadReport {
    let mut scratch = SweepScratch::new();
    let mut arena = LedgerArena::new();
    match run_windowed_with(
        mw,
        policy,
        n_services,
        recipes,
        spec,
        window,
        &mut scratch,
        Attribution::Full(&mut arena),
    ) {
        Ok(r) => r,
        Err(e) => panic!("run_windowed: {e}"),
    }
}

/// [`run_windowed`] with caller-provided scratch buffers and an explicit
/// [`Attribution`] sink — the zero-alloc hot path.
///
/// * `Attribution::Full` stages every request's span ledger through the
///   arena (truncating back after folding it into the report), and the
///   report is **bit-identical** to [`run_windowed`]'s.
/// * `Attribution::Sampled` accumulates every request into flat
///   [`PhaseTotals`](crate::ledger::PhaseTotals) (per-phase totals
///   *exactly* equal to full mode's —
///   flat sums commute with span merging) and additionally retains the
///   span ledger of 1-in-`every` requests in the arena. The report's
///   `ledger` is rendered from the totals in canonical [`Phase::ALL`]
///   order, so span *order* (and zero-cycle span presence) is the only
///   thing sampling gives up.
///
/// All latency, throughput, and counter fields are identical across
/// modes; only the report ledger's span layout differs as described.
///
/// # Errors
///
/// [`LoadError`] when the recipe roster is empty, the client population
/// is zero, the window is zero, a step names a service outside
/// `n_services` or a program `mw` never registered, or the placement
/// policy rejects a service → core map — all checked at entry (or, for
/// placement, at the offending request), before/without pricing
/// anything.
#[allow(clippy::too_many_arguments)] // the sweep axes are the signature
pub fn run_windowed_with(
    mw: &mut MultiWorld,
    policy: &Placement,
    n_services: usize,
    recipes: &[Vec<Step>],
    spec: &LoadGen,
    window: usize,
    scratch: &mut SweepScratch,
    att: Attribution<'_>,
) -> Result<LoadReport, LoadError> {
    if recipes.is_empty() {
        return Err(LoadError::EmptyRecipes);
    }
    if spec.clients == 0 {
        return Err(LoadError::NoClients);
    }
    if window == 0 {
        return Err(LoadError::ZeroWindow);
    }
    check_roster(mw, n_services, recipes)?;
    let mut clients = Clients::new(policy, n_services, recipes.len(), spec, window, scratch);
    let out = engine::run(mw, recipes, &mut clients, scratch, att)?;
    Ok(LoadReport {
        throughput_rps: out.per_second(out.priced),
        system: out.system,
        policy: policy.label(),
        cores: out.cores,
        clients: spec.clients,
        window,
        requests: out.priced,
        ipc_calls: out.ipc_calls,
        makespan_cycles: out.makespan_cycles,
        busy_cycles: out.busy_cycles,
        mean_us: out.tail.mean_us,
        p50_us: out.tail.p50_us,
        p95_us: out.tail.p95_us,
        p99_us: out.tail.p99_us,
        ledger: out.ledger,
        engine_cache: out.engine_cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{drive_request, percentile, ReqSink};
    use crate::ipc::IpcSystem;
    use crate::ledger::InvokeOpts;
    use crate::multicore::CoreId;
    use crate::program::ProgramId;
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
            Step::Compute { at: 1, cycles: 500 },
            Step::Roundtrip {
                from: 1,
                to: 2,
                request: 16,
                response: 1024,
            },
            Step::Oneway {
                from: 1,
                to: 0,
                bytes: 1024,
            },
        ]
    }

    fn spec() -> LoadGen {
        LoadGen {
            clients: 4,
            requests: 100,
            seed: 7,
            think_cycles: 0,
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let run_once = || {
            let mut mw = mw(4);
            run_windowed(&mut mw, &Placement::RoundRobin, 3, &[recipe()], &spec(), 1)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn different_seeds_may_differ_but_stay_consistent() {
        let mut mw = mw(2);
        let r = run_windowed(&mut mw, &Placement::SameCore, 3, &[recipe()], &spec(), 1);
        assert_eq!(r.requests, 100);
        assert!(r.makespan_cycles > 0);
        assert!(r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
        assert!(r.throughput_rps > 0.0);
        // Same-core runs never pay cross-core.
        assert_eq!(r.ledger.get(Phase::CrossCore), 0);
    }

    #[test]
    fn scale_out_wins_once_work_dominates_the_surcharge() {
        // With heavy per-request compute the cross-core tax is amortized
        // and 4 cores beat 1; with a tiny request it is not (the §5.2
        // point: cross-core IPC costs ~10k cycles, so spreading cheap
        // calls across cores is a loss for message-passing kernels).
        let heavy = {
            let mut r = recipe();
            r.push(Step::Compute {
                at: 1,
                cycles: 50_000,
            });
            r
        };
        let mut one = mw(1);
        let base = run_windowed(
            &mut one,
            &Placement::SameCore,
            3,
            std::slice::from_ref(&heavy),
            &spec(),
            1,
        );
        let mut four = mw(4);
        let scaled = run_windowed(&mut four, &Placement::RoundRobin, 3, &[heavy], &spec(), 1);
        assert!(
            scaled.throughput_rps > base.throughput_rps,
            "round-robin over 4 cores ({:.0} rps) should beat 1 core ({:.0} rps)",
            scaled.throughput_rps,
            base.throughput_rps
        );
        // Cross-core hops were actually priced.
        assert!(scaled.ledger.get(Phase::CrossCore) > 0);
        assert!(scaled.cross_core_fraction() > 0.0);

        // Tiny requests: the surcharge dominates and scale-out loses.
        let mut one = mw(1);
        let base = run_windowed(&mut one, &Placement::SameCore, 3, &[recipe()], &spec(), 1);
        let mut four = mw(4);
        let scaled = run_windowed(
            &mut four,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &spec(),
            1,
        );
        assert!(scaled.throughput_rps < base.throughput_rps);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn empty_recipe_roster_is_a_typed_error_not_a_draw_from_nothing() {
        // The release-mode failure this forecloses: `Rng::below(0)`
        // used to debug_assert only, so a release build would "draw" 0
        // from an empty roster and panic on the slice index downstream.
        // Now the roster is validated at entry with a typed error.
        let mut mw = mw(2);
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let err = run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            3,
            &[],
            &spec(),
            1,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        assert_eq!(err, LoadError::EmptyRecipes);
        assert!(err.to_string().contains("empty recipe roster"));
    }

    #[test]
    fn zero_clients_and_zero_window_are_typed_errors() {
        let mut mw = mw(2);
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let no_clients = LoadGen {
            clients: 0,
            ..spec()
        };
        let err = run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &no_clients,
            1,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        assert_eq!(err, LoadError::NoClients);
        let err = run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &spec(),
            0,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        assert_eq!(err, LoadError::ZeroWindow);
    }

    #[test]
    fn rejected_placement_surfaces_as_a_typed_error() {
        let mut mw = mw(2);
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        // A pinned map covering 1 service cannot place a 3-service recipe.
        let err = run_windowed_with(
            &mut mw,
            &Placement::Pinned(vec![0]),
            3,
            &[recipe()],
            &spec(),
            1,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        assert!(matches!(err, LoadError::Placement(_)), "{err}");
    }

    /// `recipes` through both front doors on a fresh 2-core world
    /// (`programs` fused programs registered on it): the closed loop's
    /// error, and the open loop's.
    fn both_front_doors(
        programs: usize,
        n_services: usize,
        recipes: &[Vec<Step>],
    ) -> (LoadError, crate::serve::ServeError) {
        use crate::serve::{serve, ArrivalTrace, ServePolicy, ServeSpec};
        let world = || {
            let mut w = mw(2);
            for _ in 0..programs {
                let program = crate::program::Recipe::new(0).hop(1, 64).build().unwrap();
                let _ = w.register_program(program);
            }
            w
        };
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let closed = run_windowed_with(
            &mut world(),
            &Placement::RoundRobin,
            n_services,
            recipes,
            &spec(),
            1,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap_err();
        let trace = ArrivalTrace::from_arrivals(vec![crate::serve::Arrival {
            at: 0,
            tenant: 0,
            recipe: 0,
        }])
        .unwrap();
        let policy = ServePolicy::Static(Placement::RoundRobin);
        let open = serve(
            &mut world(),
            &policy,
            n_services,
            recipes,
            &trace,
            &ServeSpec::default(),
        )
        .unwrap_err();
        (closed, open)
    }

    #[test]
    fn a_step_naming_a_service_outside_the_map_is_a_typed_error() {
        // Service 3 of a 3-service map used to index past the placement
        // map on the first request that drew the recipe: a host panic.
        let stray = vec![recipe(), vec![Step::Compute { at: 3, cycles: 10 }]];
        let want = LoadError::ServiceOutOfRange {
            recipe: 1,
            step: 0,
            service: 3,
            n_services: 3,
        };
        let (closed, open) = both_front_doors(0, 3, &stray);
        assert_eq!(closed, want);
        assert_eq!(open, crate::serve::ServeError::Load(want));
        assert!(closed.to_string().contains("names service 3 of 3"));
        // A fused program's hop services are checked as well.
        let (closed, _) = both_front_doors(1, 1, &[vec![Step::Fused(ProgramId::from_index(0))]]);
        assert_eq!(
            closed,
            LoadError::ServiceOutOfRange {
                recipe: 0,
                step: 0,
                service: 1,
                n_services: 1,
            }
        );
    }

    #[test]
    fn a_fused_step_from_another_world_is_a_typed_error() {
        // Program 2 of a world with three registered, dispatched on a
        // world with one: the program-table index used to panic.
        let mut other = mw(2);
        let mut foreign = ProgramId::from_index(0);
        for _ in 0..3 {
            let program = crate::program::Recipe::new(0).hop(1, 64).build().unwrap();
            foreign = other.register_program(program);
        }
        let roster = [vec![Step::Fused(foreign)]];
        let want = LoadError::UnknownProgram {
            recipe: 0,
            step: 0,
            program: 2,
            n_programs: 1,
        };
        let (closed, open) = both_front_doors(1, 3, &roster);
        assert_eq!(closed, want);
        assert_eq!(open, crate::serve::ServeError::Load(want));
        assert!(closed.to_string().contains("registered 1"));
    }

    #[test]
    fn scratch_reused_across_shrinking_cells_matches_a_fresh_scratch() {
        // Regression for cross-cell contamination: run a large cell
        // (many clients, deep windows — every scratch buffer grows),
        // then a small cell with the *same* scratch, and require the
        // small cell's report to be bit-identical to one produced with
        // a fresh scratch. Every buffer the large cell dirtied (issue
        // heap, per-client outstanding heaps beyond the small cell's
        // client count, latency sample) must have been cleared on entry.
        let big = LoadGen {
            clients: 64,
            requests: 400,
            seed: 9,
            think_cycles: 10,
        };
        let small = LoadGen {
            clients: 3,
            requests: 50,
            seed: 4,
            think_cycles: 0,
        };
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let mut mw_big = mw(4);
        let _ = run_windowed_with(
            &mut mw_big,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &big,
            16,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        let mut mw_small = mw(4);
        let reused = run_windowed_with(
            &mut mw_small,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &small,
            2,
            &mut scratch,
            Attribution::Full(&mut arena),
        )
        .unwrap();
        let mut fresh_scratch = SweepScratch::new();
        let mut fresh_arena = LedgerArena::new();
        let mut mw_fresh = mw(4);
        let fresh = run_windowed_with(
            &mut mw_fresh,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &small,
            2,
            &mut fresh_scratch,
            Attribution::Full(&mut fresh_arena),
        )
        .unwrap();
        assert_eq!(reused, fresh, "reused scratch must not leak state");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_rejects_q_above_one() {
        // q = 1.5 used to clamp silently to the maximum; the nearest-rank
        // contract now debug-asserts the quantile range.
        let v: Vec<u64> = (1..=10).collect();
        let _ = percentile(&v, 1.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_rejects_nan_q() {
        // A NaN rank would otherwise feed the f64 -> usize cast, whose
        // NaN result (0) is an artifact, not a quantile.
        let v: Vec<u64> = (1..=10).collect();
        let _ = percentile(&v, f64::NAN);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty slice: 0 at every quantile.
        assert_eq!(percentile(&[], 0.0), 0);
        assert_eq!(percentile(&[], 1.0), 0);
        // Single element: that element at every quantile.
        assert_eq!(percentile(&[42], 0.0), 42);
        assert_eq!(percentile(&[42], 0.5), 42);
        assert_eq!(percentile(&[42], 1.0), 42);
        // q = 0.0 clamps to the first element, q = 1.0 is the last.
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 10);
        // Tiny q still lands on the first element, not out of range.
        assert_eq!(percentile(&v, 0.001), 1);
        // Nearest-rank rounding: rank = ceil(q * n), so q just past a
        // rank boundary steps to the next element.
        assert_eq!(percentile(&v, 0.10), 1);
        assert_eq!(percentile(&v, 0.1000001), 2);
        assert_eq!(percentile(&v, 0.899), 9);
        assert_eq!(percentile(&v, 0.901), 10);
        // Duplicates: the rank convention reads through them unchanged.
        assert_eq!(percentile(&[5, 5, 5, 7], 0.75), 5);
        assert_eq!(percentile(&[5, 5, 5, 7], 0.76), 7);
    }

    /// One request through the engine's request driver, its spans as an
    /// owned ledger — what the two oracles below price with.
    fn price_one(
        mw: &mut MultiWorld,
        map: &[CoreId],
        steps: &[Step],
        t0: u64,
        attribute_queue: bool,
    ) -> (u64, CycleLedger) {
        let mut arena = LedgerArena::new();
        let h = arena.begin();
        let mut sink = ReqSink {
            run: None,
            totals: None,
            arena: Some((&mut arena, h)),
        };
        let mut step_ledger = CycleLedger::new();
        let (done, _) = drive_request(
            mw,
            map,
            steps,
            t0,
            attribute_queue,
            &mut step_ledger,
            &mut sink,
        );
        (done, arena.to_ledger(h))
    }

    /// The closed-loop driver exactly as it existed before the windowed
    /// refactor — kept here as the issue-order oracle that pins
    /// `run_windowed(window = 1)` to the historical behavior bit for bit.
    fn closed_loop_oracle(
        mw: &mut MultiWorld,
        policy: &Placement,
        n_services: usize,
        recipes: &[Vec<Step>],
        spec: &LoadGen,
    ) -> (Vec<u64>, CycleLedger, u64) {
        let mut rng = ycsb::rng::Rng::seed_from_u64(spec.seed);
        let mut ready = vec![0u64; spec.clients];
        let mut latencies = Vec::new();
        let mut ledger = CycleLedger::new();
        let mut makespan = 0u64;
        for r in 0..spec.requests {
            let mut c = 0;
            for i in 1..ready.len() {
                if ready[i] < ready[c] {
                    c = i;
                }
            }
            let t0 = ready[c];
            let pick = usize::try_from(rng.below(recipes.len() as u64)).expect("index fits usize");
            let recipe = &recipes[pick];
            let mut map = Vec::new();
            policy
                .assign_into(r, n_services, mw, &mut map)
                .expect("placement rejected the core map");
            let (done, req_ledger) = price_one(mw, &map, recipe, t0, false);
            ledger.merge(&req_ledger);
            latencies.push(done - t0);
            makespan = makespan.max(done);
            ready[c] = done + spec.think_cycles;
        }
        latencies.sort_unstable();
        (latencies, ledger, makespan)
    }

    #[test]
    fn window_of_one_reproduces_the_closed_loop_bit_for_bit() {
        let spec = LoadGen {
            think_cycles: 250,
            ..spec()
        };
        let mut oracle_mw = mw(4);
        let (lat, ledger, makespan) = closed_loop_oracle(
            &mut oracle_mw,
            &Placement::RoundRobin,
            3,
            &[recipe()],
            &spec,
        );
        // Built explicitly on the single-socket u500 preset: the NUMA-aware
        // pipeline must reproduce the historical closed loop bit for bit.
        let mut mw = MultiWorld::builder()
            .topology(Topology::u500())
            .build(|| Box::new(Fixed));
        let r = run_windowed(&mut mw, &Placement::RoundRobin, 3, &[recipe()], &spec, 1);
        assert_eq!(r.ledger, ledger, "same merged ledger, span for span");
        assert_eq!(r.makespan_cycles, makespan);
        assert_eq!(r.busy_cycles, oracle_mw.busy_cycles());
        let hz = mw.core(0).cost.clock_hz;
        assert_eq!(r.p99_us, percentile(&lat, 0.99) as f64 / hz as f64 * 1e6);
        // No queue attribution in the closed loop — not even zero spans.
        assert_eq!(r.ledger.get(Phase::Queue), 0);
        assert!(!r.ledger.spans().iter().any(|(p, _)| *p == Phase::Queue));
    }

    /// The windowed driver exactly as it existed before the event-queue
    /// refactor: an O(clients) linear min-scan picks the next issuer and
    /// an O(window) linear min-scan picks the completion a full window
    /// replaces. Pins the `BinaryHeap` event queues to the historical
    /// order ("lowest time first, ties to the lowest client index").
    fn windowed_linear_oracle(
        mw: &mut MultiWorld,
        policy: &Placement,
        n_services: usize,
        recipes: &[Vec<Step>],
        spec: &LoadGen,
        window: usize,
    ) -> (Vec<u64>, CycleLedger, u64) {
        let attribute_queue = window > 1;
        let mut rng = ycsb::rng::Rng::seed_from_u64(spec.seed);
        let mut avail = vec![0u64; spec.clients];
        let mut outstanding: Vec<Vec<u64>> = vec![Vec::new(); spec.clients];
        let mut latencies = Vec::new();
        let mut ledger = CycleLedger::new();
        let mut makespan = 0u64;
        for r in 0..spec.requests {
            let mut c = 0;
            for i in 1..avail.len() {
                if avail[i] < avail[c] {
                    c = i;
                }
            }
            let t0 = avail[c];
            let pick = usize::try_from(rng.below(recipes.len() as u64)).expect("index fits usize");
            let recipe = &recipes[pick];
            let mut map = Vec::new();
            policy
                .assign_into(r, n_services, mw, &mut map)
                .expect("placement rejected the core map");
            let (done, req_ledger) = price_one(mw, &map, recipe, t0, attribute_queue);
            ledger.merge(&req_ledger);
            latencies.push(done - t0);
            makespan = makespan.max(done);
            outstanding[c].push(done + spec.think_cycles);
            avail[c] = if outstanding[c].len() >= window {
                let (min_i, _) = outstanding[c]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .expect("window >= 1");
                let first_done = outstanding[c].swap_remove(min_i);
                t0.max(first_done)
            } else {
                t0
            };
        }
        latencies.sort_unstable();
        (latencies, ledger, makespan)
    }

    #[test]
    fn heap_event_queues_match_the_linear_scan_oracle() {
        // The determinism pin for the event-queue satellite: for every
        // window the heap-driven run reproduces the linear-scan driver's
        // latency percentiles, merged ledger, and makespan exactly.
        let spec = LoadGen {
            think_cycles: 350,
            ..spec()
        };
        for window in [1usize, 4, 16] {
            let mut oracle_mw = mw(4);
            let (lat, ledger, makespan) = windowed_linear_oracle(
                &mut oracle_mw,
                &Placement::RoundRobin,
                3,
                &[recipe()],
                &spec,
                window,
            );
            let mut heap_mw = mw(4);
            let r = run_windowed(
                &mut heap_mw,
                &Placement::RoundRobin,
                3,
                &[recipe()],
                &spec,
                window,
            );
            assert_eq!(r.ledger, ledger, "w={window}: same spans");
            assert_eq!(r.makespan_cycles, makespan, "w={window}");
            let hz = heap_mw.core(0).cost.clock_hz;
            for (q, got) in [(0.50, r.p50_us), (0.95, r.p95_us), (0.99, r.p99_us)] {
                let want = percentile(&lat, q) as f64 / hz as f64 * 1e6;
                assert_eq!(got, want, "w={window} q={q}");
            }
        }
    }

    #[test]
    fn windowed_same_seed_is_bit_identical() {
        let run_once = || {
            let mut mw = mw(4);
            run_windowed(&mut mw, &Placement::RoundRobin, 3, &[recipe()], &spec(), 16)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn open_windows_attribute_queueing() {
        // 4 clients with 4 requests in flight each against one core:
        // almost everything waits, and the wait lands in Phase::Queue.
        let heavy = vec![Step::Roundtrip {
            from: 0,
            to: 1,
            request: 64,
            response: 4096,
        }];
        let mut mw = mw(1);
        let r = run_windowed(&mut mw, &Placement::SameCore, 2, &[heavy], &spec(), 4);
        assert!(r.ledger.get(Phase::Queue) > 0, "contention must queue");
        assert!(r.queue_fraction() > 0.0);
        assert_eq!(r.window, 4);
        // Queue time is *waiting*, not work: it never inflates core busy
        // cycles, so utilization stays bounded by the makespan.
        assert!(r.busy_cycles <= r.cores as u64 * r.makespan_cycles);
    }

    #[test]
    fn wider_windows_do_not_reduce_throughput() {
        // With think time dominating service time the closed loop leaves
        // cores idle while clients think; an open window hides that.
        let spec = LoadGen {
            clients: 4,
            requests: 200,
            seed: 11,
            think_cycles: 200_000,
        };
        let rps = |window: usize| {
            let mut mw = mw(2);
            run_windowed(
                &mut mw,
                &Placement::RoundRobin,
                3,
                &[recipe()],
                &spec,
                window,
            )
            .throughput_rps
        };
        let (w1, w4, w16) = (rps(1), rps(4), rps(16));
        assert!(
            w4 > w1,
            "window 4 ({w4:.0} rps) must beat closed loop ({w1:.0} rps)"
        );
        assert!(
            w16 >= w4,
            "window 16 ({w16:.0} rps) vs window 4 ({w4:.0} rps)"
        );
    }

    #[test]
    fn batch_steps_count_their_calls() {
        let burst = vec![Step::Batch {
            from: 0,
            to: 1,
            calls: 8,
            bytes_each: 64,
        }];
        let mut mw = mw(2);
        let spec = LoadGen {
            clients: 2,
            requests: 10,
            seed: 3,
            think_cycles: 0,
        };
        let r = run_windowed(&mut mw, &Placement::RoundRobin, 2, &[burst], &spec, 1);
        assert_eq!(r.ipc_calls, 80);
        assert_eq!(r.requests, 10);
        // `Fixed` amortizes nothing, so the batch costs 8 full calls.
        assert_eq!(r.ledger.get(Phase::Trap), 80 * 100);
        assert_eq!(r.engine_cache, None);
    }

    #[test]
    fn zero_call_batches_in_a_recipe_price_as_nothing() {
        // `calls: 0` in a caller-supplied recipe used to panic inside the
        // batch pricing; it is an empty step, and the rest of the
        // request prices as if it were not there.
        let with_empty = vec![
            Step::Batch {
                from: 0,
                to: 1,
                calls: 0,
                bytes_each: 64,
            },
            Step::Oneway {
                from: 0,
                to: 1,
                bytes: 64,
            },
        ];
        let without = vec![with_empty[1]];
        let spec = LoadGen {
            clients: 2,
            requests: 10,
            seed: 3,
            think_cycles: 0,
        };
        let mut scratch = SweepScratch::new();
        let mut arena = LedgerArena::new();
        let mut go = |recipe: Vec<Step>| {
            run_windowed_with(
                &mut mw(2),
                &Placement::RoundRobin,
                2,
                &[recipe],
                &spec,
                2,
                &mut scratch,
                Attribution::Full(&mut arena),
            )
            .unwrap()
        };
        let r = go(with_empty);
        assert_eq!(r.ipc_calls, 10, "the empty burst made no calls");
        assert_eq!(r, go(without));
    }

    #[test]
    fn fused_steps_drive_the_load_loop() {
        let mut mw = mw(3);
        let program = crate::program::Recipe::new(0)
            .hop(1, 64)
            .hop(2, 128)
            .reply(16)
            .build()
            .unwrap();
        let id = mw.register_program(program);
        let fused = vec![vec![Step::Fused(id)]];
        let spec = LoadGen {
            clients: 2,
            requests: 10,
            seed: 3,
            think_cycles: 0,
        };
        let r = run_windowed(&mut mw, &Placement::RoundRobin, 3, &fused, &spec, 1);
        assert_eq!(r.requests, 10);
        assert_eq!(r.ipc_calls, 20, "two hops per fused request");
        assert!(r.ledger.total() > 0);
        assert!(r.throughput_rps > 0.0);
    }

    #[test]
    fn windowed_fused_runs_attribute_queueing_in_full_and_sampled_modes() {
        let mut mw = mw(2);
        let program = crate::program::Recipe::new(0)
            .hop(1, 64)
            .reply(4096)
            .build()
            .unwrap();
        let id = mw.register_program(program);
        let fused = vec![vec![Step::Fused(id)]];
        let r = run_windowed(&mut mw, &Placement::SameCore, 2, &fused, &spec(), 4);
        assert!(r.ledger.get(Phase::Queue) > 0, "contention must queue");
        // Sampled attribution reports identical totals.
        let mut mw2 = mw2_with_program();
        let mut scratch = SweepScratch::new();
        let mut totals = crate::ledger::PhaseTotals::new();
        let mut arena = LedgerArena::new();
        let sampled = run_windowed_with(
            &mut mw2,
            &Placement::SameCore,
            2,
            &fused,
            &spec(),
            4,
            &mut scratch,
            Attribution::Sampled {
                every: 4,
                totals: &mut totals,
                arena: &mut arena,
            },
        )
        .unwrap();
        assert_eq!(sampled.ledger.total(), r.ledger.total());
        assert_eq!(sampled.ipc_calls, r.ipc_calls);
        assert_eq!(sampled.makespan_cycles, r.makespan_cycles);
    }

    fn mw2_with_program() -> MultiWorld {
        let mut w = mw(2);
        let program = crate::program::Recipe::new(0)
            .hop(1, 64)
            .reply(4096)
            .build()
            .unwrap();
        let _ = w.register_program(program);
        w
    }

    #[test]
    fn busy_cycles_bounded_by_cores_times_makespan() {
        let mut mw = mw(4);
        let r = run_windowed(&mut mw, &Placement::LeastLoaded, 3, &[recipe()], &spec(), 1);
        assert!(r.busy_cycles <= r.cores as u64 * r.makespan_cycles);
    }
}
