//! **Pipeline** — the windowed asynchronous invocation pipeline with
//! call batching: each client keeps up to W requests outstanding
//! (`simos::load::run_windowed`), and each request submits bursts of
//! calls priced by `IpcSystem::invoke_batch`. XPC amortizes its whole
//! entry path across a burst (trampoline once, repeat `xcall`s hit the
//! engine's one-entry x-entry cache), trap-based kernels still trap and
//! switch per call — so the per-call gap *widens* with batch size, and
//! the `Phase::Queue` attribution shows where time goes as the window
//! opens. The `window = 1, batch = 1` corner is bit-identical to the
//! closed-loop generator (pinned by a test below).

use super::Report;
use kernels::{paired_roster_factories, Factory};
use simos::{Attribution, CostModel, LoadGen, LoadReport, MultiWorld, Placement, Step};
use std::cell::RefCell;

/// Cores in the pipeline world (client core + service core).
pub const CORES: usize = 2;

/// The window axis: requests each client keeps outstanding.
pub const WINDOWS: [usize; 3] = [1, 4, 16];

/// The batch axis: calls per burst submission.
pub const BATCHES: [u64; 3] = [1, 8, 64];

/// Payload bytes per call (the paper's small-message regime).
const BYTES_EACH: u64 = 64;

/// Service-side handling cycles per call.
const HANDLE_CYCLES_PER_CALL: u64 = 150;

/// The generator spec every cell runs under (fixed seed: the whole grid
/// is deterministic).
pub fn spec() -> LoadGen {
    LoadGen {
        clients: 8,
        requests: 240,
        seed: 0x59c5_bdad,
        think_cycles: 2_000,
    }
}

/// One pipelined request: a burst of `batch` calls into the service,
/// per-call handling there, and a batched reply burst back.
pub fn recipe(batch: u64) -> Vec<Step> {
    vec![
        Step::Batch {
            from: 0,
            to: 1,
            calls: batch,
            bytes_each: BYTES_EACH,
        },
        Step::Compute {
            at: 1,
            cycles: HANDLE_CYCLES_PER_CALL * batch,
        },
        Step::Batch {
            from: 1,
            to: 0,
            calls: batch,
            bytes_each: BYTES_EACH,
        },
    ]
}

/// Run the full (mechanism × window × batch) grid; each cell is
/// `(batch, report)` (the window is in the report).
pub fn results() -> Vec<(u64, LoadReport)> {
    let spec = spec();
    let all_bursts: Vec<Vec<Step>> = BATCHES.iter().map(|&b| recipe(b)).collect();
    super::verify::gate("Pipeline", 2, &all_bursts);
    // 36 (mechanism, window, batch) cells through the pool; per-worker
    // scratch keeps each worker's steady state allocation-free.
    let mut cells: Vec<(Factory, usize, u64)> = Vec::new();
    for mk in paired_roster_factories() {
        for &window in &WINDOWS {
            for &batch in &BATCHES {
                cells.push((mk, window, batch));
            }
        }
    }
    simos::par::map_cells(cells, |_, (mk, window, batch), scratch| {
        let mut mw = MultiWorld::builder().cores(CORES).build(mk);
        let r = simos::load::run_windowed_with(
            &mut mw,
            &Placement::RoundRobin,
            2,
            &[recipe(batch)],
            &spec,
            window,
            &mut scratch.sweep,
            Attribution::Full(&mut scratch.arena),
        )
        .expect("pipeline grid cell must be runnable");
        (batch, r)
    })
}

/// Completed IPC calls per second of virtual time.
pub fn calls_per_sec(r: &LoadReport) -> f64 {
    if r.makespan_cycles == 0 {
        return 0.0;
    }
    r.ipc_calls as f64 * CostModel::u500().clock_hz as f64 / r.makespan_cycles as f64
}

thread_local! {
    /// The grid [`run`] computed, parked for the [`json_section`] that
    /// follows it; take-once and thread-local, see the hand-off note in
    /// [`super`].
    static PARKED: RefCell<Option<Vec<(u64, LoadReport)>>> = const { RefCell::new(None) };
}

/// Regenerate the pipeline table.
pub fn run() -> Report {
    let grid = results();
    let report = table(&grid);
    PARKED.set(Some(grid));
    report
}

fn table(grid: &[(u64, LoadReport)]) -> Report {
    let rows = grid
        .iter()
        .map(|(batch, r)| {
            vec![
                r.system.clone(),
                r.window.to_string(),
                batch.to_string(),
                format!("{:.0}", calls_per_sec(r)),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:.0}%", r.queue_fraction() * 100.0),
                match r.engine_cache {
                    Some(s) => format!("{}", s.cache_hits),
                    None => "-".into(),
                },
            ]
        })
        .collect();
    Report {
        id: "Pipeline",
        caption: "Windowed async pipeline: calls/s and latency by (window, batch), 64B calls on 2 cores (8 clients x 240 reqs)",
        headers: vec![
            "System".into(),
            "Window".into(),
            "Batch".into(),
            "Calls/s".into(),
            "p50 us".into(),
            "p99 us".into(),
            "queue".into(),
            "cache hits".into(),
        ],
        rows,
    }
}

/// The `"pipeline"` section of `BENCH_figures.json`: one object per
/// (mechanism, window, batch) cell, engine-cache counters included, from
/// the grid of the [`run`] before it, else computed here.
pub fn json_section() -> String {
    let cells = PARKED
        .take()
        .unwrap_or_else(results)
        .iter()
        .map(|(batch, r)| {
            let engine = match r.engine_cache {
                Some(s) => format!(
                    "{{\"prefetches\": {}, \"cache_hits\": {}}}",
                    s.prefetches, s.cache_hits
                ),
                None => "null".into(),
            };
            format!(
                "    {{\"system\": \"{}\", \"window\": {}, \"batch\": {batch}, \
                 \"requests\": {}, \"ipc_calls\": {}, \"calls_per_sec\": {:.1}, \
                 \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"queue_fraction\": {:.4}, \
                 \"engine_cache\": {engine}}}",
                r.system,
                r.window,
                r.requests,
                r.ipc_calls,
                calls_per_sec(r),
                r.p50_us,
                r.p99_us,
                r.queue_fraction()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{cells}\n  ]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::Phase;

    #[test]
    fn the_grid_is_handed_off_once() {
        crate::experiments::assert_hand_off(
            || PARKED.with_borrow(Option::is_some),
            run,
            json_section,
        );
    }

    #[test]
    fn grid_covers_mechanisms_by_windows_by_batches() {
        let cells = results();
        assert_eq!(cells.len(), 4 * WINDOWS.len() * BATCHES.len());
        for (batch, r) in &cells {
            assert_eq!(r.cores, CORES);
            assert_eq!(r.requests, spec().requests);
            assert_eq!(r.ipc_calls, 2 * batch * r.requests);
            assert!(calls_per_sec(r) > 0.0, "{} w={}", r.system, r.window);
        }
    }

    #[test]
    fn closed_loop_corner_is_bit_identical_to_run() {
        // The acceptance pin: window=1, batch=1 must reproduce the
        // pre-windowed closed-loop report exactly, with no Queue spans.
        let mk = paired_roster_factories()[3]; // seL4-XPC
        let mut mw = MultiWorld::builder().cores(CORES).build(mk);
        let closed =
            simos::load::run_windowed(&mut mw, &Placement::RoundRobin, 2, &[recipe(1)], &spec(), 1);
        let cell = results()
            .into_iter()
            .find(|(b, r)| *b == 1 && r.window == 1 && r.system == "seL4-XPC")
            .map(|(_, r)| r)
            .expect("grid has the (seL4-XPC, w=1, b=1) cell");
        assert_eq!(cell, closed);
        assert_eq!(cell.ledger.get(Phase::Queue), 0);
        assert!(!cell.ledger.spans().iter().any(|(p, _)| *p == Phase::Queue));
    }

    #[test]
    fn queueing_appears_as_the_window_opens() {
        let cells = results();
        let cell = |sys: &str, w: usize, b: u64| {
            cells
                .iter()
                .find(|(batch, r)| r.system == sys && r.window == w && *batch == b)
                .map(|(_, r)| r)
                .unwrap()
        };
        for sys in ["Zircon", "seL4-XPC"] {
            assert_eq!(cell(sys, 1, 1).queue_fraction(), 0.0, "{sys}");
            assert!(
                cell(sys, 16, 1).ledger.get(Phase::Queue) > 0,
                "{sys}: 8 clients x 16 outstanding must queue on 2 cores"
            );
        }
    }

    #[test]
    fn batching_widens_the_xpc_gap() {
        // Per-call latency advantage of seL4-XPC over seL4 grows with
        // batch size: XPC amortizes its entry path, seL4 only half its
        // IPC logic.
        let cells = results();
        let rate = |sys: &str, b: u64| {
            cells
                .iter()
                .find(|(batch, r)| r.system == sys && r.window == 16 && *batch == b)
                .map(|(_, r)| calls_per_sec(r))
                .unwrap()
        };
        let gap_1 = rate("seL4-XPC", 1) / rate("seL4-onecopy", 1);
        let gap_64 = rate("seL4-XPC", 64) / rate("seL4-onecopy", 64);
        assert!(
            gap_64 > gap_1,
            "batch 64 gap {gap_64:.2}x must exceed batch 1 gap {gap_1:.2}x"
        );
    }

    #[test]
    fn engine_cache_counters_surface_for_xpc_only() {
        let cells = results();
        for (batch, r) in &cells {
            let is_xpc = r.system.contains("XPC");
            assert_eq!(r.engine_cache.is_some(), is_xpc, "{}", r.system);
            if let Some(s) = r.engine_cache {
                // Two call-leg bursts per request; bursts of 1 are not
                // counted (no cache interaction to report).
                let bursts = if *batch > 1 { 2 * r.requests } else { 0 };
                assert_eq!(s.prefetches, bursts, "{} b={batch}", r.system);
                assert_eq!(s.cache_hits, bursts * (batch - 1), "{}", r.system);
            }
        }
    }
}
