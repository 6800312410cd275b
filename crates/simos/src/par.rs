//! Deterministic scoped-thread work pool for independent sweep cells.
//!
//! Every grid experiment in the bench crate walks a small cross-product
//! of independent cells (mechanism × topology × policy × load). Each
//! cell re-seeds its generators internally (`LoadGen::seed`, the trace
//! seeds in `serve`) and builds a fresh `MultiWorld`, so a cell's result
//! is a pure function of its parameters — never of which worker ran it,
//! in what order, or what scratch buffers it reused. This module
//! exploits that: [`map_cells`] fans a `Vec` of cells over N scoped
//! threads ([`std::thread::scope`], zero external dependencies, no
//! `unsafe`) and reduces the results **in index order**, so the output
//! is byte-identical for any thread count.
//!
//! Determinism contract:
//!
//! * **Index-ordered reduction** — results land in a slot vector by cell
//!   index and are drained `0..n`, so completion order is invisible.
//! * **Per-worker arenas** — each worker owns one [`CellScratch`]
//!   (engine scratch + ledger arena) reused across the cells it
//!   happens to draw. Scratch reuse is a pure allocation optimisation:
//!   both `run_windowed_with` and `serve_with` clear scratch on entry,
//!   and the cross-cell hygiene is pinned by tests in `load`/`serve`.
//!   Steady state allocates nothing per cell beyond what the serial
//!   path already did.
//! * **Seed splitting** — cells that need their own random stream derive
//!   it as `ycsb::Rng::split(grid_seed, cell_index)`, a pure function of
//!   the cell index (see `ycsb::rng::stream_seed`), never from shared
//!   mutable generator state.
//! * **N = 1 is the serial path** — one worker means a plain in-order
//!   loop on the calling thread with a single scratch shared across
//!   cells, exactly the pre-pool code shape.
//!
//! `Send` audit (why no bounds needed changing): cells carry only plain
//! owned data — `fn() -> Box<dyn IpcSystem>` factory pointers (`Send +
//! Sync` by construction), `Placement`/`Topology` values, recipe
//! `Vec`s, and `ArrivalTrace` (a `Vec` of plain structs). Worlds
//! (`Box<dyn IpcSystem>`, not `Send` in general) are built *inside* the
//! worker from the factory pointer and dropped before the cell returns,
//! so they never cross a thread boundary and `IpcSystem` needs no
//! `Send` supertrait.
//!
//! Thread-count resolution for [`map_cells`]: the thread-local
//! [`with_threads`] override (used by `figures --threads N` and the
//! snapshot test) if one is set, else
//! [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::thread;

use crate::ledger::LedgerArena;
use crate::load::SweepScratch;

/// The reusable buffers one pool worker carries across the cells it
/// executes: the request engine's scratch and a ledger arena.
#[derive(Default)]
pub struct CellScratch {
    /// Engine scratch for [`crate::load::run_windowed_with`] and
    /// [`crate::serve::serve_with`] alike.
    pub sweep: SweepScratch,
    /// Ledger arena threaded through either front door's `Attribution`.
    pub arena: LedgerArena,
}

impl CellScratch {
    /// Fresh (empty) scratch; buffers grow to steady state on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Per-thread thread-count override. Thread-local (not process
    /// global) so `cargo test`'s parallel test threads can each pin a
    /// different count without racing.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with this thread's worker count pinned to `n` (0 counts as
/// one worker), restoring the previous override afterwards (also on
/// panic). The `figures` binary runs its body under `--threads N` here,
/// and the snapshot test renders every experiment at 1, 2 and 8 workers
/// inside one process.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

/// The worker count [`map_cells`] will use on this thread: the
/// [`with_threads`] override if present, else the machine's available
/// parallelism. Always at least 1.
pub fn threads() -> usize {
    match OVERRIDE.with(Cell::get) {
        Some(n) => n.max(1),
        None => thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// Fan `cells` over [`threads`] workers; see [`map_cells_on`].
pub fn map_cells<C, T>(cells: Vec<C>, f: impl Fn(usize, C, &mut CellScratch) -> T + Sync) -> Vec<T>
where
    C: Send,
    T: Send,
{
    map_cells_on(threads(), cells, f)
}

/// Run `f(index, cell, scratch)` for every cell on up to `workers`
/// scoped threads and return the results **in cell order**, regardless
/// of worker count or scheduling. With one worker (or one cell) this is
/// a plain serial loop on the calling thread — the pre-pool code path —
/// with a single [`CellScratch`] reused across cells. With more, each
/// worker owns its scratch and pulls cells from a shared queue;
/// results land in an index-addressed slot vector.
///
/// # Panics
///
/// Propagates a panic from any cell (workers run under
/// [`std::thread::scope`], whose implicit joins resurface worker
/// panics on the caller).
pub fn map_cells_on<C, T>(
    workers: usize,
    cells: Vec<C>,
    f: impl Fn(usize, C, &mut CellScratch) -> T + Sync,
) -> Vec<T>
where
    C: Send,
    T: Send,
{
    let n = cells.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        let mut scratch = CellScratch::new();
        return cells
            .into_iter()
            .enumerate()
            .map(|(i, cell)| f(i, cell, &mut scratch))
            .collect();
    }
    let queue = Mutex::new(cells.into_iter().enumerate());
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut scratch = CellScratch::new();
                loop {
                    // Take the lock only to draw the next cell; the
                    // cell itself runs with the queue unlocked.
                    let drawn = queue.lock().expect("cell queue poisoned").next();
                    let Some((i, cell)) = drawn else { break };
                    let out = f(i, cell, &mut scratch);
                    slots.lock().expect("result slots poisoned")[i] = Some(out);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every cell fills its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order_for_any_worker_count() {
        let cells: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = cells.iter().map(|c| c * c).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = map_cells_on(workers, cells.clone(), |_, c, _| c * c);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn index_matches_the_cell_position() {
        let cells: Vec<usize> = (0..16).collect();
        let got = map_cells_on(4, cells, |i, c, _| (i, c));
        for (i, (idx, cell)) in got.into_iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(i, cell);
        }
    }

    #[test]
    fn empty_grid_yields_empty_results() {
        let got: Vec<u8> = map_cells_on(8, Vec::<u8>::new(), |_, c, _| c);
        assert!(got.is_empty());
    }

    #[test]
    fn with_threads_nests_and_restores() {
        let machine = threads();
        assert!(machine >= 1);
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(7, || assert_eq!(threads(), 7));
            assert_eq!(threads(), 3);
            with_threads(0, || {
                assert_eq!(threads(), 1, "zero normalises to one worker")
            });
        });
        assert_eq!(threads(), machine);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        with_threads(5, || {
            let caught = std::panic::catch_unwind(|| with_threads(2, || panic!("boom")));
            assert!(caught.is_err());
            assert_eq!(threads(), 5);
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map_cells_on(4, (0..8).collect::<Vec<u32>>(), |_, c, _| {
                assert!(c != 5, "cell 5 fails");
                c
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn scratch_is_usable_and_cleared_between_cells_by_the_drivers() {
        // Smoke: cells can dirty the scratch; determinism still holds
        // because the drivers clear on entry (this test just exercises
        // the plumbing — the byte-identity proof is the bench crate's
        // snapshot test at 1, 2 and 8 workers).
        let got = map_cells_on(2, (0..6u64).collect::<Vec<_>>(), |i, c, scratch| {
            scratch.sweep.clear();
            scratch.arena.reset();
            (i as u64) + c
        });
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10]);
    }
}
