//! One module per paper table/figure; each produces a [`Report`] that the
//! `figures` binary prints and tests assert on.
//!
//! # One shape: a grid, a table view and a JSON view
//!
//! The eight experiments with a `BENCH_figures.json` section (ablations,
//! scale, pipeline, numa, verify, serve, fuse, harden) implement
//! [`Experiment`]: [`compute`](Experiment::compute) builds everything
//! either view reads, [`table`](Experiment::table) and
//! [`json`](Experiment::json) only read it. Each module's `run()` /
//! `json_section()` pair is a two-line call into `run` /
//! `json_section`, kept because `benchmark/` calls those names.
//!
//! # The hand-off slot
//!
//! A pass (`figures --json all`, `benchmark/`'s `figures_all`) calls the
//! registry's `run()`s and then the eight `json_section()`s, and Figure
//! 1(b) reads the YCSB-E cell Figure 1(a) has just run. So that each grid
//! is computed once per pass, `run` parks the grid it computed in one
//! thread-local slot keyed by experiment, and `json_section` takes it
//! (or computes the grid when the slot holds none); `fig1a` parks its E
//! cell for `fig1b` the same way.
//!
//! * **Take-once**: a pass computes each grid once and nothing survives
//!   into the next pass. (A process-lifetime memo would make every later
//!   pass of a long-lived caller a cache hit that no `figures` process,
//!   which runs each experiment once, ever sees.)
//! * **Thread-local**, like `simos::par`'s worker-count override: test
//!   threads pinned to different worker counts never hand each other a
//!   grid, and there is no lock, poisoning or `Send` bound to reason
//!   about.
//! * **Invisible**: every grid is a pure function of compiled-in
//!   constants and byte-identical at any worker count, so parked ≡
//!   recomputed. A grid left parked (a `run()` nobody followed with a
//!   `json_section()`) holds only what the next `json_section()` on that
//!   thread would have computed anyway.

pub mod ablations;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fuse;
pub mod harden;
pub mod numa;
pub mod pipeline;
pub mod scale;
pub mod serve;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod verify;

use crate::json::Value;
use crate::sweep;
use std::any::Any;
use std::cell::RefCell;

/// A regenerated table or figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. "Table 1" / "Figure 6".
    pub id: &'static str,
    /// What it shows.
    pub caption: &'static str,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.caption);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// An experiment with a JSON view: one grid, computed once, shown as a
/// table and as a `BENCH_figures.json` section.
pub trait Experiment: 'static {
    /// Everything either view reads.
    type Grid: 'static;
    /// Compute the grid; deterministic at any pool worker count.
    fn compute() -> Self::Grid;
    /// The table view.
    fn table(grid: &Self::Grid) -> Report;
    /// The JSON view.
    fn json(grid: &Self::Grid) -> Value;
}

/// `E`'s grid as parked by [`run`]: the slot key of experiment `E`.
struct Parked<E: Experiment>(E::Grid);

thread_local! {
    /// The hand-off slot: at most one value per type, taken once (see the
    /// module doc).
    static SLOT: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Park `value` for the next [`take`] of its type on this thread,
/// replacing one parked before it.
fn park<T: Any>(value: T) {
    SLOT.with_borrow_mut(|slot| {
        slot.retain(|v| !v.is::<T>());
        slot.push(Box::new(value));
    });
}

/// Take the value of type `T` parked on this thread, if there is one.
fn take<T: Any>() -> Option<T> {
    SLOT.with_borrow_mut(|slot| {
        let i = slot.iter().position(|v| v.is::<T>())?;
        slot.swap_remove(i).downcast().ok().map(|v| *v)
    })
}

/// Compute `E`'s grid, render its table, and park the grid for the
/// [`json_section`] that follows on this thread.
pub(crate) fn run<E: Experiment>() -> Report {
    let grid = E::compute();
    let report = E::table(&grid);
    park(Parked::<E>(grid));
    report
}

/// `E`'s JSON view of the grid the [`run`] before it parked, else of a
/// grid computed here.
fn json<E: Experiment>() -> Value {
    match take::<Parked<E>>() {
        Some(Parked(grid)) => E::json(&grid),
        None => E::json(&E::compute()),
    }
}

/// `E`'s section of `BENCH_figures.json`, as [`sweep::json_dump`] takes
/// it.
pub(crate) fn json_section<E: Experiment>() -> String {
    json::<E>().render(2)
}

/// The hand-off of one `first` → `second` pair through a parked `T`, at
/// 1 and at 4 pool workers: a cold `second` parks nothing, `first`
/// parks, and the `second` after it takes the value and prints what the
/// cold one did.
#[cfg(test)]
fn assert_invisible_hand_off<T: Any>(first: fn() -> Report, second: impl Fn() -> String) {
    let parked = || SLOT.with_borrow(|slot| slot.iter().any(|v| v.is::<T>()));
    let outputs = [1, 4].map(|workers| {
        simos::par::with_threads(workers, || {
            assert!(!parked(), "the slot starts empty");
            let cold = second();
            assert!(!parked(), "a cold second view parks nothing");
            first();
            assert!(parked(), "the first view parks what it computed");
            let handed_off = second();
            assert!(!parked(), "the second view takes it");
            assert_eq!(handed_off, cold, "handed-off != cold at {workers} workers");
            assert_eq!(second(), cold, "the call after a hand-off != cold");
            cold
        })
    });
    assert_eq!(outputs[0], outputs[1], "1 worker != 4 workers");
}

/// The cells of the array at `path` (`/`-separated keys) in a section.
#[cfg(test)]
fn cells_at<'a>(section: &'a Value, path: &str) -> &'a [Value] {
    match path.split('/').try_fold(section, |v, key| v.get(key)) {
        Some(Value::Array(cells)) => cells,
        other => panic!("{path} is not an array: {other:?}"),
    }
}

/// Whether some cell has `want` under `key`.
#[cfg(test)]
fn any_cell(cells: &[Value], key: &str, want: impl Into<Value>) -> bool {
    let want = want.into();
    cells.iter().any(|c| c.get(key) == Some(&want))
}

/// The `BENCH_figures.json` document as its top-level sections, in
/// order: the full roster sweep, the Figure 5 ledgers, then one section
/// per [`Experiment`] (each taken from the slot when its `run()` came
/// first on this thread).
pub fn json_sections() -> Vec<(&'static str, Value)> {
    vec![
        ("systems", sweep::systems_json(&sweep::roster_sweep())),
        ("fig5", sweep::ledgers_json(&fig5::invocations())),
        ("scale", json::<scale::Scale>()),
        ("pipeline", json::<pipeline::Pipeline>()),
        ("ablations", json::<ablations::Ablations>()),
        ("numa", json::<numa::Numa>()),
        ("verify", json::<verify::Verify>()),
        ("serve", json::<serve::Serve>()),
        ("fuse", json::<fuse::Fuse>()),
        ("harden", json::<harden::Harden>()),
    ]
}

/// The `BENCH_figures.json` document `figures --json` writes.
pub fn json_document() -> String {
    sweep::frame(
        json_sections()
            .into_iter()
            .map(|(key, section)| (key, section.render(2))),
    )
}

/// A registry entry: an experiment's key and its table runner.
pub type Entry = (&'static str, fn() -> Report);

/// Every experiment, in paper order, as (key, runner).
///
/// Debug builds assert the keys are unique — a duplicate would make
/// `figures <key>` silently run only the first entry.
pub fn all() -> Vec<Entry> {
    let registry = vec![
        ("fig1a", fig1::fig1a as fn() -> Report),
        ("fig1b", fig1::fig1b),
        ("table1", table1::run),
        ("fig5", fig5::run),
        ("fig6", fig6::run),
        ("table3", table3::run),
        ("fig7ab", fig7::fig7ab),
        ("fig7c", fig7::fig7c),
        ("fig8ab", fig8::fig8ab),
        ("fig8c", fig8::fig8c),
        ("fig9a", fig9::fig9a),
        ("fig9b", fig9::fig9b),
        ("table4", table4::run),
        ("table5", table5::run),
        ("table6", table6::run),
        ("table7", table7::run),
        ("ablations", ablations::run),
        ("scale", scale::run),
        ("pipeline", pipeline::run),
        ("numa", numa::run),
        ("verify", verify::run),
        ("serve", serve::run),
        ("fuse", fuse::run),
        ("harden", harden::run),
    ];
    debug_assert!(
        {
            let mut keys: Vec<&str> = registry.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            keys.windows(2).all(|w| w[0] != w[1])
        },
        "experiments::all() registers a duplicate key"
    );
    registry
}

/// The registry key closest to `unknown` (edit distance ≤ 2), for the
/// `figures` binary's "did you mean" hint. Ties break to the
/// lexicographically smallest key, so the hint is deterministic.
pub fn suggest(unknown: &str) -> Option<&'static str> {
    all()
        .iter()
        .map(|&(k, _)| (edit_distance(unknown, k), k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, k)| (d, k))
        .map(|(_, k)| k)
}

/// Plain Levenshtein distance (two-row DP) — the keys are short, so the
/// quadratic cost is irrelevant.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A stand-in experiment whose grid is the serial number of the
    /// `compute` that built it, so a view shows which compute it read.
    struct Counted;

    static COMPUTES: AtomicU64 = AtomicU64::new(0);

    impl Experiment for Counted {
        type Grid = u64;
        fn compute() -> u64 {
            COMPUTES.fetch_add(1, Ordering::Relaxed)
        }
        fn table(grid: &u64) -> Report {
            Report {
                id: "Counted",
                caption: "test",
                headers: vec![grid.to_string()],
                rows: Vec::new(),
            }
        }
        fn json(grid: &u64) -> Value {
            Value::from(*grid)
        }
    }

    fn tabled(r: &Report) -> Value {
        Value::from(r.headers[0].parse::<u64>().expect("a serial number"))
    }

    #[test]
    fn a_grid_is_handed_off_once_on_its_own_thread() {
        let cold = json::<Counted>();
        let parked = tabled(&run::<Counted>());
        assert_ne!(cold, parked, "a cold view computes its own grid");
        let elsewhere = std::thread::spawn(json::<Counted>)
            .join()
            .expect("no panic");
        assert_ne!(elsewhere, parked, "another thread never sees this slot");
        assert_eq!(take::<u64>(), None, "the slot is keyed by experiment");
        assert_eq!(json::<Counted>(), parked, "the view reads the parked grid");
        assert_ne!(json::<Counted>(), parked, "and takes it: the next computes");
        // A second run replaces the first: one grid per experiment.
        run::<Counted>();
        let last = tabled(&run::<Counted>());
        assert_eq!(json::<Counted>(), last);
        assert_ne!(json::<Counted>(), last);
    }

    #[test]
    fn report_renders_aligned() {
        let r = Report {
            id: "Table X",
            caption: "test",
            headers: vec!["a".into(), "bbbb".into()],
            rows: vec![vec!["100".into(), "2".into()]],
        };
        let s = r.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("100"));
    }

    #[test]
    fn registry_has_all_24_experiments() {
        assert_eq!(all().len(), 24);
    }

    #[test]
    fn registry_keys_are_unique() {
        // The release-build complement of the debug_assert in all().
        let mut keys: Vec<&str> = all().iter().map(|(k, _)| *k).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate experiment key registered");
    }

    #[test]
    fn suggest_finds_near_misses_and_rejects_gibberish() {
        assert_eq!(suggest("scal"), Some("scale"));
        assert_eq!(suggest("serv"), Some("serve"));
        assert_eq!(suggest("tabel3"), Some("table3"));
        assert_eq!(suggest("scale"), Some("scale"));
        assert_eq!(suggest("qzxwv"), None);
        assert_eq!(suggest(""), None, "nothing is within distance 2 of ''");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", "ab"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
