//! One module per paper table/figure; each produces a [`Report`] that the
//! `figures` binary prints and tests assert on.
//!
//! # One shape: a grid, a table view and a JSON view
//!
//! Every registry entry is an [`Experiment`]:
//! [`compute`](Experiment::compute) builds everything either view reads,
//! and [`table`](Experiment::table) and [`json`](Experiment::json) only
//! read it. The JSON view carries every number the table prints, the
//! paper's reference values included; a table of one row per grid cell
//! is built from a `Column` list, so both views print the same numbers.
//! One list, `REGISTRY`, gives both [`all`] (the tables, in paper order)
//! and [`json_sections`] (the `BENCH_figures.json` sections). The eight
//! `json_section()`s, `table1::phases`, `table3::measure`,
//! `fig5::{bars, invocations}` and `fig6::curves` stay public because
//! `benchmark/` calls them.
//!
//! # The hand-off slot
//!
//! A pass (`figures --json all`, `benchmark/`'s `figures_all`) runs the
//! registry's tables and then the JSON views. So that each grid is
//! computed once per pass, `run` parks the grid it computed in one
//! thread-local slot keyed by experiment, and a JSON view takes it (or
//! computes the grid when the slot holds none). Figure 1(b) peeks at the
//! grid Figure 1(a) parked, which holds the YCSB-E cell it prints.
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
//!   recomputed. A grid left parked (a table nobody followed with its
//!   JSON view) holds only what the next view on that thread would have
//!   computed anyway.

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

/// A column of a table with one row per grid cell: its header, its JSON
/// key, and a cell's entry as printed and as a JSON leaf. A table and a
/// JSON view built from one column list print the same numbers.
type Column<C> = (&'static str, &'static str, fn(&C) -> (String, Value));

/// A column entry that prints as itself: a name or a count.
fn plain<T: ToString + Into<Value>>(v: T) -> (String, Value) {
    (v.to_string(), v.into())
}

/// A column entry printed with `shown` decimals and then `unit`, and kept
/// with `kept` decimals in the JSON view.
fn float(v: f64, shown: usize, unit: &str, kept: usize) -> (String, Value) {
    (format!("{v:.shown$}{unit}"), Value::Fixed(v, kept))
}

/// `cells` as a table, one row per cell.
fn cell_table<C>(
    id: &'static str,
    caption: &'static str,
    columns: &[Column<C>],
    cells: &[C],
) -> Report {
    let row = |c: &C| columns.iter().map(|col| (col.2)(c).0).collect();
    Report {
        id,
        caption,
        headers: columns.iter().map(|col| col.0.to_string()).collect(),
        rows: cells.iter().map(row).collect(),
    }
}

/// `cells` as JSON objects, one key per column.
fn cell_json<C>(columns: &[Column<C>], cells: &[C]) -> Value {
    let cell = |c: &C| Value::Object(columns.iter().map(|&(_, key, f)| (key, f(c).1)).collect());
    Value::Array(cells.iter().map(cell).collect())
}

/// Named curves over one axis, regrouped as one `(point, [value per
/// curve])` cell per axis point.
fn by_axis<T: Copy, const N: usize>(axis: &[u64], c: &[(String, Vec<T>)]) -> Vec<(u64, [T; N])> {
    let cell = |(i, &x): (usize, &u64)| (x, std::array::from_fn(|k| c[k].1[i]));
    axis.iter().enumerate().map(cell).collect()
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
    /// The hand-off slot: at most one [`Parked`] grid per experiment,
    /// taken once (see the module doc).
    static SLOT: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Park `grid` for the next [`take`] of `E` on this thread, replacing
/// one parked before it.
fn park<E: Experiment>(grid: E::Grid) {
    SLOT.with_borrow_mut(|slot| {
        slot.retain(|v| !v.is::<Parked<E>>());
        slot.push(Box::new(Parked::<E>(grid)));
    });
}

/// Take `E`'s grid parked on this thread, if there is one.
fn take<E: Experiment>() -> Option<E::Grid> {
    SLOT.with_borrow_mut(|slot| {
        let i = slot.iter().position(|v| v.is::<Parked<E>>())?;
        let parked: Box<Parked<E>> = slot.swap_remove(i).downcast().ok()?;
        Some(parked.0)
    })
}

/// `read` of `E`'s grid parked on this thread, leaving it parked.
fn peek<E: Experiment, R>(read: impl FnOnce(&E::Grid) -> R) -> Option<R> {
    SLOT.with_borrow(|slot| {
        let parked = slot.iter().find_map(|v| v.downcast_ref::<Parked<E>>())?;
        Some(read(&parked.0))
    })
}

/// Compute `E`'s grid, render its table, and park the grid for the
/// [`json`] view that follows on this thread.
pub(crate) fn run<E: Experiment>() -> Report {
    let grid = E::compute();
    let report = E::table(&grid);
    park::<E>(grid);
    report
}

/// `E`'s JSON view of the grid the [`run`] before it parked, else of a
/// grid computed here.
fn json<E: Experiment>() -> Value {
    match take::<E>() {
        Some(grid) => E::json(&grid),
        None => E::json(&E::compute()),
    }
}

/// A section's fields followed by the paper's reference values, each
/// printed with the decimals the paper gives it.
fn with_paper(mut fields: Vec<(&'static str, Value)>, paper: &[(&'static str, f64)]) -> Value {
    let as_written = |v: f64| format!("{v}").split_once('.').map_or(0, |(_, f)| f.len());
    let paper = paper
        .iter()
        .map(|&(k, v)| (k, Value::Fixed(v, as_written(v))))
        .collect();
    fields.push(("paper", Value::Object(paper)));
    Value::Object(fields)
}

/// The hand-off of `E`'s grid to `view`, at 1 and at 4 pool workers: a
/// cold `view` parks nothing, [`run`] parks, and the `view` after it
/// takes the grid and prints what the cold one did.
#[cfg(test)]
fn assert_invisible_hand_off<E: Experiment>(view: impl Fn() -> String) {
    let parked = || SLOT.with_borrow(|slot| slot.iter().any(|v| v.is::<Parked<E>>()));
    let outputs = [1, 4].map(|workers| {
        simos::par::with_threads(workers, || {
            assert!(!parked(), "the slot starts empty");
            let cold = view();
            assert!(!parked(), "a cold view parks nothing");
            run::<E>();
            assert!(parked(), "run parks what it computed");
            let handed_off = view();
            assert!(!parked(), "the view takes it");
            assert_eq!(handed_off, cold, "handed-off != cold at {workers} workers");
            assert_eq!(view(), cold, "the call after a hand-off != cold");
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

/// One registry entry: an experiment's key, its table runner and JSON
/// view, and the place of its `BENCH_figures.json` section.
type Registered = (&'static str, fn() -> Report, fn() -> Value, u8);

const fn entry<E: Experiment>(key: &'static str, place: u8) -> Registered {
    (key, run::<E>, json::<E>, place)
}

/// The `place` of a section that follows the committed ones.
const APPENDED: u8 = u8::MAX;

/// Every experiment, in paper order. The sections of the document's
/// first format keep their places after `systems` (1 to 9); the rest
/// follow them in registry order.
const REGISTRY: [Registered; 24] = [
    entry::<fig1::Fig1a>("fig1a", APPENDED),
    entry::<fig1::Fig1b>("fig1b", APPENDED),
    entry::<table1::Table1>("table1", APPENDED),
    entry::<fig5::Fig5>("fig5", 1),
    entry::<fig6::Fig6>("fig6", APPENDED),
    entry::<table3::Table3>("table3", APPENDED),
    entry::<fig7::Fig7ab>("fig7ab", APPENDED),
    entry::<fig7::Fig7c>("fig7c", APPENDED),
    entry::<fig8::Fig8ab>("fig8ab", APPENDED),
    entry::<fig8::Fig8c>("fig8c", APPENDED),
    entry::<fig9::Fig9a>("fig9a", APPENDED),
    entry::<fig9::Fig9b>("fig9b", APPENDED),
    entry::<table4::Table4>("table4", APPENDED),
    entry::<table5::Table5>("table5", APPENDED),
    entry::<table6::Table6>("table6", APPENDED),
    entry::<table7::Table7>("table7", APPENDED),
    entry::<ablations::Ablations>("ablations", 4),
    entry::<scale::Scale>("scale", 2),
    entry::<pipeline::Pipeline>("pipeline", 3),
    entry::<numa::Numa>("numa", 5),
    entry::<verify::Verify>("verify", 6),
    entry::<serve::Serve>("serve", 7),
    entry::<fuse::Fuse>("fuse", 8),
    entry::<harden::Harden>("harden", 9),
];

/// The `BENCH_figures.json` document as its top-level sections, in
/// order: the full roster sweep, then one section per experiment (each
/// taken from the slot when its `run` came first on this thread).
pub fn json_sections() -> Vec<(&'static str, Value)> {
    let mut registry: Vec<&Registered> = REGISTRY.iter().collect();
    registry.sort_by_key(|e| e.3);
    let systems = ("systems", sweep::systems_json(&sweep::roster_sweep()));
    std::iter::once(systems)
        .chain(registry.into_iter().map(|&(key, _, json, _)| (key, json())))
        .collect()
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
    let registry: Vec<Entry> = REGISTRY.iter().map(|&(key, run, ..)| (key, run)).collect();
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
    /// `compute` that built it, so a view shows which compute it read;
    /// `K` tells two such experiments with one grid type apart.
    struct Counted<const K: u8 = 0>;

    static COMPUTES: AtomicU64 = AtomicU64::new(0);

    impl<const K: u8> Experiment for Counted<K> {
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
        assert_eq!(
            take::<Counted<1>>(),
            None,
            "the slot is keyed by experiment"
        );
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
