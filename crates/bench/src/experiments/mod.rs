//! One module per paper table/figure; each produces a [`Report`] that the
//! `figures` binary prints and tests assert on.
//!
//! # One view per experiment
//!
//! Every registry entry is an [`Experiment`]: `compute` builds its grid,
//! and `json` reads it into the experiment's *view*, a [`Value`] holding
//! every number its table prints, the paper's reference values included.
//! The table is the view rendered through the experiment's [`Layout`] by
//! the one renderer here, so no number becomes text anywhere else. A
//! table of one row per grid cell comes from a `Column` list, which gives
//! both the view's cells and the layout's headers and templates. An
//! experiment's `BENCH_figures.json` section is its view without the
//! leaves `VIEW_ONLY` names, numbers the committed sections predate.
//!
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
//! thread-local slot keyed by experiment, and a JSON view reads it (or
//! computes the grid when the slot holds none). Figure 1(b) peeks at the
//! grid Figure 1(a) parked, which holds the YCSB-E cell it prints.
//! [`json_sections`] reads the views in registry order, Figure 1(a)
//! before Figure 1(b), keeps every grid parked to the end of the document
//! and then empties the slot; a single `json_section()` takes its grid.
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

/// How an experiment's table prints its view: the [`Report`]'s id,
/// caption and headers, then blocks of rows whose cells are templates.
///
/// A template is literal text with `{path:spec}` fields. `path` is
/// `/`-separated object keys or array indices from the row's value (empty:
/// the value itself), and `spec` is one of
///
/// * empty: the leaf as JSON prints it, a string without its quotes;
/// * `.N`: the number with N decimals; `%N`: the number times 100, with N
///   decimals; `/D.N`: the number divided by D, with N decimals (`/D`: none);
/// * `yes|no`: the first word for `true`, the second for `false`.
///
/// A cell with a field that reads `null` prints `-`.
pub struct Layout {
    id: &'static str,
    caption: &'static str,
    headers: Vec<&'static str>,
    /// (one row per element of an array, path, templates) per block.
    blocks: Vec<(bool, &'static str, Vec<&'static str>)>,
}

impl Layout {
    /// The table of one row per element of the array at `path`, with the
    /// headers and templates of `columns`.
    pub(crate) fn columns<C>(
        id: &'static str,
        caption: &'static str,
        path: &'static str,
        columns: &[Column<C>],
    ) -> Layout {
        let headers: Vec<_> = columns
            .iter()
            .filter(|c| !c.3.is_empty())
            .map(|c| c.0)
            .collect();
        Layout::new(id, caption, &headers).cells(path, columns)
    }

    /// A table of `headers`, with no rows yet.
    pub(crate) fn new(id: &'static str, caption: &'static str, headers: &[&'static str]) -> Layout {
        let (headers, blocks) = (headers.to_vec(), Vec::new());
        Layout {
            id,
            caption,
            headers,
            blocks,
        }
    }

    /// Then one row per element of the array at `path`.
    pub(crate) fn each(mut self, path: &'static str, cells: &[&'static str]) -> Layout {
        self.blocks.push((true, path, cells.to_vec()));
        self
    }

    /// Then one row over the value at `path`.
    pub(crate) fn one(mut self, path: &'static str, cells: &[&'static str]) -> Layout {
        self.blocks.push((false, path, cells.to_vec()));
        self
    }

    /// Then a line of `text`.
    pub(crate) fn banner(self, text: &'static str) -> Layout {
        self.one("", &[text])
    }

    /// Then one row per element of the array at `path`, a cell per column
    /// that has a template.
    pub(crate) fn cells<C>(self, path: &'static str, columns: &[Column<C>]) -> Layout {
        let cells: Vec<_> = columns
            .iter()
            .map(|c| c.3)
            .filter(|t| !t.is_empty())
            .collect();
        self.each(path, &cells)
    }

    /// The table of `view`: the one place a number becomes text.
    pub(crate) fn render(&self, view: &Value) -> Report {
        let row = |v: &Value, cells: &[&str]| cells.iter().map(|t| fill(t, v)).collect();
        let mut rows = Vec::new();
        for (each, path, cells) in &self.blocks {
            match (each, at(view, path)) {
                (true, Value::Array(items)) => rows.extend(items.iter().map(|v| row(v, cells))),
                (true, other) => panic!("{path} is not an array: {other:?}"),
                (false, v) => rows.push(row(v, cells)),
            }
        }
        Report {
            id: self.id,
            caption: self.caption,
            headers: self.headers.iter().map(|h| h.to_string()).collect(),
            rows,
        }
    }
}

/// The value at `path` under `v`; a `null` on the way reads as `null`.
fn at<'a>(v: &'a Value, path: &str) -> &'a Value {
    let step = |v: &'a Value, key: &str| match v {
        Value::Null => Some(v),
        Value::Array(items) => key.parse().ok().and_then(|i: usize| items.get(i)),
        _ => v.get(key),
    };
    let keys = path.split('/').filter(|k| !k.is_empty());
    keys.fold(v, |v, key| {
        step(v, key).unwrap_or_else(|| panic!("the view has no '{path}' in {v:?}"))
    })
}

/// `template` with every field filled from `v`, or `-` when a field
/// reads `null`.
fn fill(template: &str, v: &Value) -> String {
    let (mut out, mut rest) = (String::new(), template);
    while let Some((text, field)) = rest.split_once('{') {
        let (field, after) = field.split_once('}').expect("a field closes");
        let (path, spec) = field.split_once(':').unwrap_or((field, ""));
        let Some(shown) = leaf_text(at(v, path), spec) else {
            return "-".into();
        };
        out.push_str(text);
        out.push_str(&shown);
        rest = after;
    }
    out + rest
}

/// A leaf as `spec` prints it (see [`Layout`]); `None` for `null`.
fn leaf_text(v: &Value, spec: &str) -> Option<String> {
    let x = match (v, spec) {
        (Value::Null, _) => return None,
        (&Value::Fixed(x, _), _) if !x.is_finite() => return None,
        (Value::Str(s), "") => return Some(s.clone()),
        (_, "") => return Some(v.render(0)),
        (&Value::Bool(b), words) => {
            let (yes, no) = words.split_once('|').expect("a bool prints as words");
            return Some(if b { yes } else { no }.to_string());
        }
        (&Value::U64(n), _) => n as f64,
        (&Value::Fixed(x, _), _) => x,
        _ => panic!("'{spec}' formats a number, not {v:?}"),
    };
    let (x, decimals) = match spec.split_at(1) {
        ("%", n) => (x * 100.0, n),
        (".", n) => (x, n),
        ("/", by) => {
            let (d, n) = by.split_once('.').unwrap_or((by, "0"));
            (x / d.parse::<f64>().expect("a divisor"), n)
        }
        _ => panic!("'{spec}' is not .N, %N, /D.N or words"),
    };
    let n = decimals.parse().expect("a spec's decimals");
    Some(format!("{x:.n$}"))
}

/// A column of a table with one row per grid cell: its header, its JSON
/// key, the cell's leaf, and the template that prints it (empty for a
/// leaf the table does not print). A view and a layout built from one
/// column list print the same numbers.
type Column<C> = (&'static str, &'static str, fn(&C) -> Value, &'static str);

/// `cells` as JSON objects, one key per column.
fn cell_json<C>(columns: &[Column<C>], cells: &[C]) -> Value {
    let cell = |c: &C| Value::Object(columns.iter().map(|&(_, key, f, _)| (key, f(c))).collect());
    Value::Array(cells.iter().map(cell).collect())
}

/// Named curves over one axis, regrouped as one `(point, [value per
/// curve])` cell per axis point.
fn by_axis<T: Copy, const N: usize>(axis: &[u64], c: &[(String, Vec<T>)]) -> Vec<(u64, [T; N])> {
    let cell = |(i, &x): (usize, &u64)| (x, std::array::from_fn(|k| c[k].1[i]));
    axis.iter().enumerate().map(cell).collect()
}

/// An experiment: one grid, computed once, shown as a table and as a
/// `BENCH_figures.json` section.
pub trait Experiment: 'static {
    /// Everything the view reads.
    type Grid: 'static;
    /// Compute the grid; deterministic at any pool worker count.
    fn compute() -> Self::Grid;
    /// The view: every number the table prints.
    fn json(grid: &Self::Grid) -> Value;
    /// The table, as templates over the view.
    fn layout() -> Layout;
}

/// `E`'s table of `grid`.
fn report<E: Experiment>(grid: &E::Grid) -> Report {
    E::layout().render(&E::json(grid))
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
/// [`view`] that follows on this thread.
pub(crate) fn run<E: Experiment>() -> Report {
    let grid = E::compute();
    let report = report::<E>(&grid);
    park::<E>(grid);
    report
}

/// `E`'s view of the grid the [`run`] before it parked, else of a grid
/// computed here. With `keep` the grid stays parked for the experiments
/// after `E` in the pass; otherwise the view takes it.
fn view<E: Experiment>(keep: bool) -> Value {
    let grid = take::<E>().unwrap_or_else(E::compute);
    let view = E::json(&grid);
    if keep {
        park::<E>(grid);
    }
    view
}

/// The view leaves a section does not carry: (section key, `/`-path of
/// the key, applied to every element of an array on the way). These are
/// numbers a table prints that the committed section predates.
const VIEW_ONLY: [(&str, &str); 13] = [
    ("fig5", "vs_prev_cycles"),
    ("ablations", "transports"),
    ("ablations", "caps"),
    ("ablations", "contexts"),
    ("ablations", "relay"),
    ("serve", "knee/rho"),
    ("serve", "knee/shed_rate"),
    ("serve", "admission/rho"),
    ("serve", "admission/offered_rps"),
    ("serve", "admission/queue_fraction"),
    ("serve", "admission/slo_met_tenants"),
    ("fuse", "knee/rho"),
    ("fuse", "knee/depth"),
];

/// Section `key` of a view: the view without its [`VIEW_ONLY`] leaves.
fn section_of(key: &str, mut view: Value) -> Value {
    for &(_, path) in VIEW_ONLY.iter().filter(|(k, _)| *k == key) {
        assert!(strip(&mut view, path), "the {key} view has no '{path}'");
    }
    view
}

/// Remove the key at `path` from `v`, and from every element of an array
/// on the way; false when one lacks it.
fn strip(v: &mut Value, path: &str) -> bool {
    let (key, rest) = path.split_once('/').unwrap_or((path, ""));
    match v {
        Value::Array(items) => items.iter_mut().all(|v| strip(v, path)),
        Value::Object(fields) => match fields.iter().position(|(k, _)| *k == key) {
            Some(i) if rest.is_empty() => {
                fields.remove(i);
                true
            }
            Some(i) => strip(&mut fields[i].1, rest),
            None => false,
        },
        _ => false,
    }
}

/// The `BENCH_figures.json` section `key`, which takes its experiment's
/// parked grid.
fn section(key: &str) -> Value {
    let &(_, _, view, _) = REGISTRY
        .iter()
        .find(|e| e.0 == key)
        .expect("a registry key");
    section_of(key, view(false))
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

/// Whether `E`'s grid is parked on this thread.
#[cfg(test)]
fn is_parked<E: Experiment>() -> bool {
    SLOT.with_borrow(|slot| slot.iter().any(|v| v.is::<Parked<E>>()))
}

/// The hand-off of `E`'s grid to `view`, at 1 and at 4 pool workers: a
/// cold `view` parks nothing, [`run`] parks, and the `view` after it
/// takes the grid and prints what the cold one did.
#[cfg(test)]
fn assert_invisible_hand_off<E: Experiment>(view: impl Fn() -> String) {
    let parked = is_parked::<E>;
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
    match at(section, path) {
        Value::Array(cells) => cells,
        other => panic!("{path} is not an array: {other:?}"),
    }
}

/// Whether some cell has `want` under `key`.
#[cfg(test)]
fn any_cell(cells: &[Value], key: &str, want: impl Into<Value>) -> bool {
    let want = want.into();
    cells.iter().any(|c| c.get(key) == Some(&want))
}

/// One registry entry: an experiment's key, its table runner and view,
/// and the place of its `BENCH_figures.json` section.
type Registered = (&'static str, fn() -> Report, fn(bool) -> Value, u8);

const fn entry<E: Experiment>(key: &'static str, place: u8) -> Registered {
    (key, run::<E>, view::<E>, place)
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
/// order: the full roster sweep, then one section per experiment. The
/// views are read in registry order, each of the grid its `run` parked
/// on this thread or of one computed cold and kept parked for the views
/// after it; the pass ends here, with the slot emptied.
pub fn json_sections() -> Vec<(&'static str, Value)> {
    let mut sections: Vec<(u8, &'static str, Value)> = REGISTRY
        .iter()
        .map(|&(key, _, view, place)| (place, key, section_of(key, view(true))))
        .collect();
    SLOT.with_borrow_mut(Vec::clear);
    sections.sort_by_key(|s| s.0);
    let systems = ("systems", sweep::systems_json(&sweep::roster_sweep()));
    std::iter::once(systems)
        .chain(sections.into_iter().map(|(_, key, section)| (key, section)))
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
        fn json(grid: &u64) -> Value {
            Value::from(*grid)
        }
        fn layout() -> Layout {
            Layout::new("Counted", "test", &["serial"]).one("", &["{}"])
        }
    }

    fn serial(r: &Report) -> Value {
        Value::from(r.rows[0][0].parse::<u64>().expect("a serial number"))
    }

    #[test]
    fn a_grid_is_handed_off_once_on_its_own_thread() {
        let cold = view::<Counted>(false);
        let parked = serial(&run::<Counted>());
        assert_ne!(cold, parked, "a cold view computes its own grid");
        let elsewhere = std::thread::spawn(|| view::<Counted>(false))
            .join()
            .expect("no panic");
        assert_ne!(elsewhere, parked, "another thread never sees this slot");
        assert_eq!(
            take::<Counted<1>>(),
            None,
            "the slot is keyed by experiment"
        );
        assert_eq!(view::<Counted>(true), parked, "a kept view leaves it");
        assert_eq!(view::<Counted>(false), parked, "the view reads the grid");
        assert_ne!(
            view::<Counted>(false),
            parked,
            "and takes it: the next computes"
        );
        // A second run replaces the first: one grid per experiment.
        run::<Counted>();
        let last = serial(&run::<Counted>());
        assert_eq!(view::<Counted>(false), last);
        assert_ne!(view::<Counted>(false), last);
    }

    /// Every template feature, pinned to the bytes it prints, and a
    /// layout's report rendered aligned.
    #[test]
    fn layouts_render_every_template_feature_to_exact_bytes() {
        let row = Value::Object(vec![
            ("n", 2048u64.into()),
            ("x", Value::Fixed(0.12345, 4)),
            ("name", "seL4".into()),
            ("ok", true.into()),
            ("bad", false.into()),
            ("none", Value::Null),
            ("inf", Value::Fixed(f64::INFINITY, 1)),
            ("list", Value::Array(vec![7u64.into(), 9u64.into()])),
            ("inner", Value::Object(vec![("deep", 5u64.into())])),
        ]);
        for (template, want) in [
            ("{n}", "2048"),
            ("{x}", "0.1235"),
            ("{x:.2}", "0.12"),
            ("{n:.1}", "2048.0"),
            ("{x:%1}%", "12.3%"),
            ("{x:%0}", "12"),
            ("{n:/1024}KB", "2KB"),
            ("{n:/1000.2}ms", "2.05ms"),
            ("{name}", "seL4"),
            ("{ok}", "true"),
            ("{ok:yes|no}", "yes"),
            ("{bad:yes|NO}", "NO"),
            ("{bad:no|yes}", "yes"),
            ("{inner/deep}", "5"),
            ("{list/1}", "9"),
            ("{name} cap={n}", "seL4 cap=2048"),
            ("p99us={x:.1}", "p99us=0.1"),
            ("literal", "literal"),
            ("{none}", "-"),
            ("-{none}", "-"),
            ("{none/deeper:.1}", "-"),
            ("{inf:.1}", "-"),
        ] {
            assert_eq!(fill(template, &row), want, "{template}");
        }

        let view = Value::Object(vec![
            ("rows", Value::Array(vec![row.clone(), row])),
            ("total", 100u64.into()),
        ]);
        let report = Layout::new("Table X", "test", &["a", "bbbb"])
            .each("rows", &["{name}", "{n}"])
            .banner("-- a banner --")
            .one("", &["sum", "{total}"])
            .render(&view);
        let want = "== Table X — test ==\n\
                    a               bbbb\n\
                    ----------------------\n\
                    seL4            2048\n\
                    seL4            2048\n\
                    -- a banner --\n\
                    sum             100 \n";
        assert_eq!(report.render(), want);
    }

    #[test]
    fn view_only_is_exactly_the_leaves_the_committed_sections_predate() {
        let keys: Vec<String> = VIEW_ONLY.iter().map(|(s, p)| format!("{s}/{p}")).collect();
        let want = "fig5/vs_prev_cycles ablations/transports ablations/caps ablations/contexts \
                    ablations/relay serve/knee/rho serve/knee/shed_rate serve/admission/rho \
                    serve/admission/offered_rps serve/admission/queue_fraction \
                    serve/admission/slo_met_tenants fuse/knee/rho fuse/knee/depth";
        let why = "VIEW_ONLY only shrinks, as the sections gain these leaves";
        assert_eq!(keys.join(" "), want, "{why}");
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
