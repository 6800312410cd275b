//! The paper's claims as data: one table of rows, each a number read off
//! the `BENCH_figures.json` document and what it must satisfy.
//!
//! The rule of the table:
//!
//! * **Rows are data.** A row is a name, one of a closed set of [`Kind`]s,
//!   `/`-paths into the sections (array elements by index), its bounds,
//!   and optionally the `paper` leaf printed beside a failure. No row
//!   holds code, and none calls into the experiments.
//! * **Checked on the pinned tree.** [`check`] reads `Value` sections:
//!   the schema test checks every row on the document it builds, and the
//!   snapshot test pins that document to the committed file, so a number
//!   that leaves its band fails here even when both committed files were
//!   regenerated with it. The rows come in groups, each named for the
//!   unit test of its experiment (`fig8::http_speedup_bands` is
//!   `experiments::fig8::tests::http_speedup_bands`), which checks just
//!   those rows on the sections they read. `Value::Fixed` keeps the
//!   unrounded `f64`, so a row reads the number the experiment computed,
//!   not its printed digits.
//! * **No band is widened.** Each bound keeps the end (inclusive or
//!   exclusive) the paper comparison was first written with.

use super::Value;
use std::ops::Bound::{self, Excluded as Excl, Included as Incl, Unbounded};
use std::ops::RangeBounds;

/// The bounds a number must lie within.
type Band = (Bound<f64>, Bound<f64>);

/// A number read off each cell of an array.
enum Cell {
    /// The leaf at a `/`-path in the cell.
    Key(&'static str),
    /// The cell's first leaf over its second.
    Over(&'static str, &'static str),
}

/// A number read off the document.
enum Num {
    /// The leaf at a `/`-path.
    At(&'static str),
    /// The first leaf over the second.
    Ratio(&'static str, &'static str),
    /// The first leaf minus the second.
    Diff(&'static str, &'static str),
    /// The mean of a cell's number over the array at a path.
    Mean(&'static str, Cell),
}

/// What a row checks.
enum Kind {
    /// The number lies in the band.
    In(Num, Band),
    /// The leaf is the value: a count, a flag or a name, as JSON prints
    /// it (a name without its quotes).
    Is(&'static str, &'static str),
    /// Every cell's number lies in the band.
    Every(&'static str, Cell, Band),
    /// The first number exceeds the second.
    Above(Num, Num),
    /// Each cell's number less the one before it lies in the band.
    Monotone(&'static str, Cell, Band),
}

use {Cell::*, Kind::*, Num::*};

/// [`Monotone`] bands: a number that never falls, and one that always falls.
const NEVER_FALLS: Band = (Incl(0.0), Unbounded);
const FALLS: Band = (Unbounded, Excl(0.0));

/// A claim: its name, what it checks, and the `paper` leaf printed
/// beside a failure ("" for none).
type Claim = (&'static str, Kind, &'static str);

/// Every claim, in paper order, under the unit test that checks it.
/// Figure 6's sizes are 0 B (index 0), 64 B
/// (1), 4 KB (7) and 32 KB (10); Figure 8(c)'s 2 KB is index 2.
#[rustfmt::skip]
const CLAIMS: &[(&str, &[Claim])] = &[
    ("fig1::fractions_in_paper_band", &[
        ("fig1a: no mix is IPC-bound", Every("fig1a/workloads", Key("ipc_fraction"), (Unbounded, Excl(0.65))), "fig1a/paper/ipc_fraction_max"),
        ("fig1a: cell 0 is YCSB-A", Is("fig1a/workloads/0/workload", "YCSB-A"), ""),
        ("fig1a: YCSB-A's IPC share", In(At("fig1a/workloads/0/ipc_fraction"), (Excl(0.15), Unbounded)), "fig1a/paper/ipc_fraction_min"),
        ("fig1a: cell 4 is YCSB-E", Is("fig1a/workloads/4/workload", "YCSB-E"), ""),
        ("fig1a: YCSB-E's IPC share", In(At("fig1a/workloads/4/ipc_fraction"), (Excl(0.10), Unbounded)), "fig1a/paper/ipc_fraction_min"),
    ]),
    ("fig1::transfer_dominates_ipc_on_e", &[
        ("fig1b: data transfer's share of YCSB-E IPC time", In(At("fig1b/transfer_fraction"), (Incl(0.35), Excl(0.80))), "fig1b/paper/transfer_fraction"),
    ]),
    ("fig1::cdf_is_monotone_and_ends_at_one", &[
        ("fig1b: the CDF never falls", Monotone("fig1b/cdf", Key("cdf"), NEVER_FALLS), ""),
        ("fig1b: the CDF ends at one", In(At("fig1b/cdf/7/cdf"), (Excl(1.0 - 1e-9), Excl(1.0 + 1e-9))), ""),
    ]),
    ("table1::sum_0b_is_664", &[
        ("table1: seL4 0 B fast path sums to 664", Is("table1/0/invocation/total", "664"), ""),
    ]),
    ("table1::sum_4k_close_to_4804", &[
        ("table1: seL4 4 KB fast path within 5 % of 4804", In(At("table1/1/invocation/total"), (Excl(4804.0 * 0.95), Excl(4804.0 * 1.05))), ""),
    ]),
    ("fig5::ladder_strictly_improves", &[
        ("fig5: each rung's call is cheaper than the one before", Monotone("fig5", Key("invocation/total"), FALLS), ""),
    ]),
    ("fig5::full_ctx_total_in_paper_band", &[
        ("fig5: Full-Cxt call (paper 150 without xret)", In(At("fig5/0/invocation/total"), (Incl(120.0), Incl(230.0))), ""),
    ]),
    ("fig5::best_config_near_paper_21", &[
        ("fig5: +Engine Cache call less its xret (paper 21)", In(Diff("fig5/4/invocation/total", "fig5/4/invocation/phases/xret"), (Incl(15.0), Incl(45.0))), ""),
        ("fig5: +Engine Cache xcall hits the engine cache", Is("fig5/4/invocation/phases/xcall", "6"), ""),
    ]),
    ("fig6::xpc_is_flat_sel4_grows", &[
        ("fig6: seL4-XPC same-core is flat in the size", In(Ratio("fig6/sizes/10/xpc_same_core", "fig6/sizes/0/xpc_same_core"), (Incl(1.0), Incl(1.0))), ""),
        ("fig6: seL4 same-core grows 10x from 0 B to 32 KB", In(Ratio("fig6/sizes/10/sel4_same_core", "fig6/sizes/0/sel4_same_core"), (Excl(10.0), Unbounded)), ""),
    ]),
    ("fig6::same_core_speedup_band_5_to_37", &[
        ("fig6: same-core speedup at 0 B", In(Ratio("fig6/sizes/0/sel4_same_core", "fig6/sizes/0/xpc_same_core"), (Incl(4.5), Excl(6.5))), "fig6/paper/same_core_speedup_min"),
        ("fig6: same-core speedup at 4 KB", In(Ratio("fig6/sizes/7/sel4_same_core", "fig6/sizes/7/xpc_same_core"), (Incl(30.0), Excl(40.0))), "fig6/paper/same_core_speedup_max"),
    ]),
    ("fig6::cross_core_speedup_band_81_to_141", &[
        ("fig6: cross-core speedup at 0 B", In(Ratio("fig6/sizes/0/sel4_cross_core", "fig6/sizes/0/xpc_cross_core"), (Incl(70.0), Excl(95.0))), "fig6/paper/cross_core_speedup_min"),
        ("fig6: cross-core speedup at 4 KB", In(Ratio("fig6/sizes/7/sel4_cross_core", "fig6/sizes/7/xpc_cross_core"), (Incl(125.0), Excl(160.0))), "fig6/paper/cross_core_speedup_max"),
    ]),
    ("fig6::medium_sizes_take_sel4_slow_path", &[
        ("fig6: seL4 64 B takes the slow path", In(At("fig6/sizes/1/sel4_same_core"), (Excl(2000.0), Unbounded)), ""),
    ]),
    ("table3::exact_match_with_paper", &[
        ("table3: xcall", Is("table3/0/cycles", "18"), "table3/0/paper"),
        ("table3: xret", Is("table3/1/cycles", "23"), "table3/1/paper"),
        ("table3: swapseg", Is("table3/2/cycles", "11"), "table3/2/paper"),
    ]),
    ("fig7::fig7a_read_speedups_in_band", &[
        ("fig7a: mean read speedup, seL4-XPC over Zircon (paper 7.8)", In(Mean("fig7ab/read", Over("sel4_xpc_mb_s", "zircon_mb_s")), (Incl(3.0), Excl(15.0))), ""),
        ("fig7a: mean read speedup, seL4-XPC over seL4-twocopy (paper 3.8)", In(Mean("fig7ab/read", Over("sel4_xpc_mb_s", "sel4_twocopy_mb_s")), (Incl(1.5), Excl(8.0))), ""),
    ]),
    ("fig7::onecopy_beats_twocopy", &[
        ("fig7a: seL4-onecopy reads faster than seL4-twocopy", Every("fig7ab/read", Over("sel4_onecopy_mb_s", "sel4_twocopy_mb_s"), (Excl(1.0), Unbounded)), ""),
    ]),
    ("fig7::fig7b_write_gains_exceed_read_gains_vs_zircon", &[
        ("fig7b: Zircon-XPC gains more on writes than on reads", Above(Mean("fig7ab/write", Over("zircon_xpc_mb_s", "zircon_mb_s")), Mean("fig7ab/read", Over("zircon_xpc_mb_s", "zircon_mb_s"))), ""),
    ]),
    ("fig7::fig7c_speedup_shrinks_with_buffer", &[
        ("fig7c: the speedup shrinks from 128 B to 4 KB", Above(At("fig7c/buffers/0/speedup"), At("fig7c/buffers/5/speedup")), ""),
        ("fig7c: the 128 B speedup", In(At("fig7c/buffers/0/speedup"), (Incl(3.0), Excl(12.0))), "fig7c/paper/max_speedup"),
    ]),
    ("fig8::fig8ab_average_gains_in_band", &[
        ("fig8a: mean Zircon-XPC / Zircon", In(Mean("fig8ab/workloads", Key("zircon_xpc_vs_zircon")), (Incl(1.3), Excl(4.0))), "fig8ab/paper/zircon_xpc_avg"),
        ("fig8b: mean seL4-XPC / seL4-twocopy", In(Mean("fig8ab/workloads", Key("sel4_xpc_vs_twocopy")), (Incl(1.2), Excl(3.5))), "fig8ab/paper/sel4_xpc_avg"),
    ]),
    ("fig8::a_and_f_gain_most_on_sel4", &[
        ("fig8b: cell 0 is YCSB-A", Is("fig8ab/workloads/0/workload", "YCSB-A"), ""),
        ("fig8b: cell 2 is YCSB-C", Is("fig8ab/workloads/2/workload", "YCSB-C"), ""),
        ("fig8b: cell 5 is YCSB-F", Is("fig8ab/workloads/5/workload", "YCSB-F"), ""),
        ("fig8b: YCSB-A gains more than YCSB-C", Above(At("fig8ab/workloads/0/sel4_xpc_vs_twocopy"), At("fig8ab/workloads/2/sel4_xpc_vs_twocopy")), ""),
        ("fig8b: YCSB-F gains more than YCSB-C", Above(At("fig8ab/workloads/5/sel4_xpc_vs_twocopy"), At("fig8ab/workloads/2/sel4_xpc_vs_twocopy")), ""),
    ]),
    ("fig8::http_speedup_bands", &[
        ("fig8c: plain HTTP speedup at 2 KB", In(Ratio("fig8c/sizes/2/zircon_xpc_ops_per_s", "fig8c/sizes/2/zircon_ops_per_s"), (Incl(5.0), Excl(20.0))), "fig8c/paper/plain_speedup"),
        ("fig8c: encrypted HTTP speedup at 2 KB", In(Ratio("fig8c/sizes/2/encrypted_zircon_xpc_ops_per_s", "fig8c/sizes/2/encrypted_zircon_ops_per_s"), (Incl(4.0), Excl(16.0))), "fig8c/paper/encrypted_speedup"),
        ("fig8c: encryption dilutes the IPC win at 2 KB", Above(Ratio("fig8c/sizes/2/zircon_xpc_ops_per_s", "fig8c/sizes/2/zircon_ops_per_s"), Ratio("fig8c/sizes/2/encrypted_zircon_xpc_ops_per_s", "fig8c/sizes/2/encrypted_zircon_ops_per_s")), ""),
    ]),
    ("fig9::buffer_speedup_shrinks_with_size", &[
        ("fig9a: the buffer speedup shrinks from 2 KB to 16 KB", Above(At("fig9a/sizes/1/speedup"), At("fig9a/sizes/4/speedup")), ""),
        ("fig9a: the 2 KB buffer speedup", In(At("fig9a/sizes/1/speedup"), (Incl(25.0), Excl(60.0))), "fig9a/paper/speedup"),
    ]),
    ("fig9::ashmem_speedup_shrinks_toward_2_8x", &[
        ("fig9b: the 4 KB ashmem speedup of Binder-XPC", In(Ratio("fig9b/sizes/0/binder_us", "fig9b/sizes/0/binder_xpc_us"), (Excl(10.0), Unbounded)), "fig9b/paper/speedup_at_4kb"),
        ("fig9b: the 32 MB ashmem speedup of Binder-XPC", In(Ratio("fig9b/sizes/7/binder_us", "fig9b/sizes/7/binder_xpc_us"), (Incl(2.0), Excl(4.5))), "fig9b/paper/speedup_at_32mb"),
    ]),
    ("table5::baseline_in_paper_band", &[
        ("table5: baseline call logic (paper 66)", In(At("table5/0/call/logic_cycles"), (Incl(55.0), Incl(80.0))), ""),
        ("table5: baseline return logic (paper 79)", In(At("table5/0/ret/logic_cycles"), (Incl(68.0), Incl(95.0))), ""),
        ("table5: the reply path is longer", Above(At("table5/0/ret/logic_cycles"), At("table5/0/call/logic_cycles")), ""),
    ]),
    ("table5::xpc_is_7_and_10_plus_barrier", &[
        ("table5: XPC call logic", Is("table5/1/call/logic_cycles", "7"), ""),
        ("table5: XPC call barrier", Is("table5/1/call/barrier_cycles", "58"), ""),
        ("table5: XPC return logic", Is("table5/1/ret/logic_cycles", "10"), ""),
        ("table5: XPC return barrier", Is("table5/1/ret/barrier_cycles", "58"), ""),
    ]),
    ("table5::xpc_improves_logic_by_order_of_magnitude", &[
        ("table5: XPC cuts call logic 8x", In(Ratio("table5/0/call/logic_cycles", "table5/1/call/logic_cycles"), (Incl(8.0), Unbounded)), ""),
    ]),
    ("table6::lut_cost_row_shows_1_99", &[
        ("table6: row 0 is LUT", Is("table6/published/0/resource", "LUT"), ""),
        ("table6: LUT cost prints as 1.99%", In(At("table6/published/0/cost_fraction"), (Incl(0.01985), Excl(0.01995))), ""),
    ]),
    ("table7::xpc_row_is_all_yes", &[
        ("table7: row 5 is seL4-XPC", Is("table7/5/system", "seL4-XPC"), ""),
        ("table7: seL4-XPC traps", Is("table7/5/traps", "false"), ""),
        ("table7: seL4-XPC schedules", Is("table7/5/schedules", "false"), ""),
        ("table7: seL4-XPC is TOCTTOU-safe", Is("table7/5/tocttou_safe", "true"), ""),
        ("table7: seL4-XPC hands over", Is("table7/5/handover", "true"), ""),
    ]),
];

/// The document's sections, by key.
type Doc<'f, 'a> = &'f dyn Fn(&str) -> &'a Value;

/// Check the claims of unit test `test` (every claim for `None`) on the
/// sections `section` returns by key; a failure lists every claim that
/// does not hold.
pub fn check<'a>(section: impl Fn(&str) -> &'a Value, test: Option<&str>) {
    let doc: Doc = &section;
    let claims: Vec<&Claim> = CLAIMS
        .iter()
        .filter(|(t, _)| test.is_none_or(|test| *t == test))
        .flat_map(|(_, claims)| claims.iter())
        .collect();
    assert!(!claims.is_empty(), "no claims under {test:?}");
    let failures: Vec<String> = claims
        .iter()
        .filter_map(|(name, kind, paper)| {
            // Read on every run, so a path that names no leaf fails here.
            let paper = (!paper.is_empty()).then(|| number(at(doc, paper)));
            let read = holds(doc, kind).err()?;
            let paper = paper.map_or(String::new(), |p| format!(" (paper: {p})"));
            Some(format!("{name}: {read}{paper}"))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} claims fail:\n  {}",
        failures.len(),
        claims.len(),
        failures.join("\n  ")
    );
}

/// Whether `kind` holds on `doc`; else what was read instead.
fn holds(doc: Doc, kind: &Kind) -> Result<(), String> {
    let inside = |x: f64, band: &Band| match band.contains(&x) {
        true => Ok(()),
        false => Err(format!("read {x}, outside {band:?}")),
    };
    let cell_err = |i: usize| move |e: String| format!("cell {i}: {e}");
    match kind {
        In(n, band) => inside(num(doc, n), band),
        Is(path, want) => match text(at(doc, path)) {
            got if got == *want => Ok(()),
            got => Err(format!("read {got}, not {want}")),
        },
        Every(path, c, band) => (each(doc, path, c).into_iter().enumerate())
            .try_for_each(|(i, x)| inside(x, band).map_err(cell_err(i))),
        Above(a, b) => match (num(doc, a), num(doc, b)) {
            (x, y) if x > y => Ok(()),
            (x, y) => Err(format!("read {x}, not above {y}")),
        },
        Monotone(path, c, band) => (each(doc, path, c).windows(2).enumerate())
            .try_for_each(|(i, w)| inside(w[1] - w[0], band).map_err(cell_err(i + 1))),
    }
}

fn num(doc: Doc, n: &Num) -> f64 {
    match n {
        At(path) => number(at(doc, path)),
        Ratio(a, b) => number(at(doc, a)) / number(at(doc, b)),
        Diff(a, b) => number(at(doc, a)) - number(at(doc, b)),
        Mean(path, c) => {
            let xs = each(doc, path, c);
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

/// The number `c` reads off each cell of the array at `path`.
fn each(doc: Doc, path: &str, c: &Cell) -> Vec<f64> {
    let Value::Array(cells) = at(doc, path) else {
        panic!("{path} is not an array");
    };
    let read = |v| match c {
        Key(key) => number(under(v, key)),
        Over(a, b) => number(under(v, a)) / number(under(v, b)),
    };
    cells.iter().map(read).collect()
}

/// The value at `path`: a section key, then `/`-separated object keys
/// and array indices.
fn at<'a>(doc: Doc<'_, 'a>, path: &str) -> &'a Value {
    let (key, rest) = path.split_once('/').unwrap_or((path, ""));
    under(doc(key), rest)
}

/// The value at `path` under `v` (`/`-separated object keys and array
/// indices; empty: `v` itself).
fn under<'a>(v: &'a Value, path: &str) -> &'a Value {
    let keys = path.split('/').filter(|k| !k.is_empty());
    keys.fold(v, |v, key| {
        let next = match v {
            Value::Array(items) => key.parse().ok().and_then(|i: usize| items.get(i)),
            _ => v.get(key),
        };
        next.unwrap_or_else(|| panic!("the document has no '{path}'"))
    })
}

/// A numeric leaf, unrounded.
fn number(v: &Value) -> f64 {
    match *v {
        Value::U64(n) => n as f64,
        Value::Fixed(x, _) => x,
        ref other => panic!("not a number: {other:?}"),
    }
}

/// A count, flag or name as JSON prints it, a name without its quotes.
fn text(v: &Value) -> String {
    match v {
        Value::U64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => s.clone(),
        other => panic!("not a count, flag or name: {other:?}"),
    }
}
