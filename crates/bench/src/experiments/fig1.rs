//! **Figure 1** — the motivation measurements: (a) fraction of CPU time
//! Sqlite3/YCSB spends in IPC on seL4; (b) CDF of IPC time by message
//! length for YCSB-E. (b)'s run is (a)'s YCSB-E cell — same mechanism,
//! spec and seed — so [`Fig1a`]'s grid holds what (b) prints, and
//! [`Fig1b`] reads it from the grid (a) parked (see [`super`]).

use super::{Column, Experiment, Layout};
use crate::json::Value;
use kernels::{Sel4, Sel4Transfer};
use minidb::{load, run_loaded, run_workload};
use simos::World;
use ycsb::{Workload, WorkloadSpec};

/// Message-length bounds of the Figure 1(b) CDF.
const BOUNDS: [u64; 8] = [4, 16, 64, 256, 1024, 4096, 8192, 1 << 20];

fn spec(wl: Workload) -> WorkloadSpec {
    WorkloadSpec {
        ops: 500,
        ..WorkloadSpec::paper(wl)
    }
}

#[cfg(test)]
thread_local! {
    /// Runs of [`Fig1a::compute`] and of [`ycsb_e_cdf`] on this thread.
    static RUNS: std::cell::Cell<[u32; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Figure 1(a): the IPC fraction of each YCSB mix, plus the YCSB-E
/// cell's CDF and transfer share, which Figure 1(b) prints.
pub struct Fig1a;

impl Experiment for Fig1a {
    type Grid = (Vec<(&'static str, f64)>, <Fig1b as Experiment>::Grid);

    fn compute() -> Self::Grid {
        #[cfg(test)]
        RUNS.set([RUNS.get()[0] + 1, RUNS.get()[1]]);
        let sel4 = || World::new(Box::new(Sel4::new(Sel4Transfer::TwoCopy)));
        // One table load (§5.4), forked per mix; see `fig8::Fig8ab`.
        let loaded = load(&mut sel4(), &spec(Workload::A));
        // Six independent worlds through the pool; the E cell also
        // reduces its world to what Figure 1(b) prints.
        let mut cells = simos::par::map_cells(Workload::ALL.to_vec(), |_, wl, _| {
            let mut w = sel4();
            let r = run_loaded(&mut w, loaded.clone(), &spec(wl));
            let e =
                (wl == Workload::E).then(|| (w.stats.cdf_by_size(&BOUNDS), r.transfer_fraction));
            (wl.name(), r.ipc_fraction, e)
        });
        let e = cells.iter_mut().find_map(|cell| cell.2.take());
        let fractions = cells.into_iter().map(|(name, f, _)| (name, f)).collect();
        (fractions, e.expect("YCSB-E is one of the mixes"))
    }

    fn json((fractions, _): &Self::Grid) -> Value {
        let cells = super::cell_json(&FRACTION_COLUMNS, fractions);
        let paper = [("ipc_fraction_min", 0.18), ("ipc_fraction_max", 0.39)];
        super::with_paper(vec![("workloads", cells)], &paper)
    }

    fn layout() -> Layout {
        let caption = "CPU time spent in IPC, Sqlite3 + YCSB on seL4 (paper: 18-39%)";
        Layout::columns("Figure 1(a)", caption, "workloads", &FRACTION_COLUMNS)
    }
}

/// Figure 1(a)'s columns over (workload, IPC fraction) cells.
#[rustfmt::skip]
const FRACTION_COLUMNS: [Column<(&str, f64)>; 2] = [
    ("Workload", "workload", |&(w, _)| w.into(), "{workload}"),
    ("IPC time", "ipc_fraction", |&(_, f)| Value::Fixed(f, 4), "{ipc_fraction:%1}%"),
];

/// The Figure 1(b) CDF and transfer fraction for YCSB-E, from a world
/// of its own.
pub(crate) fn ycsb_e_cdf() -> (Vec<(u64, f64)>, f64) {
    #[cfg(test)]
    RUNS.set([RUNS.get()[0], RUNS.get()[1] + 1]);
    let mut w = World::new(Box::new(Sel4::new(Sel4Transfer::TwoCopy)));
    let r = run_workload(&mut w, &spec(Workload::E));
    (w.stats.cdf_by_size(&BOUNDS), r.transfer_fraction)
}

/// Figure 1(b): the YCSB-E CDF at eight message-length bounds and the
/// data-transfer share of IPC time.
pub struct Fig1b;

impl Experiment for Fig1b {
    type Grid = (Vec<(u64, f64)>, f64);

    /// The YCSB-E cell of the [`Fig1a`] grid parked on this thread, else
    /// a YCSB-E run of its own.
    fn compute() -> Self::Grid {
        super::peek::<Fig1a, _>(|(_, e)| e.clone()).unwrap_or_else(ycsb_e_cdf)
    }

    fn json((cdf, transfer): &Self::Grid) -> Value {
        let fields = vec![
            ("cdf", super::cell_json(&CDF_COLUMNS, cdf)),
            ("transfer_fraction", Value::Fixed(*transfer, 4)),
        ];
        super::with_paper(fields, &[("transfer_fraction", PAPER)])
    }

    fn layout() -> Layout {
        let caption = "CDF of IPC time by message length, YCSB-E on seL4";
        let transfer = "{transfer_fraction:%1}% (paper: {paper/transfer_fraction:%1}%)";
        Layout::columns("Figure 1(b)", caption, "cdf", &CDF_COLUMNS)
            .one("", &["data-transfer share of IPC time", transfer])
    }
}

/// Figure 1(b)'s columns over (message-length bound, CDF) cells.
#[rustfmt::skip]
const CDF_COLUMNS: [Column<(u64, f64)>; 2] = [
    ("Message length", "max_bytes", |&(b, _)| b.into(), "<= {max_bytes}B"),
    ("CDF of IPC time", "cdf", |&(_, f)| Value::Fixed(f, 4), "{cdf:.3}"),
];

/// The paper's data-transfer share of IPC time on YCSB-E.
const PAPER: f64 = 0.587;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{is_parked, run, sections_of, take, view, REGISTRY};

    /// Whether anything of Figure 1 is parked on this thread.
    fn parked() -> bool {
        is_parked::<Fig1a>() || is_parked::<Fig1b>()
    }

    #[test]
    fn the_fig1a_grid_is_computed_once_per_pass() {
        let pass = |workers| {
            simos::par::with_threads(workers, || {
                RUNS.set([0; 2]);
                let (a, b) = (run::<Fig1a>().render(), run::<Fig1b>().render());
                let views = [view::<Fig1a>(false), view::<Fig1b>(false)];
                assert_eq!(
                    RUNS.get(),
                    [1, 0],
                    "{workers} workers: one grid, no E rerun"
                );
                assert!(!parked(), "{workers} workers: the views took both grids");
                let cold = run::<Fig1b>().render();
                assert_eq!(RUNS.get(), [1, 1], "a cold Figure 1(b) runs its own world");
                assert_eq!(cold, b, "cold != handed off at {workers} workers");
                take::<Fig1b>();
                (a, b, views)
            })
        };
        let one = pass(1);
        assert!(one == pass(4), "1 worker != 4 workers");

        // A cold document pass computes Figure 1(a)'s grid before Figure
        // 1(b) reads it, and ends with nothing parked. The pass runs over
        // the registry's Figure 1 entries only, through the helper the
        // whole document is read with.
        let entries = &REGISTRY[..2];
        assert_eq!(
            entries.iter().map(|e| e.0).collect::<Vec<_>>(),
            ["fig1a", "fig1b"]
        );
        RUNS.set([0; 2]);
        let sections = sections_of(entries);
        assert_eq!(RUNS.get(), [1, 0], "a cold pass: one grid, no E rerun");
        assert!(!parked(), "a cold pass leaves nothing of Figure 1 parked");
        let fig1 = |key| sections.iter().find(|s| s.1 == key).map(|s| &s.2);
        assert_eq!([fig1("fig1a"), fig1("fig1b")], one.2.each_ref().map(Some));
    }

    crate::experiments::claims_tests! {
        fig1: fractions_in_paper_band, transfer_dominates_ipc_on_e, cdf_is_monotone_and_ends_at_one
    }
}
