//! **Table 7** — systems with IPC optimizations, made *executable*: the
//! qualitative columns come from the mechanism implementations and the
//! quantitative column is each design's measured one-way cost at 4 KiB.

use super::{plain, Column, Experiment, Report};
use crate::json::Value;
use kernels::{table7, Table7Row};

/// Table 7's columns over its rows. The qualitative columns print the
/// absence of a cost ("w/o trap"); the JSON keeps the model's flags.
#[rustfmt::skip]
const COLUMNS: [Column<Table7Row>; 7] = [
    ("System", "system", |r| plain(r.name.as_str())),
    ("w/o trap", "traps", |r| mark(!r.traps, r.traps)),
    ("w/o sched", "schedules", |r| mark(!r.schedules, r.schedules)),
    ("w/o TOCTTOU", "tocttou_safe", |r| mark(r.tocttou_safe, r.tocttou_safe)),
    ("Handover", "handover", |r| mark(r.handover, r.handover)),
    ("Copies", "copies", |r| copies(r.copies)),
    ("4KB one-way (cycles)", "cycles_4k", |r| plain(r.cycles_4k)),
];

/// "yes" when `shown`, and the model's `flag` as the JSON leaf.
fn mark(shown: bool, flag: bool) -> (String, Value) {
    (if shown { "yes" } else { "no" }.to_string(), flag.into())
}

/// A copies formula ("2N", "N", "0+TLB", "0") and its copies per chain
/// hop: the factor of N, 0 for a constant.
fn copies(formula: &str) -> (String, Value) {
    let per_hop: u64 = match formula.strip_suffix('N') {
        Some("") => 1,
        Some(k) => k.parse().expect("a copies formula is kN"),
        None => 0,
    };
    let leaf = vec![("formula", formula.into()), ("per_hop", per_hop.into())];
    (formula.to_string(), Value::Object(leaf))
}

/// Table 7: one [`Table7Row`] per design.
pub struct Table7;

impl Experiment for Table7 {
    type Grid = Vec<Table7Row>;

    fn compute() -> Self::Grid {
        table7()
    }

    fn table(grid: &Self::Grid) -> Report {
        let caption = "IPC designs compared, executable (copies column: N = chain hops)";
        super::cell_table("Table 7", caption, &COLUMNS, grid)
    }

    fn json(grid: &Self::Grid) -> Value {
        super::cell_json(&COLUMNS, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xpc_row_is_all_yes() {
        let r = Table7::table(&table7());
        let xpc = r
            .rows
            .iter()
            .find(|row| row[0] == "seL4-XPC")
            .expect("xpc row");
        assert_eq!(&xpc[1..5], &["yes", "yes", "yes", "yes"]);
    }
}
