//! **Table 7** — systems with IPC optimizations, made *executable*: the
//! qualitative columns come from the mechanism implementations and the
//! quantitative column is each design's measured one-way cost at 4 KiB.

use super::{Column, Experiment, Layout};
use crate::json::Value;
use kernels::{table7, Table7Row};

/// Table 7's columns over its rows. The qualitative columns print the
/// absence of a cost ("w/o trap"); the JSON keeps the model's flags.
#[rustfmt::skip]
const COLUMNS: [Column<Table7Row>; 7] = [
    ("System", "system", |r| r.name.as_str().into(), "{system}"),
    ("w/o trap", "traps", |r| r.traps.into(), "{traps:no|yes}"),
    ("w/o sched", "schedules", |r| r.schedules.into(), "{schedules:no|yes}"),
    ("w/o TOCTTOU", "tocttou_safe", |r| r.tocttou_safe.into(), "{tocttou_safe:yes|no}"),
    ("Handover", "handover", |r| r.handover.into(), "{handover:yes|no}"),
    ("Copies", "copies", |r| copies(r.copies), "{copies/formula}"),
    ("4KB one-way (cycles)", "cycles_4k", |r| r.cycles_4k.into(), "{cycles_4k}"),
];

/// A copies formula ("2N", "N", "0+TLB", "0") and its copies per chain
/// hop: the factor of N, 0 for a constant.
fn copies(formula: &str) -> Value {
    let per_hop: u64 = match formula.strip_suffix('N') {
        Some("") => 1,
        Some(k) => k.parse().expect("a copies formula is kN"),
        None => 0,
    };
    Value::Object(vec![
        ("formula", formula.into()),
        ("per_hop", per_hop.into()),
    ])
}

/// Table 7: one [`Table7Row`] per design.
pub struct Table7;

impl Experiment for Table7 {
    type Grid = Vec<Table7Row>;

    fn compute() -> Self::Grid {
        table7()
    }

    fn json(grid: &Self::Grid) -> Value {
        super::cell_json(&COLUMNS, grid)
    }

    fn layout() -> Layout {
        let caption = "IPC designs compared, executable (copies column: N = chain hops)";
        Layout::columns("Table 7", caption, "", &COLUMNS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xpc_row_is_all_yes() {
        let r = crate::experiments::report::<Table7>(&table7());
        let xpc = r
            .rows
            .iter()
            .find(|row| row[0] == "seL4-XPC")
            .expect("xpc row");
        assert_eq!(&xpc[1..5], &["yes", "yes", "yes", "yes"]);
    }
}
