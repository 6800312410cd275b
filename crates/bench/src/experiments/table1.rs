//! **Table 1** — one-way IPC latency breakdown of seL4 (0 B and 4 KB).
//!
//! The table is literally the printed ledger of `Sel4::oneway_into` at
//! 0 B and 4096 B:
//! each row is a [`kernels::Phase`] span in first-charge order, so the
//! numbers here and the numbers every other figure attributes to seL4
//! come from the same place.

use super::{Experiment, Layout};
use crate::json::Value;
use crate::sweep::ledgers_json;
use kernels::{Invocation, InvokeOpts, IpcSystem, Sel4, Sel4Transfer};

/// Phase breakdown rows for 0 B and 4 KB messages.
///
/// # Panics
///
/// If the 0 B and 4 KB fast paths charge different phases, which the
/// seL4 model never does.
pub fn phases() -> Vec<(&'static str, u64, u64)> {
    let (i0, i4k) = Table1::compute();
    i0.ledger
        .spans()
        .iter()
        .zip(i4k.ledger.spans())
        .map(|(&(p, a), &(q, b))| {
            assert_eq!(p, q, "fast path charges the same phases at any size");
            (p.label(), a, b)
        })
        .collect()
}

/// Table 1: the 0 B and 4 KB fast-path invocations, whose ledgers are
/// the table's columns.
pub struct Table1;

impl Experiment for Table1 {
    type Grid = (Invocation, Invocation);

    fn compute() -> Self::Grid {
        let mut s = Sel4::new(Sel4Transfer::OneCopy);
        let mut at = |bytes| Invocation::priced(|l| s.oneway_into(bytes, &InvokeOpts::call(), l));
        (at(0), at(4096))
    }

    fn json((i0, i4k): &Self::Grid) -> Value {
        ledgers_json([
            ("seL4(0B) fast path", 0, i0),
            ("seL4(4KB) fast path", 4096, i4k),
        ])
    }

    /// One row per phase of the fast path, in charge order, one column
    /// per invocation, then their sums.
    #[rustfmt::skip]
    fn layout() -> Layout {
        let caption = "One-way IPC latency of seL4 (fast path), cycles";
        let headers = ["Phases (cycles)", "seL4(0B) fast path", "seL4(4KB) fast path"];
        Layout::new("Table 1", caption, &headers)
            .one("", &["Trap", "{0/invocation/phases/trap}", "{1/invocation/phases/trap}"])
            .one("", &["IPC Logic", "{0/invocation/phases/ipc-logic}", "{1/invocation/phases/ipc-logic}"])
            .one("", &["Process Switch", "{0/invocation/phases/switch}", "{1/invocation/phases/switch}"])
            .one("", &["Restore", "{0/invocation/phases/restore}", "{1/invocation/phases/restore}"])
            .one("", &["Message Transfer", "{0/invocation/phases/transfer}", "{1/invocation/phases/transfer}"])
            .one("", &["Sum", "{0/invocation/total}", "{1/invocation/total}"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_five_phases_plus_sum() {
        let grid = Table1::compute();
        let rows = crate::experiments::report::<Table1>(&grid).rows;
        let labels: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        let mut want: Vec<&str> = phases().iter().map(|&(n, _, _)| n).collect();
        want.push("Sum");
        assert_eq!(labels, want, "a row per ledger phase, in charge order");
        let totals = [grid.0.total(), grid.1.total()].map(|t| t.to_string());
        assert_eq!(rows[5][1..], totals, "the sums are the ledger totals");
    }

    #[test]
    fn rows_are_the_ledger_spans() {
        let (i0, _) = Table1::compute();
        let names: Vec<&str> = phases().iter().map(|&(n, _, _)| n).collect();
        let spans: Vec<&str> = i0.ledger.spans().iter().map(|&(p, _)| p.label()).collect();
        assert_eq!(names, spans);
    }

    crate::experiments::claims_tests!(table1: sum_0b_is_664, sum_4k_close_to_4804);
}
