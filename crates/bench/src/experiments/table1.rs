//! **Table 1** — one-way IPC latency breakdown of seL4 (0 B and 4 KB).
//!
//! The table is literally the printed ledger of `Sel4::oneway_into` at
//! 0 B and 4096 B:
//! each row is a [`kernels::Phase`] span in first-charge order, so the
//! numbers here and the numbers every other figure attributes to seL4
//! come from the same place.

use super::Report;
use crate::sweep::ledger_table;
use kernels::{Invocation, InvokeOpts, IpcSystem, Sel4, Sel4Transfer};

/// The two invocations whose ledgers are the table's columns.
pub(crate) fn invocations() -> (Invocation, Invocation) {
    let mut s = Sel4::new(Sel4Transfer::OneCopy);
    let mut at = |bytes| Invocation::priced(|l| s.oneway_into(bytes, &InvokeOpts::call(), l));
    (at(0), at(4096))
}

/// Phase breakdown rows for 0 B and 4 KB messages.
pub fn phases() -> Vec<(&'static str, u64, u64)> {
    let (i0, i4k) = invocations();
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

/// Regenerate Table 1.
pub(crate) fn run() -> Report {
    let (i0, i4k) = invocations();
    ledger_table(
        "Table 1",
        "One-way IPC latency of seL4 (fast path), cycles",
        &[
            ("seL4(0B) fast path".into(), i0),
            ("seL4(4KB) fast path".into(), i4k),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_0b_is_664() {
        assert_eq!(invocations().0.total(), 664, "paper Table 1 total");
    }

    #[test]
    fn sum_4k_close_to_4804() {
        let t = invocations().1.total();
        // Paper: 4804. Our model omits the small phase inflation the
        // paper observed under 4K buffers (their phases grew a few
        // cycles); we land within 3%.
        let err = (t as f64 - 4804.0).abs() / 4804.0;
        assert!(err < 0.05, "4KB total {t} vs paper 4804");
    }

    #[test]
    fn report_has_five_phases_plus_sum() {
        assert_eq!(run().rows.len(), 6);
    }

    #[test]
    fn rows_are_the_ledger_spans() {
        let (i0, _) = invocations();
        let names: Vec<&str> = phases().iter().map(|&(n, _, _)| n).collect();
        let spans: Vec<&str> = i0.ledger.spans().iter().map(|&(p, _)| p.label()).collect();
        assert_eq!(names, spans);
    }
}
