//! **Figure 6** — one-way call latency vs message size, seL4 vs seL4-XPC,
//! same-core and cross-core.

use super::{Column, Experiment, Layout};
use crate::json::Value;
use crate::sweep::sweep_row;
use kernels::{Sel4, Sel4Transfer, XpcIpc};
use simos::{InvokeOpts, IpcSystem};

/// The paper's x-axis.
pub const SIZES: [u64; 11] = [0, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// One curve: (system, per-size one-way cycles). Driven through the
/// shared [`crate::sweep`] harness; the totals are ledger sums.
pub fn curves() -> Vec<(String, Vec<u64>)> {
    let systems: Vec<Box<dyn IpcSystem>> = vec![
        Box::new(Sel4::new(Sel4Transfer::OneCopy)),
        Box::new(XpcIpc::sel4_xpc()),
        Box::new(Sel4::cross_core(Sel4Transfer::TwoCopy)),
        Box::new(XpcIpc::sel4_xpc().cross_core()),
    ];
    let labels = [
        "seL4 (same core)",
        "seL4-XPC (same core)",
        "seL4 (cross cores)",
        "seL4-XPC (cross cores)",
    ];
    let sizes: Vec<usize> = SIZES.iter().map(|&s| s as usize).collect();
    let curve = |(mut s, label): (Box<dyn IpcSystem>, &str)| {
        let row = sweep_row(s.as_mut(), &sizes, &InvokeOpts::call());
        (
            label.to_string(),
            row.points.iter().map(|(_, inv)| inv.total()).collect(),
        )
    };
    systems.into_iter().zip(labels).map(curve).collect()
}

/// Figure 6's columns over (size, [cycles per curve]) cells, curves in
/// [`curves`] order.
#[rustfmt::skip]
const COLUMNS: [Column<(u64, [u64; 4])>; 5] = [
    ("Message size", "msg_len", |&(s, _)| s.into(), "{msg_len}B"),
    ("seL4 (same core)", "sel4_same_core", |(_, c)| c[0].into(), "{sel4_same_core}"),
    ("seL4-XPC (same core)", "xpc_same_core", |(_, c)| c[1].into(), "{xpc_same_core}"),
    ("seL4 (cross cores)", "sel4_cross_core", |(_, c)| c[2].into(), "{sel4_cross_core}"),
    ("seL4-XPC (cross cores)", "xpc_cross_core", |(_, c)| c[3].into(), "{xpc_cross_core}"),
];

/// Figure 6: one-way cycles per size of the four [`curves`].
pub struct Fig6;

impl Experiment for Fig6 {
    type Grid = Vec<(u64, [u64; 4])>;

    fn compute() -> Self::Grid {
        super::by_axis(&SIZES, &curves())
    }

    fn json(grid: &Self::Grid) -> Value {
        let paper = [
            ("same_core_speedup_min", 5.0),
            ("same_core_speedup_max", 37.0),
            ("cross_core_speedup_min", 81.0),
            ("cross_core_speedup_max", 141.0),
        ];
        super::with_paper(vec![("sizes", super::cell_json(&COLUMNS, grid))], &paper)
    }

    fn layout() -> Layout {
        let caption = "One-way call latency (cycles, log scale in the paper); speedups 5-37x same-core, 81-141x cross-core";
        Layout::columns("Figure 6", caption, "sizes", &COLUMNS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(name: &str) -> Vec<u64> {
        curves().into_iter().find(|(l, _)| l == name).unwrap().1
    }

    #[test]
    fn xpc_is_flat_sel4_grows() {
        let sel4 = curve("seL4 (same core)");
        let xpc = curve("seL4-XPC (same core)");
        assert_eq!(xpc.first(), xpc.last(), "relay-seg is size-independent");
        assert!(sel4.last().unwrap() > &(10 * sel4.first().unwrap()));
    }

    #[test]
    fn same_core_speedup_band_5_to_37() {
        let sel4 = curve("seL4 (same core)");
        let xpc = curve("seL4-XPC (same core)");
        let s0 = sel4[0] as f64 / xpc[0] as f64;
        let s4k = sel4[7] as f64 / xpc[7] as f64;
        assert!((4.5..6.5).contains(&s0), "0B speedup {s0:.1}");
        assert!((30.0..40.0).contains(&s4k), "4KB speedup {s4k:.1}");
    }

    #[test]
    fn cross_core_speedup_band_81_to_141() {
        let sel4 = curve("seL4 (cross cores)");
        let xpc = curve("seL4-XPC (cross cores)");
        let small = sel4[0] as f64 / xpc[0] as f64;
        let big = sel4[7] as f64 / xpc[7] as f64;
        assert!((70.0..95.0).contains(&small), "small {small:.1}");
        assert!((125.0..160.0).contains(&big), "4KB {big:.1}");
    }

    #[test]
    fn medium_sizes_take_sel4_slow_path() {
        let sel4 = curve("seL4 (same core)");
        // 64B (slow path) costs more than 128B relative to its size —
        // the §2.2 anomaly where medium messages are disproportionately
        // expensive.
        assert!(sel4[1] > 2000, "64B slow path");
    }
}
