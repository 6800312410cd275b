//! **Table 3** — cycles of the XPC hardware instructions, measured by
//! stepping the emulator through warm `xcall`/`xret`/`swapseg`.

use super::{Column, Experiment, Layout};
use crate::harness::{measure_swapseg, CallBench, CallBenchConfig};
use crate::json::Value;

/// Measured (xcall, xret, swapseg) on the paper-default configuration.
pub fn measure() -> (u64, u64, u64) {
    let mut b = CallBench::new(&CallBenchConfig::paper_default());
    let m = b.measure(3);
    let swap = measure_swapseg(&CallBenchConfig::paper_default());
    (m.xcall, m.xret, swap)
}

/// Table 3's columns over (instruction, measured, paper) cells.
#[rustfmt::skip]
const COLUMNS: [Column<(&str, u64, u64)>; 3] = [
    ("Instruction", "instruction", |&(name, ..)| name.into(), "{instruction}"),
    ("Cycles", "cycles", |&(_, c, _)| c.into(), "{cycles}"),
    ("Paper", "paper", |&(.., p)| p.into(), "{paper}"),
];

/// Table 3: the measured and the paper's cycles of each instruction.
pub struct Table3;

impl Experiment for Table3 {
    type Grid = Vec<(&'static str, u64, u64)>;

    fn compute() -> Self::Grid {
        let (xcall, xret, swapseg) = measure();
        // The paper's cycles beside each measurement.
        vec![
            ("xcall", xcall, 18),
            ("xret", xret, 23),
            ("swapseg", swapseg, 11),
        ]
    }

    fn json(grid: &Self::Grid) -> Value {
        super::cell_json(&COLUMNS, grid)
    }

    fn layout() -> Layout {
        let caption = "Cycles of hardware instructions in XPC (emulator-measured, warm)";
        Layout::columns("Table 3", caption, "", &COLUMNS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_with_paper() {
        assert_eq!(measure(), (18, 23, 11));
    }
}
