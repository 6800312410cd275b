//! **Table 3** — cycles of the XPC hardware instructions, measured by
//! stepping the emulator through warm `xcall`/`xret`/`swapseg`.

use super::Report;
use crate::harness::{measure_swapseg, CallBench, CallBenchConfig};

/// Measured (xcall, xret, swapseg) on the paper-default configuration.
pub fn measure() -> (u64, u64, u64) {
    let mut b = CallBench::new(&CallBenchConfig::paper_default());
    let m = b.measure(3);
    let swap = measure_swapseg(&CallBenchConfig::paper_default());
    (m.xcall, m.xret, swap)
}

/// Regenerate Table 3.
pub(crate) fn run() -> Report {
    let (xcall, xret, swapseg) = measure();
    Report {
        id: "Table 3",
        caption: "Cycles of hardware instructions in XPC (emulator-measured, warm)",
        headers: vec!["Instruction".into(), "Cycles".into(), "Paper".into()],
        rows: vec![
            vec!["xcall".into(), xcall.to_string(), "18".into()],
            vec!["xret".into(), xret.to_string(), "23".into()],
            vec!["swapseg".into(), swapseg.to_string(), "11".into()],
        ],
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
