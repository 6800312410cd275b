//! The paper's own numbers (ISCA'19), kept here so the simulator's error
//! against them can be stated beside any later simulated-speed-up claim.

use xpc_bench::experiments::{fig5, fig6, table1, table3};

/// `(what, paper value, simulated value)` for every reference point.
pub fn points() -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();

    // Table 1: one-way seL4 fast path, column sums for 0 B and 4 KiB.
    let phases = table1::phases();
    let sum = |col: fn(&(&str, u64, u64)) -> u64| phases.iter().map(col).sum::<u64>() as f64;
    out.push(("table1 seL4 0B".to_string(), 664.0, sum(|p| p.1)));
    out.push(("table1 seL4 4KB".to_string(), 4804.0, sum(|p| p.2)));

    // Table 3: cycles of xcall / xret / swapseg.
    let (xcall, xret, swapseg) = table3::measure();
    out.push(("table3 xcall".to_string(), 18.0, xcall as f64));
    out.push(("table3 xret".to_string(), 23.0, xret as f64));
    out.push(("table3 swapseg".to_string(), 11.0, swapseg as f64));

    // Figure 5: the optimisation ladder, cycles of one IPC call.
    for (bar, paper) in fig5::bars().iter().zip([150.0, 89.0, 49.0, 33.0, 21.0]) {
        out.push((format!("fig5 {}", bar.config), paper, bar.total as f64));
    }

    // Figure 6: seL4 over seL4-XPC at 0 B and 4 KiB, same core (5x and
    // 37x in the paper) and across cores (81x and 141x).
    let curves = fig6::curves();
    let at = |curve: usize, bytes: u64| {
        let i = fig6::SIZES
            .iter()
            .position(|&s| s == bytes)
            .expect("size on the axis");
        curves[curve].1[i] as f64
    };
    for (what, paper, base, xpc, bytes) in [
        ("fig6 same-core 0B", 5.0, 0, 1, 0),
        ("fig6 same-core 4KB", 37.0, 0, 1, 4096),
        ("fig6 cross-core 0B", 81.0, 2, 3, 0),
        ("fig6 cross-core 4KB", 141.0, 2, 3, 4096),
    ] {
        out.push((what.to_string(), paper, at(base, bytes) / at(xpc, bytes)));
    }
    out
}

/// Mean absolute percentage error of the simulated values against the
/// paper's.
pub fn mape_pct(points: &[(String, f64, f64)]) -> f64 {
    let total: f64 = points
        .iter()
        .map(|(_, paper, sim)| ((sim - paper) / paper).abs())
        .sum();
    100.0 * total / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_is_the_mean_of_relative_errors() {
        let pts = vec![
            ("a".to_string(), 100.0, 110.0),
            ("b".to_string(), 50.0, 45.0),
            ("c".to_string(), 10.0, 10.0),
        ];
        assert!((mape_pct(&pts) - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn every_reference_point_has_a_simulated_value() {
        let pts = points();
        assert_eq!(pts.len(), 14);
        assert!(pts.iter().all(|(_, paper, sim)| *paper > 0.0 && *sim > 0.0));
    }
}
