//! `bench` probes: one `figures_all` pass, split by step, and the
//! simulator's error against the paper.

use crate::metrics::Metrics;
use crate::reference;
use crate::trace::Tracer;
use crate::workloads::figures_all::{self, Step};

/// Experiments reported on their own; the other 18 go into `rest_ms`.
const OWN: [(&str, &str); 6] = [
    ("fig1a", "bench.fig1a_ms"),
    ("fig1b", "bench.fig1b_ms"),
    ("fig7ab", "bench.fig7ab_ms"),
    ("fig8ab", "bench.fig8ab_ms"),
    ("serve", "bench.serve_ms"),
    ("fuse", "bench.fuse_ms"),
];

pub fn run(m: &mut Metrics) {
    let mut t = Tracer::new(false);
    let (mut rest, mut render, mut pass, mut bytes) = (0.0, 0.0, 0.0, 0);
    for index in 0..figures_all::steps() {
        match figures_all::step(index, &mut t) {
            Step::Report {
                key,
                text,
                run_seconds,
                render_seconds,
            } => {
                match OWN.iter().find(|(k, _)| *k == key) {
                    Some((_, metric)) => m.set(metric, run_seconds * 1e3),
                    None => rest += run_seconds,
                }
                render += render_seconds;
                pass += run_seconds + render_seconds;
                // `figures all` prints one blank line after each report.
                bytes += text.len() + 1;
            }
            Step::Json { seconds, .. } => {
                m.set("bench.json_tail_ms", seconds * 1e3);
                pass += seconds;
            }
        }
    }
    m.set("bench.rest_ms", rest * 1e3);
    m.set("bench.render_ms", render * 1e3);
    m.set("bench.pass_ms", pass * 1e3);
    m.set("bench.golden_bytes", bytes as f64);
    m.set(
        "bench.paper_mape_pct",
        reference::mape_pct(&reference::points()),
    );
}
