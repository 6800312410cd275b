//! `figures_all` — what users run: `figures all`, then the `--json
//! --no-simspeed` tail.
//!
//! A pass is every `xpc_bench::experiments::all()` entry executed and
//! rendered in registry order at the default `simos::par::threads()`,
//! then the JSON dump (`sweep::roster_sweep`, the Figure 5 ledgers, the
//! eight `json_section()`s, `sweep::json_dump`) built in memory. One
//! chunk is one step of a pass, so the chunk kinds are the 24
//! experiments and the tail, and a slow neighbour during one experiment
//! costs that experiment's median, not a whole pass. The `services` /
//! `minidb` / `ycsb` stack does most of the host work here and `load` /
//! `serve` little — the opposite mix to `closed_sweep` and `open_serve`.
//! The registry pins its own seeds, so `--seed` changes nothing in this
//! workload.
//!
//! The output check compares every rendered report with its section of
//! the repository's own `figures/golden.txt`, read at run time, so a
//! change that legitimately moves the golden file moves the check with
//! it.

use crate::harness::{kind_of, ChunkOutcome, Workload};
use crate::trace::Tracer;
use std::time::Instant;
use xpc_bench::{experiments, sweep};

/// The repository's golden `figures all` output.
pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../figures/golden.txt");

/// What one step of a pass produced.
pub enum Step {
    /// A registry experiment: its key, rendered report, and the seconds
    /// spent running and rendering it.
    Report {
        key: &'static str,
        text: String,
        run_seconds: f64,
        render_seconds: f64,
    },
    /// The JSON tail.
    Json { doc: String, seconds: f64 },
}

/// Steps in a pass: the registry's experiments, then the tail.
pub fn steps() -> usize {
    experiments::all().len() + 1
}

/// Run step `index` of a pass; the experiment, its rendering and the
/// tail are spans on `t`.
pub fn step(index: usize, t: &mut Tracer) -> Step {
    let t0 = Instant::now();
    match experiments::all().get(index) {
        Some(&(key, run)) => {
            let report = t.span("bench", key, run);
            let run_seconds = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let text = t.span("bench", "render", || report.render());
            Step::Report {
                key,
                text,
                run_seconds,
                render_seconds: t0.elapsed().as_secs_f64(),
            }
        }
        None => {
            let doc = t.span("bench", "json_tail", json_tail);
            Step::Json {
                doc,
                seconds: t0.elapsed().as_secs_f64(),
            }
        }
    }
}

/// The `BENCH_figures.json` document `figures --json --no-simspeed`
/// writes, built in memory.
fn json_tail() -> String {
    let rows = sweep::roster_sweep();
    let fig5: Vec<(String, kernels::Invocation)> = experiments::fig5::invocations()
        .into_iter()
        .map(|(name, inv)| (name.to_string(), inv))
        .collect();
    let raw = [
        ("scale", experiments::scale::json_section()),
        ("pipeline", experiments::pipeline::json_section()),
        ("ablations", experiments::ablations::json_section()),
        ("numa", experiments::numa::json_section()),
        ("verify", experiments::verify::json_section()),
        ("serve", experiments::serve::json_section()),
        ("fuse", experiments::fuse::json_section()),
        ("harden", experiments::harden::json_section()),
    ];
    sweep::json_dump(&rows, &[("fig5", fig5)], &raw)
}

/// `golden.txt` cut into one section per report: each starts at a
/// `== id — caption ==` line and runs up to the next one.
pub fn golden_sections(golden: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = golden.match_indices("\n== ").map(|(i, _)| i + 1).collect();
    if golden.starts_with("== ") {
        starts.insert(0, 0);
    }
    starts
        .iter()
        .zip(starts.iter().skip(1).chain([&golden.len()]))
        .map(|(&a, &b)| &golden[a..b])
        .collect()
}

/// Whether `text` is what `figures all` printed for report `index` of
/// `golden` (each report is followed by one blank line).
pub fn matches_golden(golden: &str, index: usize, text: &str) -> bool {
    golden_sections(golden)
        .get(index)
        .is_some_and(|section| section.strip_suffix('\n') == Some(text))
}

pub struct FiguresAll {
    golden: Option<String>,
    last: Option<Step>,
}

pub fn build(_seed: u64, _t: &mut Tracer) -> Box<dyn Workload> {
    let golden = std::fs::read_to_string(GOLDEN_PATH);
    if let Err(e) = &golden {
        eprintln!("figures_all: cannot read {GOLDEN_PATH}: {e}");
    }
    Box::new(FiguresAll {
        golden: golden.ok(),
        last: None,
    })
}

impl Workload for FiguresAll {
    fn kinds(&self) -> usize {
        steps()
    }

    fn run_chunk(&mut self, index: u64, t: &mut Tracer) {
        let kind = kind_of(index, steps());
        self.last = Some(step(kind, t));
    }

    fn check_chunk(&mut self, index: u64) -> ChunkOutcome {
        let kind = kind_of(index, steps());
        let (ops, ok) = match (self.last.take(), &self.golden) {
            (Some(Step::Report { key, text, .. }), Some(golden)) => {
                let same = matches_golden(golden, kind, &text);
                if !same {
                    eprintln!("figures_all: report '{key}' differs from its golden.txt section");
                }
                (1, same)
            }
            // The tail is part of the pass's time, not an operation; a
            // malformed document still fails the run.
            (Some(Step::Json { doc, .. }), Some(golden)) => {
                let closed = doc.starts_with('{') && doc.trim_end().ends_with('}');
                let complete = golden_sections(golden).len() + 1 == steps();
                (0, closed && complete)
            }
            _ => (1, false),
        };
        ChunkOutcome {
            ops,
            failed: u64::from(!ok),
            digest: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_is_cut_at_report_headers() {
        let golden = "== A — x ==\nrow\n\n== B — y ==\nr1\nr2\n\n";
        assert_eq!(
            golden_sections(golden),
            vec!["== A — x ==\nrow\n\n", "== B — y ==\nr1\nr2\n\n"]
        );
        assert!(matches_golden(golden, 0, "== A — x ==\nrow\n"));
        assert!(matches_golden(golden, 1, "== B — y ==\nr1\nr2\n"));
        assert!(!matches_golden(golden, 1, "== B — y ==\nr1\nr3\n"));
        assert!(
            !matches_golden(golden, 2, ""),
            "a report with no section fails"
        );
    }

    #[test]
    fn the_repository_golden_has_one_section_per_experiment() {
        let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden.txt");
        assert_eq!(golden_sections(&golden).len() + 1, steps());
    }

    #[test]
    fn a_corrupted_section_fails_its_report_and_no_other() {
        let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden.txt");
        let mut w = FiguresAll {
            golden: Some(golden.replacen("Table 1", "Table I", 1)),
            last: None,
        };
        // Chunks 1 and 2 are fig1b and table1.
        let failed: Vec<u64> = [1, 2]
            .map(|i| {
                w.run_chunk(i, &mut Tracer::new(false));
                w.check_chunk(i).failed
            })
            .to_vec();
        assert_eq!(failed, [0, 1]);
    }
}
