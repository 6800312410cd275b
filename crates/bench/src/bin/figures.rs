//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p xpc-bench --bin figures -- all
//! cargo run -p xpc-bench --bin figures -- table3 fig6
//! cargo run -p xpc-bench --bin figures -- --json
//! cargo run -p xpc-bench --bin figures -- --threads 4 --json all
//! ```
//!
//! `--json` additionally writes `BENCH_figures.json`: the full
//! kernel-model roster's per-system, per-size, per-phase cycle
//! attributions, then one section per experiment: the view its table is
//! rendered from, less the few view-only leaves the committed sections
//! predate. A grid whose table was printed above is handed to its JSON
//! section, not computed again (see `xpc_bench::experiments`).
//! `--threads N` pins the sweep pool's worker count (default: the
//! machine's parallelism); the rendered output and the dump, virtual time
//! only, are byte-identical at any setting. Every argument is checked
//! before the first experiment runs: an unknown flag exits 2, an unknown
//! experiment 1, both with stdout empty. A closed stdout
//! (`figures all | head`) ends the run quietly with exit 0.
//!
//! Both committed snapshots, `figures/golden.txt` and
//! `BENCH_figures.json`, are this binary's output, pinned by
//! `crates/bench/tests/snapshots.rs`. After an intentional model change,
//! refresh both with
//!
//! ```text
//! cargo run --release -p xpc-bench --bin figures -- --threads 1 --json all > figures/golden.txt
//! ```

use std::io::Write;
use xpc_bench::experiments::{self, Entry};
use xpc_bench::sweep;

fn fail(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

fn parse_threads(v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => fail(&format!("--threads wants a positive integer, got '{v}'")),
    }
}

fn main() {
    let mut json = false;
    let mut threads = None;
    let mut keys = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json = true;
        } else if arg == "--threads" {
            match args.next() {
                Some(v) => threads = Some(parse_threads(&v)),
                None => fail("--threads wants a value"),
            }
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            threads = Some(parse_threads(v));
        } else if arg.starts_with('-') {
            fail(&format!("unknown flag '{arg}'"));
        } else {
            keys.push(arg);
        }
    }

    let registry = experiments::all();
    let find = |key: &str| registry.iter().find(|(k, _)| *k == key).copied();
    if let Some(key) = keys.iter().find(|k| *k != "all" && find(k).is_none()) {
        let hint = experiments::suggest(key)
            .map(|s| format!(" (did you mean '{s}'?)"))
            .unwrap_or_default();
        let available: Vec<&str> = registry.iter().map(|(k, _)| *k).collect();
        eprintln!(
            "unknown experiment '{key}'{hint}; available: {}",
            available.join(", ")
        );
        std::process::exit(1);
    }
    let chosen: Vec<Entry> = if keys.is_empty() || keys.iter().any(|k| k == "all") {
        registry
    } else {
        keys.iter().filter_map(|k| find(k)).collect()
    };

    let workers = threads.unwrap_or_else(simos::par::threads);
    simos::par::with_threads(workers, || run(&chosen, json));
}

/// Print each chosen report, then write the JSON document if asked.
fn run(chosen: &[Entry], json: bool) {
    let mut out = std::io::stdout().lock();
    for (_, report) in chosen {
        match writeln!(out, "{}", report().render()) {
            Ok(()) => {}
            // The reader has seen enough.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
            Err(e) => fail(&format!("failed to write to stdout: {e}")),
        }
    }

    if json {
        let path = "BENCH_figures.json";
        if let Err(e) = std::fs::write(path, experiments::json_document()) {
            fail(&format!("failed to write {path}: {e}"));
        }
        eprintln!(
            "wrote {path}: {} systems x {} sizes, phase-attributed",
            kernels::full_roster_factories().len(),
            sweep::SIZES.len(),
        );
    }
}
