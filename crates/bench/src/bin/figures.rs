//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p xpc-bench --bin figures -- all
//! cargo run -p xpc-bench --bin figures -- table3 fig6
//! cargo run -p xpc-bench --bin figures -- --json
//! cargo run -p xpc-bench --bin figures -- --threads 4 --json all
//! ```
//!
//! `--json` additionally sweeps the full kernel-model roster and dumps
//! per-system, per-size, per-phase cycle attributions (plus the Figure 5
//! ablation ledgers and one section per scenario grid) to
//! `BENCH_figures.json`; a grid whose table was printed above is handed
//! to its JSON section, not computed again (see `xpc_bench::experiments`).
//! `--threads N` pins the sweep pool's worker count (overriding
//! `XPC_BENCH_THREADS` and the machine's parallelism); the rendered
//! output and the dump, virtual time only, are byte-identical at any
//! setting. A closed stdout (`figures all | head`) ends the run quietly
//! with exit 0.

use std::io::Write;
use xpc_bench::experiments;
use xpc_bench::sweep;

fn fail(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

fn parse_threads(what: &str, v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => fail(&format!("{what} wants a positive integer, got '{v}'")),
    }
}

fn main() {
    // `simos::par` skips an unparsable XPC_BENCH_THREADS and uses every
    // core; here a typo gets the answer `--threads` gives.
    if let Some(v) = std::env::var_os("XPC_BENCH_THREADS") {
        parse_threads("XPC_BENCH_THREADS", v.to_string_lossy().trim());
    }

    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");

    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--threads=") {
            simos::par::set_threads(Some(parse_threads("--threads", v)));
            args.remove(i);
        } else if args[i] == "--threads" {
            match args.get(i + 1) {
                Some(v) => simos::par::set_threads(Some(parse_threads("--threads", v))),
                None => fail("--threads wants a value"),
            }
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }

    let registry = experiments::all();
    let keys: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        registry.iter().map(|(k, _)| *k).collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut out = std::io::stdout().lock();
    for key in keys {
        match registry.iter().find(|(k, _)| *k == key) {
            Some((_, run)) => match writeln!(out, "{}", run().render()) {
                Ok(()) => {}
                // The reader has seen enough.
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
                Err(e) => fail(&format!("failed to write to stdout: {e}")),
            },
            None => {
                let hint = experiments::suggest(key)
                    .map(|s| format!(" (did you mean '{s}'?)"))
                    .unwrap_or_default();
                eprintln!(
                    "unknown experiment '{key}'{hint}; available: {}",
                    registry
                        .iter()
                        .map(|(k, _)| *k)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(1);
            }
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
