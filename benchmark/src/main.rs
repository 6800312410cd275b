//! The repository's benchmark: five workloads, host-speed end-to-end
//! metrics, per-layer probes and a traced run. See `README.md` beside
//! this package for the tables.
//!
//! ```text
//! xpc-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <file>]
//! xpc-benchmark compare <base.jsonl> <new.jsonl>
//! xpc-benchmark noise [--runs <k>] [--seconds <n>] [--seed <u64>] [--out <file>]
//! ```
//!
//! A run prints every metric by name with its unit, then one JSON object
//! as the last line of standard output, and exits non-zero when an
//! output check failed.

#![forbid(unsafe_code)]

mod compare;
mod harness;
mod json;
mod metrics;
mod probes;
mod reference;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  xpc-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <file>]
  xpc-benchmark compare <base.jsonl> <new.jsonl>
  xpc-benchmark noise [--runs <k>] [--seconds <n>] [--seed <u64>] [--out <file>]";

/// Measured seconds of a run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 10;

/// `--flag value` pairs of a command line.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument '{flag}'"));
            }
            let value = it.next().ok_or(format!("{flag} wants a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} wants a whole number, got '{v}'")),
        }
    }
}

fn run_workload(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
    )?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let names = || {
        workloads::ALL
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let spec = workloads::find(name)
        .ok_or_else(|| format!("unknown workload '{name}'; one of: {}", names()))?;
    let seconds = flags.number("--seconds", DEFAULT_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds wants 1 to 60, got {seconds}"));
    }
    let traced = match flags.number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace wants 0 or 1, got {other}")),
    };
    let request = run::Request {
        spec,
        seed: flags.number("--seed", 0)?,
        seconds: seconds as f64,
        traced,
    };
    let outcome = run::run(&request);
    if let Err(bad) = &outcome.metrics {
        eprintln!("metrics without a finite value: {}", bad.join(", "));
    }
    let result = outcome.result_line();
    if let Some(path) = flags.get("--out") {
        let line = compare::record_line(spec.name, request.seed, traced, &result).render();
        compare::append_line(path, &line)?;
    }
    println!("{}", result.render());
    Ok(outcome.correct())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, new] => compare::compare(base, new),
            _ => Err("compare wants two result sets".into()),
        },
        Some("noise") => {
            let flags = Flags::parse(&args[1..], &["--runs", "--seconds", "--seed", "--out"])?;
            compare::noise(
                flags.number("--runs", 3)?.max(2),
                flags.number("--seconds", DEFAULT_SECONDS)?.clamp(1, 60),
                flags.number("--seed", 1)?,
                flags.get("--out"),
            )
        }
        Some(_) => run_workload(args),
        None => Err("no arguments".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("xpc-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
