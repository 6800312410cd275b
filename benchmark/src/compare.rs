//! `compare` and `noise`: reading stored result sets back.
//!
//! A result set is a file of JSON lines, one per run, as `--out` and
//! `noise --out` append them: the run's result line plus `workload`,
//! `seed` and `trace`.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::{stats, workloads};
use std::collections::BTreeMap;
use std::process::Command;

/// One stored run.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub metrics: BTreeMap<String, f64>,
}

/// The line `--out` appends for a run.
pub fn record_line(workload: &str, seed: u64, traced: bool, result: &Value) -> Value {
    let mut members = vec![
        ("workload".to_string(), Value::Str(workload.into())),
        ("seed".to_string(), Value::Int(seed)),
        ("trace".to_string(), Value::Int(u64::from(traced))),
    ];
    if let Value::Obj(rest) = result {
        members.extend(rest.iter().cloned());
    }
    Value::Obj(members)
}

/// Append `line` to the result set at `path`, creating it if need be.
pub fn append_line(path: &str, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{path}: {e}"))
}

fn parse_record(line: &str) -> Result<Record, String> {
    let v = json::parse(line)?;
    let field = |k: &str| v.get(k).ok_or(format!("record without '{k}'"));
    let metrics = match field("metrics")? {
        Value::Obj(members) => members
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("'metrics' is not an object".into()),
    };
    Ok(Record {
        workload: field("workload")?
            .as_str()
            .ok_or("'workload' is not a string")?
            .to_string(),
        seed: field("seed")?.as_f64().ok_or("'seed' is not a number")? as u64,
        traced: field("trace")?.as_f64() == Some(1.0),
        metrics,
    })
}

/// Read a result set.
///
/// # Errors
///
/// The file cannot be read, or a line is not a stored run.
pub fn read_set(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse_record(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// How a metric moved between a base set of runs and a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the base runs' own spread.
    Better,
    Unchanged,
    /// The median worsened by more than the bound.
    Regressed,
    /// The runs' spread is wider than the bound and the two sets overlap:
    /// the data cannot say.
    Unresolved,
}

impl Verdict {
    pub fn key(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range over the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        stats::spread(values)
    }
}

/// Judge `new` against `base` for a metric that improves in direction
/// `better` and may worsen by `bound` of the base median.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mn) = (stats::median_of(base), stats::median_of(new));
    let worse_by = match better {
        Better::Lower => (mn - mb) / mb,
        Better::Higher => (mb - mn) / mb,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all = |f: &dyn Fn(f64, f64) -> bool| new.iter().all(|&n| base.iter().all(|&b| f(n, b)));
    let separated = all(&|n, b| beats(n, b)) || all(&|n, b| beats(b, n));
    if spread(base).max(spread(new)) > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > spread(base) && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn values(set: &[Record], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn summary(v: &[f64]) -> String {
    let med = stats::median_of(v);
    if v.len() < 2 {
        format!("{med:.6} (n={})", v.len())
    } else {
        let [q1, _, q3] = stats::quartiles(v);
        format!("{med:.6} [{q1:.6}, {q3:.6}] (n={})", v.len())
    }
}

/// Print one row per (workload, end-to-end metric) and check that every
/// simulated per-layer metric is bit-identical between runs of one seed.
/// Returns whether nothing regressed and nothing simulated moved.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (read_set(base_path)?, read_set(new_path)?);
    let mut clean = true;
    println!("base = {base_path}, new = {new_path}; ratio = new median / base median");
    for w in &workloads::ALL {
        for e in &END_TO_END {
            let (b, n) = (
                values(&base, w.name, false, e.name),
                values(&new, w.name, false, e.name),
            );
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let v = verdict(&b, &n, e.better, e.bound);
            clean &= v != Verdict::Regressed;
            let ratio = stats::median_of(&n) / stats::median_of(&b);
            println!(
                "{:<13} {:<13} {:<7} base {}  new {}  ratio {ratio:.4}  bound {:.2}  {}",
                w.name,
                e.name,
                e.better.key(),
                summary(&b),
                summary(&n),
                e.bound,
                v.key(),
            );
        }
    }
    let mut compared = 0;
    for b in base.iter().filter(|r| r.traced) {
        for n in new
            .iter()
            .filter(|r| r.traced && r.workload == b.workload && r.seed == b.seed)
        {
            for p in PER_LAYER.iter().filter(|p| p.sim) {
                let (x, y) = (b.metrics.get(p.name), n.metrics.get(p.name));
                compared += 1;
                if x.map(|v| v.to_bits()) != y.map(|v| v.to_bits()) {
                    clean = false;
                    println!(
                        "sim metric {} moved on {} seed {}: {x:?} -> {y:?}",
                        p.name, b.workload, b.seed
                    );
                }
            }
        }
    }
    println!("{compared} simulated per-layer values compared between runs of one seed");
    Ok(clean)
}

/// Run every workload `runs` times (seeds `seed`, `seed + 1`, ...), one
/// child process per run, and print each end-to-end metric's observed
/// spread beside its bound. Appends the runs to `out` when given.
pub fn noise(runs: u64, seconds: u64, seed: u64, out: Option<&str>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    for w in &workloads::ALL {
        for s in seed..seed + runs {
            let args = [
                "--workload",
                w.name,
                "--seed",
                &s.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                "0",
            ];
            let child = Command::new(&exe)
                .args(args)
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !child.status.success() {
                return Err(format!("{} seed {s} failed: {last}", w.name));
            }
            let line = record_line(w.name, s, false, &json::parse(last)?).render();
            println!("{line}");
            records.push(parse_record(&line)?);
            if let Some(path) = out {
                append_line(path, &line)?;
            }
        }
    }
    let mut steady = true;
    for w in &workloads::ALL {
        for e in &END_TO_END {
            let v = values(&records, w.name, false, e.name);
            let s = spread(&v);
            let ok = s <= e.bound / 3.0 || e.name == "setup_s";
            steady &= ok;
            println!(
                "{:<13} {:<13} {}  spread {:.4}  bound {:.2}  {}",
                w.name,
                e.name,
                summary(&v),
                s,
                e.bound,
                if ok {
                    "steady"
                } else {
                    "spread above a third of the bound"
                },
            );
        }
    }
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let base = [100.0, 101.0, 99.0, 100.5];
        // Lower is better, bound 5 %.
        assert_eq!(
            verdict(&base, &[100.2, 99.8, 100.9], Better::Lower, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &[108.0, 107.0, 109.0], Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.5], Better::Lower, 0.05),
            Verdict::Better
        );
        // The same numbers read the other way for a rate.
        assert_eq!(
            verdict(&base, &[108.0, 107.0, 109.0], Better::Higher, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.5], Better::Higher, 0.05),
            Verdict::Regressed
        );
        // Spread wider than the bound and overlapping runs: cannot say.
        let wide = [80.0, 100.0, 120.0, 95.0];
        assert_eq!(
            verdict(&wide, &[90.0, 110.0, 130.0], Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // Wide but every new run beats every base run: resolved.
        assert_eq!(
            verdict(&wide, &[60.0, 70.0, 50.0], Better::Lower, 0.05),
            Verdict::Better
        );
        // A single run on each side still compares.
        assert_eq!(
            verdict(&[10.0], &[10.2], Better::Lower, 0.05),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_stored_run_reads_back() {
        let result = json::parse(
            r#"{"correct": true, "attempted": 5, "failed": 0,
                "metrics": {"ops_per_s": {"value": 12.5, "unit": "1/s"}}}"#,
        )
        .expect("JSON");
        let line = record_line("guest_alu", 9, true, &result).render();
        let r = parse_record(&line).expect("record");
        assert_eq!(
            (r.workload.as_str(), r.seed, r.traced),
            ("guest_alu", 9, true)
        );
        assert_eq!(r.metrics["ops_per_s"], 12.5);
        assert!(parse_record("{}").is_err());
    }
}
