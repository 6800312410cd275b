//! One benchmark run: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.

use crate::harness::{self, Samples, Spec, Tally};
use crate::json::Value;
use crate::metrics::{self, Metrics, END_TO_END, PER_LAYER};
use crate::trace::{self, Tracer};
use crate::{probes, stats};
use std::path::PathBuf;

/// Share of `--seconds` a traced run spends on each of its two chunk
/// windows (tracing off, then on); the probes take the rest.
const TRACED_WINDOW_SHARE: f64 = 0.3;

/// Per-layer metrics that must read zero; anything else fails the run.
const MUST_BE_ZERO: [&str; 3] = [
    "xpc-engine.exceptions",
    "xpc.errors",
    "simos.arena_growth_after_warmup",
];

/// What `main` was asked to run.
pub struct Request {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// A finished run.
pub struct Outcome {
    pub tally: Tally,
    /// The run's metrics as JSON, or the metrics that had no finite value.
    pub metrics: Result<Value, Vec<String>>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0 && self.metrics.is_ok()
    }

    /// The result line the driver reads.
    pub fn result_line(&self) -> Value {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.tally.attempted.max(1))),
            ("failed".into(), Value::Int(self.tally.failed)),
            (
                "metrics".into(),
                self.metrics.clone().unwrap_or(Value::Obj(Vec::new())),
            ),
        ])
    }
}

pub fn run(req: &Request) -> Outcome {
    println!(
        "workload {} seed {}{} seconds {} op = one {}",
        req.spec.name,
        req.seed,
        if req.spec.seeded {
            ""
        } else {
            " (ignored: the registry pins its own seeds)"
        },
        req.seconds,
        req.spec.op,
    );
    println!("  why: {}", req.spec.why);
    if req.traced {
        traced(req)
    } else {
        untraced(req)
    }
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<40} {value:>18.6} {unit:<12} {note}");
}

fn print_chunks(samples: &Samples) {
    let ms = samples.chunk_ms_sorted();
    let tail = stats::tail_percentile(ms.len());
    println!(
        "  chunks {}  chunk_ms p50 {:.3}  p{tail} {:.3}",
        ms.len(),
        stats::median(&ms),
        stats::percentile(&ms, tail),
    );
}

fn print_failed(tally: Tally) {
    println!(
        "  {:<40} {:>18.6} {:<12} {} of {} operations failed a check",
        "failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.failed,
        tally.attempted,
    );
}

/// Tracing off: set-up repeated, then the timed chunk window.
fn untraced(req: &Request) -> Outcome {
    let mut t = Tracer::new(false);
    let (set_up, setup_seconds, mut tally) = harness::repeated_set_up(req.spec, req.seed, &mut t);
    let mut workload = set_up.workload;
    let samples = harness::measure(
        workload.as_mut(),
        req.spec.warmup_chunks,
        req.seconds,
        &mut t,
    );
    tally.merge(samples.tally);

    let mut m = Metrics::default();
    m.set("setup_s", stats::median_of(&setup_seconds));
    m.set("ops_per_s", samples.ops_per_s(workload.kinds()));
    m.set("peak_rss_mib", harness::peak_rss_mib().unwrap_or(f64::NAN));

    let notes = [
        format!(
            "{} per host second; {} chunks of {} kinds",
            req.spec.op,
            samples.chunks.len(),
            workload.kinds()
        ),
        "VmHWM of this process".to_string(),
        format!(
            "median of {} set-ups (build + {} warm-up chunks)",
            setup_seconds.len(),
            req.spec.warmup_chunks
        ),
    ];
    for (e, note) in END_TO_END.iter().zip(notes) {
        print_metric(e.name, m.get(e.name).unwrap_or(f64::NAN), e.unit, &note);
    }
    print_failed(tally);
    print_chunks(&samples);
    Outcome {
        tally,
        metrics: metrics::to_json(&m, END_TO_END.iter().map(|e| (e.name, e.unit))),
    }
}

/// Where the traced run of `workload` writes its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    [
        env!("CARGO_MANIFEST_DIR"),
        "out",
        &format!("trace-{workload}.json"),
    ]
    .iter()
    .collect()
}

/// One set-up, the same chunks with tracing off and then on, then every
/// layer's probes. End-to-end numbers never come from this run.
fn traced(req: &Request) -> Outcome {
    let mut t = Tracer::new(true);
    let set_up = harness::set_up(req.spec, req.seed, &mut t);
    let mut tally = set_up.tally;
    let mut workload = set_up.workload;
    let window = req.seconds * TRACED_WINDOW_SHARE;
    let first = req.spec.warmup_chunks;
    let plain = harness::measure(workload.as_mut(), first, window, &mut Tracer::new(false));
    let spanned = harness::measure(workload.as_mut(), first, window, &mut t);
    tally.merge(plain.tally);
    tally.merge(spanned.tally);
    let kinds = workload.kinds();
    drop(workload);

    let mut m = Metrics::default();
    probes::run_all(req.seed, &mut m);
    let ms = spanned.chunk_ms_sorted();
    m.set("harness.chunks", ms.len() as f64);
    m.set("harness.chunk_ms_p50", stats::median(&ms));
    m.set(
        "harness.chunk_ms_p95",
        stats::percentile(&ms, stats::tail_percentile(ms.len())),
    );
    m.set("harness.timer_ns", harness::timer_ns());
    let (off, on) = (plain.ops_per_s(kinds), spanned.ops_per_s(kinds));
    m.set("harness.trace_overhead_pct", (off - on) / off * 100.0);
    for name in MUST_BE_ZERO {
        if m.get(name) != Some(0.0) {
            eprintln!("{name} must be 0, is {:?}", m.get(name));
            tally.failed += 1;
        }
    }

    for p in &PER_LAYER {
        let note = format!(
            "{} is better{}",
            p.better.key(),
            if p.sim {
                "; simulated, repeats exactly"
            } else {
                ""
            }
        );
        print_metric(p.name, m.get(p.name).unwrap_or(f64::NAN), p.unit, &note);
    }
    print_failed(tally);
    print_chunks(&spanned);
    println!(
        "  ops_per_s tracing off {off:.1}, on {on:.1} (end-to-end numbers come from untraced runs)"
    );
    println!(
        "  {:<40} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for ((layer, call), n) in trace::totals_by_name(t.spans()) {
        println!(
            "  {:<40} {:>8} {:>14.3} {:>14.3}",
            format!("{layer}.{call}"),
            n.count,
            n.total_ns as f64 / 1e6,
            n.self_ns as f64 / 1e6,
        );
    }
    let path = trace_path(req.spec.name);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(t.spans()).render()));
    match written {
        Ok(()) => println!("  {} spans written to {}", t.spans().len(), path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            tally.failed += 1;
        }
    }
    Outcome {
        tally,
        metrics: metrics::to_json(&m, PER_LAYER.iter().map(|p| (p.name, p.unit))),
    }
}
