//! Registry-driven sweep harness: run any roster of [`IpcSystem`]s over a
//! size axis and render the resulting [`Invocation`]s — as cycle tables,
//! as phase-attributed ledger tables, or as a JSON dump for plotting.
//!
//! Every per-figure module used to hand-roll its own loop over systems
//! and sizes; they now all call [`sweep`] and format the shared
//! [`SweepRow`]s, so a figure is just "which systems, which sizes, which
//! view of the ledger".

use crate::experiments::Report;
use kernels::{Invocation, InvokeOpts, IpcSystem};

/// The default message-size axis (bytes) for sweep-driven figures.
pub const SIZES: [usize; 5] = [0, 64, 1024, 4096, 16384];

/// One system's sweep: the invocation (with full ledger) per size.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The system's display name.
    pub system: String,
    /// `(msg_len, invocation)` per point of the size axis.
    pub points: Vec<(usize, Invocation)>,
}

/// One system priced over a size axis: an owned one-way [`Invocation`]
/// per size.
fn sweep_row(s: &mut dyn IpcSystem, sizes: &[usize], opts: &InvokeOpts) -> SweepRow {
    SweepRow {
        system: s.name(),
        points: sizes
            .iter()
            .map(|&b| (b, Invocation::priced(|l| s.oneway_into(b, opts, l))))
            .collect(),
    }
}

/// Drive every system over every size with the same [`InvokeOpts`].
pub fn sweep(
    mut systems: Vec<Box<dyn IpcSystem>>,
    sizes: &[usize],
    opts: &InvokeOpts,
) -> Vec<SweepRow> {
    systems
        .iter_mut()
        .map(|s| sweep_row(s.as_mut(), sizes, opts))
        .collect()
}

/// The full 12-system roster over the default axis — the observability
/// dump behind `figures --json`. One pool cell per system: the worker
/// builds its system from the roster *factory* (a `Send + Sync` fn
/// pointer), so fanning out needs no `Send` bound on the systems
/// themselves, and index-ordered reduction keeps roster order.
pub fn roster_sweep() -> Vec<SweepRow> {
    simos::par::map_cells(kernels::full_roster_factories(), |_, mk, _| {
        sweep_row(mk().as_mut(), &SIZES, &InvokeOpts::call())
    })
}

/// Render sweep rows as a size-by-system cycle table (the Figure 6 shape:
/// one row per size, one column per system, cells are total cycles).
pub fn cycles_table(id: &'static str, caption: &'static str, rows: &[SweepRow]) -> Report {
    let mut headers = vec!["Message size".to_string()];
    headers.extend(rows.iter().map(|r| r.system.clone()));
    let n = rows.first().map_or(0, |r| r.points.len());
    let table = (0..n)
        .map(|i| {
            let mut row = vec![format!("{}B", rows[0].points[i].0)];
            row.extend(rows.iter().map(|r| r.points[i].1.total.to_string()));
            row
        })
        .collect();
    Report {
        id,
        caption,
        headers,
        rows: table,
    }
}

/// Render labelled invocations as a phase-by-column ledger table (the
/// Table 1 shape: one row per phase in first-charge order, one column per
/// invocation, plus a Sum row). Columns may attribute different phase
/// sets; absent phases print as "-".
pub fn ledger_table(
    id: &'static str,
    caption: &'static str,
    cols: &[(String, Invocation)],
) -> Report {
    // Phase order: first-charge order across columns, left to right.
    let mut phases = Vec::new();
    for (_, inv) in cols {
        for &(p, _) in inv.ledger.spans() {
            if !phases.contains(&p) {
                phases.push(p);
            }
        }
    }
    let mut headers = vec!["Phases (cycles)".to_string()];
    headers.extend(cols.iter().map(|(n, _)| n.clone()));
    let mut rows: Vec<Vec<String>> = phases
        .iter()
        .map(|&p| {
            let mut row = vec![p.label().to_string()];
            row.extend(cols.iter().map(|(_, inv)| {
                if inv.ledger.spans().iter().any(|&(q, _)| q == p) {
                    inv.ledger.get(p).to_string()
                } else {
                    "-".into()
                }
            }));
            row
        })
        .collect();
    let mut sum = vec!["Sum".to_string()];
    sum.extend(cols.iter().map(|(_, inv)| inv.total.to_string()));
    rows.push(sum);
    Report {
        id,
        caption,
        headers,
        rows,
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn json_invocation(msg_len: usize, inv: &Invocation) -> String {
    let phases = inv
        .ledger
        .spans()
        .iter()
        .map(|(p, c)| format!("\"{}\": {c}", p.key()))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"msg_len\": {msg_len}, \"total\": {}, \"copied_bytes\": {}, \"phases\": {{{phases}}}}}",
        inv.total, inv.copied_bytes
    )
}

/// Serialize sweep rows plus extra labelled invocations (e.g. the Figure 5
/// ablation ladder) as the `BENCH_figures.json` document: per-system,
/// per-size, per-phase cycle attributions. `raw` appends pre-rendered
/// JSON values as further top-level sections (e.g. the scale-out grid,
/// whose rows are load reports rather than invocations).
pub fn json_dump(
    rows: &[SweepRow],
    extra: &[(&str, Vec<(String, Invocation)>)],
    raw: &[(&str, String)],
) -> String {
    let mut out = String::from("{\n  \"systems\": [\n");
    let systems = rows
        .iter()
        .map(|r| {
            let points = r
                .points
                .iter()
                .map(|(b, inv)| format!("      {}", json_invocation(*b, inv)))
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "    {{\"name\": \"{}\", \"points\": [\n{points}\n    ]}}",
                json_escape(&r.system)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    out.push_str(&systems);
    out.push_str("\n  ]");
    for (key, cols) in extra {
        out.push_str(&format!(",\n  \"{}\": [\n", json_escape(key)));
        let items = cols
            .iter()
            .map(|(name, inv)| {
                format!(
                    "    {{\"name\": \"{}\", \"invocation\": {}}}",
                    json_escape(name),
                    json_invocation(0, inv)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        out.push_str(&items);
        out.push_str("\n  ]");
    }
    for (key, value) in raw {
        out.push_str(&format!(",\n  \"{}\": {value}", json_escape(key)));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{Phase, Sel4, Sel4Transfer};

    #[test]
    fn roster_sweep_covers_every_system_and_size() {
        let rows = roster_sweep();
        assert_eq!(rows.len(), kernels::full_roster().len());
        for r in &rows {
            assert_eq!(r.points.len(), SIZES.len(), "{}", r.system);
            for (b, inv) in &r.points {
                assert_eq!(inv.total, inv.ledger.total(), "{} at {b}B", r.system);
            }
        }
    }

    #[test]
    fn cycles_table_has_one_row_per_size() {
        let rows = roster_sweep();
        let t = cycles_table("T", "test", &rows);
        assert_eq!(t.rows.len(), SIZES.len());
        assert_eq!(t.headers.len(), rows.len() + 1);
    }

    #[test]
    fn ledger_table_prints_sum_matching_totals() {
        let row = sweep_row(
            &mut Sel4::new(Sel4Transfer::OneCopy),
            &[0, 4096],
            &InvokeOpts::call(),
        );
        let cols = vec![
            ("0B".to_string(), row.points[0].1.clone()),
            ("4KB".to_string(), row.points[1].1.clone()),
        ];
        let t = ledger_table("T", "test", &cols);
        let sum = t.rows.last().unwrap();
        assert_eq!(sum[1], cols[0].1.total.to_string());
        assert_eq!(sum[2], cols[1].1.total.to_string());
    }

    #[test]
    fn json_dump_is_parseable_shape() {
        let rows = sweep(
            vec![Box::new(Sel4::new(Sel4Transfer::OneCopy))],
            &[0, 64],
            &InvokeOpts::call(),
        );
        let extra = vec![(
            "fig5",
            vec![("bar".to_string(), rows[0].points[0].1.clone())],
        )];
        let raw = vec![("scale", "[{\"x\": 1}]".to_string())];
        let j = json_dump(&rows, &extra, &raw);
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert!(j.contains("\"seL4-onecopy\""), "{j}");
        assert!(j.contains(&format!("\"{}\"", Phase::Trap.key())));
        assert!(j.contains("\"fig5\""));
        assert!(j.contains("\"scale\": [{\"x\": 1}]"));
        // Balanced braces/brackets — a cheap well-formedness proxy.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
