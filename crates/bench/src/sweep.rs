//! Registry-driven sweep harness: run any roster of [`IpcSystem`]s over a
//! size axis and write the resulting [`Invocation`]s as JSON values, the
//! views the tables render from and the `BENCH_figures.json` sections.

use crate::json::{self, Value};
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
pub(crate) fn sweep_row(s: &mut dyn IpcSystem, sizes: &[usize], opts: &InvokeOpts) -> SweepRow {
    SweepRow {
        system: s.name(),
        points: sizes
            .iter()
            .map(|&b| (b, Invocation::priced(|l| s.oneway_into(b, opts, l))))
            .collect(),
    }
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

/// One invocation as a JSON object: size, total, copied bytes and the
/// per-phase cycles in first-charge order.
pub(crate) fn invocation_json(msg_len: usize, inv: &Invocation) -> Value {
    let phases = inv.ledger.spans().iter().map(|&(p, c)| (p.key(), c.into()));
    Value::Object(vec![
        ("msg_len", msg_len.into()),
        ("total", inv.total().into()),
        ("copied_bytes", inv.copied_bytes.into()),
        ("phases", Value::Object(phases.collect())),
    ])
}

/// The `"systems"` section of `BENCH_figures.json`: per-system,
/// per-size, per-phase cycle attributions.
pub(crate) fn systems_json(rows: &[SweepRow]) -> Value {
    Value::Array(
        rows.iter()
            .map(|r| {
                let points = r.points.iter().map(|(b, inv)| invocation_json(*b, inv));
                Value::Object(vec![
                    ("name", r.system.as_str().into()),
                    ("points", Value::Array(points.collect())),
                ])
            })
            .collect(),
    )
}

/// Labelled `(name, msg_len, invocation)`s (e.g. the Figure 5 ablation
/// ladder) as `{"name", "invocation"}` objects.
pub(crate) fn ledgers_json<'a>(
    cols: impl IntoIterator<Item = (&'a str, usize, &'a Invocation)>,
) -> Value {
    let col = |(name, msg_len, inv): (&str, usize, &Invocation)| {
        Value::Object(vec![
            ("name", Value::from(name)),
            ("invocation", invocation_json(msg_len, inv)),
        ])
    };
    Value::Array(cols.into_iter().map(col).collect())
}

/// The top-level frame of `BENCH_figures.json`: one `"key": section`
/// entry per line, each section already rendered at indent 2.
pub(crate) fn frame<'a>(sections: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{\n");
    for (i, (key, section)) in sections.into_iter().enumerate() {
        out.push_str(if i == 0 { "  " } else { ",\n  " });
        json::write_str(&mut out, key);
        out.push_str(": ");
        out.push_str(&section);
    }
    out.push_str("\n}\n");
    out
}

/// Serialize sweep rows plus extra labelled invocations (e.g. the Figure 5
/// ablation ladder) as the `BENCH_figures.json` document: per-system,
/// per-size, per-phase cycle attributions. `raw` appends pre-rendered
/// JSON values as further top-level sections (e.g. an experiment's
/// `json_section()`).
pub fn json_dump(
    rows: &[SweepRow],
    extra: &[(&str, Vec<(String, Invocation)>)],
    raw: &[(&str, String)],
) -> String {
    let mut sections = vec![("systems", systems_json(rows).render(2))];
    sections.extend(extra.iter().map(|(key, cols)| {
        let cols = cols.iter().map(|(name, inv)| (name.as_str(), 0, inv));
        (*key, ledgers_json(cols).render(2))
    }));
    sections.extend(raw.iter().map(|(key, section)| (*key, section.clone())));
    frame(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{Sel4, Sel4Transfer};

    #[test]
    fn roster_sweep_covers_every_system_and_size() {
        let rows = roster_sweep();
        assert_eq!(rows.len(), kernels::full_roster().len());
        for r in &rows {
            assert_eq!(r.points.len(), SIZES.len(), "{}", r.system);
        }
    }

    #[test]
    fn ledger_table_prints_sum_matching_totals() {
        // A ledger table is its columns' ledgers as JSON, printed through
        // a Layout; its Sum row must read the ledger totals.
        let row = sweep_row(
            &mut Sel4::new(Sel4Transfer::OneCopy),
            &[0, 4096],
            &InvokeOpts::call(),
        );
        let cols = [("0B", &row.points[0].1), ("4KB", &row.points[1].1)];
        let view = ledgers_json(cols.iter().map(|&(name, inv)| (name, 0, inv)));
        let t = crate::experiments::Layout::new("T", "test", &["Phases (cycles)", "0B", "4KB"])
            .one("", &["Sum", "{0/invocation/total}", "{1/invocation/total}"])
            .render(&view);
        let sum = t.rows.last().unwrap();
        assert_eq!(sum[1], cols[0].1.total().to_string());
        assert_eq!(sum[2], cols[1].1.total().to_string());
    }

    #[test]
    fn json_dump_is_parseable_shape() {
        // The frame `benchmark/` builds its document through: the sweep,
        // the labelled ledgers, then pre-rendered sections verbatim.
        let rows = [sweep_row(
            &mut Sel4::new(Sel4Transfer::OneCopy),
            &[0, 64],
            &InvokeOpts::call(),
        )];
        let extra = [(
            "fig5",
            vec![("bar".to_string(), rows[0].points[0].1.clone())],
        )];
        let raw = [("scale", "[{\"x\": 1}]".to_string())];
        let j = json_dump(&rows, &extra, &raw);
        let system = "{\n  \"systems\": [\n    {\"name\": \"seL4-onecopy\", \"points\": [\n      \
                      {\"msg_len\": 0, \"total\": ";
        assert!(j.starts_with(system), "{j}");
        assert!(j.contains("\"phases\": {\"trap\": "), "{j}");
        assert!(j.contains(",\n  \"fig5\": [\n    {\"name\": \"bar\", \"invocation\": {"));
        assert!(
            j.ends_with("}}\n  ],\n  \"scale\": [{\"x\": 1}]\n}\n"),
            "{j}"
        );
    }
}
