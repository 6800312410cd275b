//! **Table 7** — systems with IPC optimizations, made *executable*: the
//! qualitative columns come from the mechanism implementations and the
//! quantitative column is each design's measured one-way cost at 4 KiB.

use super::Report;
use kernels::table7;

fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Regenerate Table 7.
pub(crate) fn run() -> Report {
    let rows = table7()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                mark(!r.traps).to_string(),
                mark(!r.schedules).to_string(),
                mark(r.tocttou_safe).to_string(),
                mark(r.handover).to_string(),
                r.copies.to_string(),
                r.cycles_4k.to_string(),
            ]
        })
        .collect();
    Report {
        id: "Table 7",
        caption: "IPC designs compared, executable (copies column: N = chain hops)",
        headers: vec![
            "System".into(),
            "w/o trap".into(),
            "w/o sched".into(),
            "w/o TOCTTOU".into(),
            "Handover".into(),
            "Copies".into(),
            "4KB one-way (cycles)".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn xpc_row_is_all_yes() {
        let r = super::run();
        let xpc = r
            .rows
            .iter()
            .find(|row| row[0] == "seL4-XPC")
            .expect("xpc row");
        assert_eq!(&xpc[1..5], &["yes", "yes", "yes", "yes"]);
    }
}
