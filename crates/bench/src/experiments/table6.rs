//! **Table 6** — FPGA hardware resource costs. We cannot synthesize RTL,
//! so the report shows the published Vivado numbers next to this
//! reproduction's first-order structural estimate (see
//! `xpc_engine::hwcost`).

use super::Report;
use xpc_engine::hwcost::{estimated_engine_cost, published_table6};

/// Regenerate Table 6.
pub(crate) fn run() -> Report {
    let mut rows: Vec<Vec<String>> = published_table6()
        .into_iter()
        .map(|r| {
            vec![
                r.resource.to_string(),
                r.freedom.to_string(),
                r.xpc.to_string(),
                format!("{:.2}%", r.cost_percent()),
            ]
        })
        .collect();
    let e = estimated_engine_cost();
    rows.push(vec![
        "(modelled engine delta)".into(),
        "-".into(),
        format!("+{} LUT, +{} FF, +{} DSP", e.lut, e.ff, e.dsp),
        "structural estimate".into(),
    ]);
    Report {
        id: "Table 6",
        caption:
            "Hardware resource costs in FPGA (published Vivado report + our structural estimate)",
        headers: vec![
            "Resource".into(),
            "Freedom".into(),
            "XPC".into(),
            "Cost".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn lut_cost_row_shows_1_99() {
        let r = super::run();
        assert!(r.render().contains("1.99%"));
    }
}
