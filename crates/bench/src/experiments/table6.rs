//! **Table 6** — FPGA hardware resource costs. We cannot synthesize RTL,
//! so the report shows the published Vivado numbers next to this
//! reproduction's first-order structural estimate (see
//! `xpc_engine::hwcost`).

use super::{plain, Column, Experiment, Report};
use crate::json::Value;
use xpc_engine::hwcost::{estimated_engine_cost, published_table6, EngineEstimate, ResourceRow};

/// Table 6's columns over the published resource rows.
#[rustfmt::skip]
const COLUMNS: [Column<ResourceRow>; 4] = [
    ("Resource", "resource", |r| plain(r.resource)),
    ("Freedom", "freedom", |r| plain(r.freedom)),
    ("XPC", "xpc", |r| plain(r.xpc)),
    ("Cost", "cost_fraction", |r| {
        let percent = r.cost_percent();
        (format!("{percent:.2}%"), Value::Fixed(percent / 100.0, 6))
    }),
];

/// Table 6: the published resource rows and the modelled engine delta.
pub struct Table6;

impl Experiment for Table6 {
    type Grid = (Vec<ResourceRow>, EngineEstimate);

    fn compute() -> Self::Grid {
        (published_table6(), estimated_engine_cost())
    }

    fn table((published, e): &Self::Grid) -> Report {
        let caption =
            "Hardware resource costs in FPGA (published Vivado report + our structural estimate)";
        let mut r = super::cell_table("Table 6", caption, &COLUMNS, published);
        r.rows.push(vec![
            "(modelled engine delta)".into(),
            "-".into(),
            format!("+{} LUT, +{} FF, +{} DSP", e.lut, e.ff, e.dsp),
            "structural estimate".into(),
        ]);
        r
    }

    fn json((published, e): &Self::Grid) -> Value {
        let estimate = [("lut", e.lut), ("ff", e.ff), ("dsp", e.dsp)].map(|(k, n)| (k, n.into()));
        Value::Object(vec![
            ("published", super::cell_json(&COLUMNS, published)),
            ("estimate", Value::Object(estimate.to_vec())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_cost_row_shows_1_99() {
        let r = Table6::table(&Table6::compute());
        assert!(r.render().contains("1.99%"));
    }
}
