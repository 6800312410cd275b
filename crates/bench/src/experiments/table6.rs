//! **Table 6** — FPGA hardware resource costs. We cannot synthesize RTL,
//! so the report shows the published Vivado numbers next to this
//! reproduction's first-order structural estimate (see
//! `xpc_engine::hwcost`).

use super::{Column, Experiment, Layout};
use crate::json::Value;
use xpc_engine::hwcost::{estimated_engine_cost, published_table6, EngineEstimate, ResourceRow};

/// Table 6's columns over the published resource rows.
#[rustfmt::skip]
const COLUMNS: [Column<ResourceRow>; 4] = [
    ("Resource", "resource", |r| r.resource.into(), "{resource}"),
    ("Freedom", "freedom", |r| r.freedom.into(), "{freedom}"),
    ("XPC", "xpc", |r| r.xpc.into(), "{xpc}"),
    ("Cost", "cost_fraction", |r| Value::Fixed(r.cost_percent() / 100.0, 6), "{cost_fraction:%2}%"),
];

/// Table 6: the published resource rows and the modelled engine delta.
pub struct Table6;

impl Experiment for Table6 {
    type Grid = (Vec<ResourceRow>, EngineEstimate);

    fn compute() -> Self::Grid {
        (published_table6(), estimated_engine_cost())
    }

    fn json((published, e): &Self::Grid) -> Value {
        let estimate = [("lut", e.lut), ("ff", e.ff), ("dsp", e.dsp)].map(|(k, n)| (k, n.into()));
        Value::Object(vec![
            ("published", super::cell_json(&COLUMNS, published)),
            ("estimate", Value::Object(estimate.to_vec())),
        ])
    }

    fn layout() -> Layout {
        let caption =
            "Hardware resource costs in FPGA (published Vivado report + our structural estimate)";
        let delta = "+{lut} LUT, +{ff} FF, +{dsp} DSP";
        Layout::columns("Table 6", caption, "published", &COLUMNS).one(
            "estimate",
            &["(modelled engine delta)", "-", delta, "structural estimate"],
        )
    }
}

#[cfg(test)]
mod tests {
    crate::experiments::claims_tests!(table6: lut_cost_row_shows_1_99);
}
