//! **Table 4** — the GEM5 ARM HPI simulator configuration, as realized by
//! this reproduction's machine model.

use super::{Experiment, Layout};
use crate::json::Value;
use rv64::{CacheConfig, MachineConfig};

/// Table 4: (parameter, the numbers of this model's setting, the paper's)
/// per row.
pub struct Table4;

impl Experiment for Table4 {
    type Grid = Vec<(&'static str, Vec<Value>, Vec<Value>)>;

    #[rustfmt::skip]
    fn compute() -> Self::Grid {
        let c = MachineConfig::arm_hpi();
        let n = |numbers: &[u64]| numbers.iter().map(|&n| Value::from(n)).collect();
        let cache = |c: &CacheConfig| {
            n(&[c.capacity() as u64 / 1024, c.line_bytes as u64, c.ways as u64])
        };
        vec![
            ("Core model", n(&[1]), vec![8u64.into(), Value::Fixed(2.0, 1)]),
            ("I/D TLB", n(&[c.tlb_entries as u64]), n(&[256])),
            ("L1 I-cache", cache(&c.icache), n(&[32, 64, 2])),
            ("L1 D-cache", cache(&c.dcache), n(&[32, 64, 4])),
            ("L1 hit latency", n(&[c.dcache.hit_extra]), n(&[3])),
            ("Miss/L2 latency", n(&[c.dcache.miss_penalty]), n(&[13])),
            ("TTBR write barrier", n(&[c.satp_write_cycles]), n(&[58])),
        ]
    }

    /// One `{"parameter", "model", "paper"}` cell per row, each side the
    /// numbers its template prints.
    fn json(grid: &Self::Grid) -> Value {
        let cells = grid.iter().map(|(name, model, paper)| {
            Value::Object(vec![
                ("parameter", (*name).into()),
                ("model", Value::Array(model.clone())),
                ("paper", Value::Array(paper.clone())),
            ])
        });
        Value::Array(cells.collect())
    }

    /// One row per cell, each with its own templates.
    #[rustfmt::skip]
    fn layout() -> Layout {
        let caption = "Simulator configuration (ARM HPI model, paper Table 4)";
        let model = "{model/0}KB, {model/1}B line, {model/2}-way";
        let paper = "{paper/0}KB, {paper/1}B line, {paper/2}-way";
        Layout::new("Table 4", caption, &["Parameter", "Value", "Paper"])
            .one("0", &["{parameter}", "in-order, {model/0} IPC issue", "{paper/0} in-order cores @{paper/1}GHz"])
            .one("1", &["{parameter}", "{model/0} entries", "{paper/0} entries"])
            .one("2", &["{parameter}", model, paper])
            .one("3", &["{parameter}", model, paper])
            .one("4", &["{parameter}", "{model/0} extra cycles", "{paper/0} cycles data/tag/response"])
            .one("5", &["{parameter}", "{model/0} cycles", "{paper/0} cycles data/tag"])
            .one("6", &["{parameter}", "{model/0} cycles", "{paper/0} cycles (Hikey-960)"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflects_paper_parameters() {
        let text = crate::experiments::report::<Table4>(&Table4::compute()).render();
        assert!(text.contains("256 entries"));
        assert!(text.contains("58 cycles"));
    }
}
