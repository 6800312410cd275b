//! **Table 4** — the GEM5 ARM HPI simulator configuration, as realized by
//! this reproduction's machine model.

use super::{Experiment, Report};
use crate::json::Value;
use rv64::{CacheConfig, MachineConfig};

/// One side of a Table 4 row: a `{}` template and the numbers it prints.
type Setting = (&'static str, Vec<Value>);

/// `template` with each `{}` replaced by the next number, as JSON prints it.
fn fill((template, numbers): &Setting) -> String {
    let mut parts = template.split("{}");
    let first = parts.next().unwrap_or_default().to_string();
    parts
        .zip(numbers)
        .fold(first, |out, (part, n)| out + &n.render(0) + part)
}

/// Table 4: (parameter, this model's setting, the paper's) per row.
pub struct Table4;

impl Experiment for Table4 {
    type Grid = Vec<(&'static str, Setting, Setting)>;

    #[rustfmt::skip]
    fn compute() -> Self::Grid {
        let c = MachineConfig::arm_hpi();
        let n = |numbers: &[u64]| numbers.iter().map(|&n| Value::from(n)).collect();
        let cache = |c: &CacheConfig| {
            n(&[c.capacity() as u64 / 1024, c.line_bytes as u64, c.ways as u64])
        };
        let paper_cores = vec![8u64.into(), Value::Fixed(2.0, 1)];
        const CACHE: &str = "{}KB, {}B line, {}-way";
        vec![
            ("Core model",
             ("in-order, {} IPC issue", n(&[1])), ("{} in-order cores @{}GHz", paper_cores)),
            ("I/D TLB", ("{} entries", n(&[c.tlb_entries as u64])), ("{} entries", n(&[256]))),
            ("L1 I-cache", (CACHE, cache(&c.icache)), (CACHE, n(&[32, 64, 2]))),
            ("L1 D-cache", (CACHE, cache(&c.dcache)), (CACHE, n(&[32, 64, 4]))),
            ("L1 hit latency",
             ("{} extra cycles", n(&[c.dcache.hit_extra])),
             ("{} cycles data/tag/response", n(&[3]))),
            ("Miss/L2 latency",
             ("{} cycles", n(&[c.dcache.miss_penalty])), ("{} cycles data/tag", n(&[13]))),
            ("TTBR write barrier",
             ("{} cycles", n(&[c.satp_write_cycles])), ("{} cycles (Hikey-960)", n(&[58]))),
        ]
    }

    fn table(grid: &Self::Grid) -> Report {
        Report {
            id: "Table 4",
            caption: "Simulator configuration (ARM HPI model, paper Table 4)",
            headers: vec!["Parameter".into(), "Value".into(), "Paper".into()],
            rows: grid
                .iter()
                .map(|(name, model, paper)| vec![name.to_string(), fill(model), fill(paper)])
                .collect(),
        }
    }

    /// One `{"parameter", "model", "paper"}` cell per row, each side the
    /// numbers its template prints.
    fn json(grid: &Self::Grid) -> Value {
        let cells = grid.iter().map(|(name, (_, model), (_, paper))| {
            Value::Object(vec![
                ("parameter", (*name).into()),
                ("model", Value::Array(model.clone())),
                ("paper", Value::Array(paper.clone())),
            ])
        });
        Value::Array(cells.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflects_paper_parameters() {
        let text = Table4::table(&Table4::compute()).render();
        assert!(text.contains("256 entries"));
        assert!(text.contains("58 cycles"));
    }
}
