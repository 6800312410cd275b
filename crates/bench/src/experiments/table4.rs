//! **Table 4** — the GEM5 ARM HPI simulator configuration, as realized by
//! this reproduction's machine model.

use super::Report;
use rv64::MachineConfig;

/// Regenerate Table 4.
pub(crate) fn run() -> Report {
    let c = MachineConfig::arm_hpi();
    Report {
        id: "Table 4",
        caption: "Simulator configuration (ARM HPI model, paper Table 4)",
        headers: vec!["Parameter".into(), "Value".into(), "Paper".into()],
        rows: vec![
            vec![
                "Core model".into(),
                "in-order, 1 IPC issue".into(),
                "8 in-order cores @2.0GHz".into(),
            ],
            vec![
                "I/D TLB".into(),
                format!("{} entries", c.tlb_entries),
                "256 entries".into(),
            ],
            vec![
                "L1 I-cache".into(),
                format!(
                    "{}KB, {}B line, {}-way",
                    c.icache.capacity() / 1024,
                    c.icache.line_bytes,
                    c.icache.ways
                ),
                "32KB, 64B line, 2-way".into(),
            ],
            vec![
                "L1 D-cache".into(),
                format!(
                    "{}KB, {}B line, {}-way",
                    c.dcache.capacity() / 1024,
                    c.dcache.line_bytes,
                    c.dcache.ways
                ),
                "32KB, 64B line, 4-way".into(),
            ],
            vec![
                "L1 hit latency".into(),
                format!("{} extra cycles", c.dcache.hit_extra),
                "3 cycles data/tag/response".into(),
            ],
            vec![
                "Miss/L2 latency".into(),
                format!("{} cycles", c.dcache.miss_penalty),
                "13 cycles data/tag".into(),
            ],
            vec![
                "TTBR write barrier".into(),
                format!("{} cycles", c.satp_write_cycles),
                "58 cycles (Hikey-960)".into(),
            ],
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reflects_paper_parameters() {
        let r = super::run();
        let text = r.render();
        assert!(text.contains("256 entries"));
        assert!(text.contains("58 cycles"));
    }
}
