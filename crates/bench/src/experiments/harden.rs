//! **Harden** — the security-tax curve: what each temporal-safety
//! mitigation costs, per mechanism, across the message-size axis.
//!
//! The `xpc-verify` temporal passes (revocation epochs, zero-on-
//! handover, tenant flow tags) each have a runtime twin the kernels
//! price through [`simos::Hardening`]. This grid sweeps mechanism ×
//! mitigation set × message size and reports the *tax*: the cycles a
//! hardened one-way invocation pays over the unhardened one. XPC-engine
//! mechanisms pay hardware rates (an epoch compare rides the cap walk,
//! a flow tag rides the linkage record); trap-based baselines pay the
//! software-equivalent table lookups in the kernel IPC path — so the
//! curve shows the *relative* security tax shrinking when the check is
//! architectural. Zero-on-handover is the only per-byte mitigation, so
//! its tax grows with the size axis while the other two stay flat.
//!
//! With every mitigation off the grid's cycle column is byte-identical
//! to the unhardened sweeps (the `none` rows reprice the same
//! invocations the other figures already snapshot).

use super::Report;
use crate::sweep::SIZES;
use kernels::{paired_roster_factories, CycleLedger, InvokeOpts, Phase};
use simos::{Hardening, IpcSystem};

/// The mitigation sets the grid sweeps, in column order.
pub const SETS: [(&str, Hardening); 5] = [
    ("none", Hardening::NONE),
    (
        "epochs",
        Hardening {
            revocation_epochs: true,
            zero_on_handover: false,
            flow_tags: false,
        },
    ),
    (
        "scrub",
        Hardening {
            revocation_epochs: false,
            zero_on_handover: true,
            flow_tags: false,
        },
    ),
    (
        "flow",
        Hardening {
            revocation_epochs: false,
            zero_on_handover: false,
            flow_tags: true,
        },
    ),
    ("all", Hardening::ALL),
];

/// One grid cell: a mechanism pricing one hardened one-way invocation.
#[derive(Debug, Clone)]
pub struct HardenCell {
    /// Mechanism name.
    pub system: String,
    /// Mitigation-set key (`none`, `epochs`, `scrub`, `flow`, `all`).
    pub set: &'static str,
    /// Message size (bytes).
    pub msg_len: usize,
    /// Total cycles of the hardened invocation.
    pub cycles: u64,
    /// Security tax: cycles over the `none` set at the same size.
    pub tax_cycles: u64,
    /// Cycles attributed to the zero-on-handover scrub phase.
    pub scrub_cycles: u64,
}

/// The (mechanism × mitigation set × size) grid. One pool cell per
/// mechanism: the sets share the mechanism's unhardened baseline, so a
/// worker prices all 25 points and taxes them locally.
pub fn results() -> Vec<Vec<HardenCell>> {
    simos::par::map_cells(paired_roster_factories(), |_, mk, _| {
        let mut s = mk();
        let system = s.name();
        let mut ledger = CycleLedger::new();
        let mut price = |b: usize, h: Hardening| {
            ledger.clear();
            s.oneway_into(b, &InvokeOpts::call().hardened(h), &mut ledger);
            (ledger.total(), ledger.get(Phase::Scrub))
        };
        let base: Vec<u64> = SIZES.iter().map(|&b| price(b, Hardening::NONE).0).collect();
        let mut cells = Vec::new();
        for (set, h) in SETS {
            for (i, &b) in SIZES.iter().enumerate() {
                let (cycles, scrub_cycles) = price(b, h);
                cells.push(HardenCell {
                    system: system.clone(),
                    set,
                    msg_len: b,
                    cycles,
                    tax_cycles: cycles - base[i],
                    scrub_cycles,
                });
            }
        }
        cells
    })
}

/// Regenerate the harden table.
pub fn run() -> Report {
    let rows = results()
        .iter()
        .flatten()
        .map(|c| {
            vec![
                c.system.clone(),
                c.set.to_string(),
                format!("{}B", c.msg_len),
                c.cycles.to_string(),
                c.tax_cycles.to_string(),
                c.scrub_cycles.to_string(),
            ]
        })
        .collect();
    Report {
        id: "Harden",
        caption: "Security tax of the temporal mitigations: hardened one-way cycles over the unhardened baseline, per mechanism and message size",
        headers: vec![
            "System".into(),
            "Mitigations".into(),
            "Size".into(),
            "Cycles".into(),
            "Tax".into(),
            "Scrub".into(),
        ],
        rows,
    }
}

/// The `"harden"` section of `BENCH_figures.json`.
pub fn json_section() -> String {
    let cells = results()
        .iter()
        .flatten()
        .map(|c| {
            format!(
                "    {{\"system\": \"{}\", \"set\": \"{}\", \"msg_len\": {}, \
                 \"cycles\": {}, \"tax_cycles\": {}, \"scrub_cycles\": {}}}",
                c.system, c.set, c.msg_len, c.cycles, c.tax_cycles, c.scrub_cycles
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{cells}\n  ]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(cells: &'a [Vec<HardenCell>], sys: &str, set: &str, b: usize) -> &'a HardenCell {
        cells
            .iter()
            .flatten()
            .find(|c| c.system == sys && c.set == set && c.msg_len == b)
            .unwrap()
    }

    #[test]
    fn grid_covers_mechanisms_sets_and_sizes() {
        let cells = results();
        assert_eq!(cells.len(), 4);
        for per_sys in &cells {
            assert_eq!(per_sys.len(), SETS.len() * SIZES.len());
        }
    }

    #[test]
    fn none_set_pays_zero_tax_everywhere() {
        let cells = results();
        for c in cells.iter().flatten().filter(|c| c.set == "none") {
            assert_eq!(c.tax_cycles, 0, "{} at {}B", c.system, c.msg_len);
            assert_eq!(c.scrub_cycles, 0, "{} at {}B", c.system, c.msg_len);
        }
    }

    #[test]
    fn every_mitigation_costs_something_and_all_dominates() {
        let cells = results();
        for sys in ["Zircon", "Zircon-XPC", "seL4-onecopy", "seL4-XPC"] {
            for &b in &SIZES {
                let none = cell(&cells, sys, "none", b).cycles;
                let all = cell(&cells, sys, "all", b).cycles;
                for set in ["epochs", "scrub", "flow"] {
                    let c = cell(&cells, sys, set, b);
                    // Scrub is per-byte: legitimately free on an empty
                    // message; the flat checks always cost.
                    if set != "scrub" || b > 0 {
                        assert!(c.tax_cycles > 0, "{sys} {set} {b}B free");
                    }
                    assert!(c.cycles >= none && c.cycles <= all, "{sys} {set} {b}B");
                }
            }
        }
    }

    #[test]
    fn scrub_tax_grows_with_message_size_and_others_stay_flat() {
        let cells = results();
        for sys in ["Zircon", "Zircon-XPC", "seL4-onecopy", "seL4-XPC"] {
            for w in SIZES.windows(2) {
                assert!(
                    cell(&cells, sys, "scrub", w[1]).tax_cycles
                        > cell(&cells, sys, "scrub", w[0]).tax_cycles,
                    "{sys}: scrub tax not per-byte"
                );
                for set in ["epochs", "flow"] {
                    assert_eq!(
                        cell(&cells, sys, set, w[0]).tax_cycles,
                        cell(&cells, sys, set, w[1]).tax_cycles,
                        "{sys}: {set} tax should be size-independent"
                    );
                }
            }
        }
    }

    #[test]
    fn hardware_checks_tax_less_than_their_software_equivalents() {
        let cells = results();
        for (base, xpc) in [("Zircon", "Zircon-XPC"), ("seL4-onecopy", "seL4-XPC")] {
            for set in ["epochs", "flow"] {
                assert!(
                    cell(&cells, xpc, set, 0).tax_cycles < cell(&cells, base, set, 0).tax_cycles,
                    "{set}: architectural check not cheaper than {base}'s software path"
                );
            }
        }
    }

    #[test]
    fn json_section_is_shaped() {
        let s = json_section();
        assert!(s.contains("\"set\": \"none\""));
        assert!(s.contains("\"set\": \"all\""));
        assert!(s.contains("\"tax_cycles\": 0"));
        assert!(s.contains("\"scrub_cycles\""));
    }
}
