//! **Figure 5** — XPC optimizations and breakdown: one wrapped IPC call
//! measured on the emulator under the five cumulative configurations.
//!
//! Each bar is the [`Invocation`] of an [`EmulatedXpc`] rung — the
//! phase split (trampoline / xcall / xret) comes from its ledger, and the
//! per-rung saving is the [`kernels::CycleLedger::diff_into`] against the
//! previous bar's ledger.

use super::{Experiment, Layout};
use crate::harness::{CallBenchConfig, EmulatedXpc};
use crate::json::Value;
use crate::sweep::invocation_json;
use kernels::{Invocation, InvokeOpts, IpcSystem, Phase};

/// One Figure 5 bar.
#[derive(Debug, Clone)]
pub struct Fig5Bar {
    /// Configuration name.
    pub config: &'static str,
    /// The measured invocation (ledger: trampoline + xcall + xret).
    pub invocation: Invocation,
    /// Whole wrapped call (save + xcall + callee + xret + restore).
    pub total: u64,
    /// The `xcall` instruction alone.
    pub xcall: u64,
    /// The `xret` instruction alone.
    pub xret: u64,
    /// Per-phase change vs the previous bar (empty for the first).
    pub delta: Vec<(Phase, i64)>,
}

/// Measure the five ladder invocations.
pub fn invocations() -> Vec<(&'static str, Invocation)> {
    CallBenchConfig::fig5_ladder()
        .into_iter()
        .map(|(config, cfg)| {
            let mut sys = EmulatedXpc::new(config, &cfg);
            let inv = Invocation::priced(|l| sys.oneway_into(0, &InvokeOpts::call(), l));
            (config, inv)
        })
        .collect()
}

/// Measure all five bars, each annotated with its ledger diff vs the
/// previous rung.
pub fn bars() -> Vec<Fig5Bar> {
    let mut prev: Option<Invocation> = None;
    // One diff buffer across the ladder; each bar clones only its own
    // (tiny) delta out of the warm scratch.
    let mut scratch: Vec<(Phase, i64)> = Vec::new();
    invocations()
        .into_iter()
        .map(|(config, inv)| {
            let delta = match &prev {
                Some(p) => {
                    inv.ledger.diff_into(&p.ledger, &mut scratch);
                    scratch.clone()
                }
                None => Vec::new(),
            };
            let bar = Fig5Bar {
                config,
                total: inv.total(),
                xcall: inv.ledger.get(Phase::Xcall),
                xret: inv.ledger.get(Phase::Xret),
                delta,
                invocation: inv.clone(),
            };
            prev = Some(inv);
            bar
        })
        .collect()
}

/// Figure 5: the five [`bars`]. Its section is the bars' ledgers.
pub struct Fig5;

impl Experiment for Fig5 {
    type Grid = Vec<Fig5Bar>;

    fn compute() -> Self::Grid {
        bars()
    }

    /// Each bar's ledger, and its change over the previous bar.
    fn json(bars: &Self::Grid) -> Value {
        let bar = |b: &Fig5Bar| {
            let change = b.delta.iter().map(|&(_, d)| d).sum::<i64>();
            let vs_prev = (!b.delta.is_empty()).then_some(Value::Fixed(change as f64, 0));
            Value::Object(vec![
                ("name", b.config.into()),
                ("invocation", invocation_json(0, &b.invocation)),
                ("vs_prev_cycles", vs_prev.into()),
            ])
        };
        Value::Array(bars.iter().map(bar).collect())
    }

    #[rustfmt::skip]
    fn layout() -> Layout {
        let caption = "XPC optimizations and breakdown (one IPC call, emulator-measured; paper totals 150/89/49/33/21)";
        let headers = ["Configuration", "IPC call (cycles)", "trampoline", "xcall", "xret", "vs prev"];
        Layout::new("Figure 5", caption, &headers).each("", &[
            "{name}", "{invocation/total}", "{invocation/phases/trampoline}",
            "{invocation/phases/xcall}", "{invocation/phases/xret}", "{vs_prev_cycles}",
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_strictly_improves() {
        let b = bars();
        for pair in b.windows(2) {
            assert!(
                pair[1].total < pair[0].total,
                "{} ({}) should beat {} ({})",
                pair[1].config,
                pair[1].total,
                pair[0].config,
                pair[0].total
            );
        }
    }

    #[test]
    fn deltas_account_for_the_total_drop() {
        // The ledger diff is a faithful decomposition: summing the
        // per-phase deltas reproduces the total's change at every rung.
        let b = bars();
        for pair in b.windows(2) {
            let d: i64 = pair[1].delta.iter().map(|&(_, d)| d).sum();
            assert_eq!(
                d,
                pair[1].total as i64 - pair[0].total as i64,
                "{} vs {}",
                pair[1].config,
                pair[0].config
            );
        }
    }

    #[test]
    fn full_ctx_total_in_paper_band() {
        // Paper: 150 cycles for Full-Cxt (trampoline 76 + xcall 34 +
        // TLB 40). Our wrapped call includes xret, so allow a band.
        let t = bars()[0].total;
        assert!((120..=230).contains(&t), "Full-Cxt total {t}");
    }

    #[test]
    fn best_config_near_paper_21() {
        let b = bars();
        let best = b.last().unwrap();
        // Paper: 21 cycles (one-way view). Our round trip adds the xret;
        // subtracting it should land close to the paper's number.
        let oneway_view = best.total - best.xret;
        assert!(
            (15..=45).contains(&oneway_view),
            "best one-way view {oneway_view}"
        );
        assert_eq!(best.xcall, 6, "engine-cache xcall = 6");
    }

    #[test]
    fn nonblocking_saves_the_push() {
        let b = bars();
        let tagged = b.iter().find(|x| x.config == "+Tagged-TLB").unwrap();
        let nonblock = b
            .iter()
            .find(|x| x.config == "+Nonblock LinkStack")
            .unwrap();
        let saved = tagged.xcall - nonblock.xcall;
        assert_eq!(saved, 16, "paper: non-blocking link stack saves 16 cycles");
        // And the diff attributes that saving to the xcall phase.
        let xcall_delta = nonblock
            .delta
            .iter()
            .find(|&&(p, _)| p == Phase::Xcall)
            .map(|&(_, d)| d)
            .unwrap_or(0);
        assert_eq!(xcall_delta, -16, "ledger diff pins the win on xcall");
    }
}
