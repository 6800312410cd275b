//! Check (d): the **ledger lint** — a round trip priced into one sink
//! must equal its call leg merged with its reply leg.
//!
//! This is the cost-model counterpart of the hardware checks: the
//! figures sum legs into round trips and chains, so a model whose price
//! drifts from hop to hop silently corrupts every chart built on it. The
//! lint drives each system through the call and reply legs of the
//! experiments' message-size sweep and checks every round trip against
//! its legs. (An [`Invocation`]'s total is its ledger sum by
//! construction, so there is no total to drift.)

use crate::finding::{Finding, Verdict};
use simos::ipc::IpcSystem;
use simos::ledger::{Invocation, InvokeOpts};

/// Message sizes the lint sweeps — the experiments' sweep points plus
/// byte-odd sizes that would expose rounding drift.
const SWEEP: [usize; 6] = [0, 1, 64, 1024, 4096, 65536];

/// Lint one round trip against its legs: both legs priced into one
/// sink must equal the call leg merged with the reply leg, span for
/// span. A model whose price drifts from hop to hop, or depends on what
/// the sink already holds, breaks every chain and round trip summed
/// from it.
pub(crate) fn lint_roundtrip(
    system: &str,
    what: &str,
    roundtrip: &Invocation,
    call: Invocation,
    reply: Invocation,
) -> Option<Finding> {
    let legs = call.plus(reply);
    if *roundtrip == legs {
        return None;
    }
    Some(Finding {
        verdict: Verdict::LedgerDrift,
        site: format!("{system}: {what}"),
        detail: format!(
            "round trip prices {:?} (copied {}) but its legs sum to {:?} (copied {})",
            roundtrip.ledger.spans(),
            roundtrip.copied_bytes,
            legs.ledger.spans(),
            legs.copied_bytes
        ),
        op_index: None,
    })
}

/// Drive `sys` through the experiments' invocation shapes and lint
/// every resulting ledger.
pub fn lint_system(sys: &mut dyn IpcSystem) -> Vec<Finding> {
    let name = sys.name();
    let mut findings = Vec::new();
    let (call_opts, reply_opts) = (InvokeOpts::call(), InvokeOpts::reply_leg());
    for &len in &SWEEP {
        let call = Invocation::priced(|l| sys.oneway_into(len, &call_opts, l));
        let reply = Invocation::priced(|l| sys.oneway_into(len, &reply_opts, l));
        let roundtrip = Invocation::priced(|l| {
            sys.oneway_into(len, &call_opts, l) + sys.oneway_into(len, &reply_opts, l)
        });
        let what = format!("roundtrip({len})");
        findings.extend(lint_roundtrip(&name, &what, &roundtrip, call, reply));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::ledger::{CycleLedger, Phase};

    /// A model whose price creeps up one cycle per hop.
    struct Drifting(u64);
    impl IpcSystem for Drifting {
        fn name(&self) -> String {
            "drifting".into()
        }
        fn oneway_into(
            &mut self,
            msg_len: usize,
            _opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            self.0 += 1;
            out.charge(Phase::Trap, 100 + self.0);
            msg_len as u64
        }
    }

    #[test]
    fn lint_system_catches_a_drifting_model() {
        let findings = lint_system(&mut Drifting(0));
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|f| f.verdict == Verdict::LedgerDrift));
        assert!(findings.iter().all(|f| f.site.contains("roundtrip")));
    }

    #[test]
    fn full_roster_is_drift_free() {
        for factory in kernels::full_roster_factories() {
            let mut sys = factory();
            let findings = lint_system(sys.as_mut());
            assert!(
                findings.is_empty(),
                "{}: {:?}",
                sys.name(),
                findings.first()
            );
        }
    }
}
