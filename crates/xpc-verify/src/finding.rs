//! Verifier diagnostics: `Cause`-typed verdicts that map 1:1 onto the
//! runtime trap each finding predicts.

use rv64::trap::Cause;
use std::fmt;

/// What the verifier predicts would happen at runtime if the plan ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The XPC engine would raise this exception (one of the five custom
    /// causes of paper Table 2). The differential tests pin each verdict
    /// to the identical [`Cause`] the engine traps with.
    Trap(Cause),
    /// An [`simos::Invocation`] whose phase
    /// decomposition does not sum to its total — unattributed cycles in
    /// the ledger. No hardware trap; the cycle accounting itself is
    /// broken (the ledger-lint pass of the verifier).
    LedgerDrift,
    /// A tainted relay segment is handed to a different owner without an
    /// interposed zero (the segment-taint automaton of [`crate::segs`]).
    /// No hardware trap fires — the bytes simply arrive — which is
    /// exactly why the temporal hardening prices a zero-on-handover
    /// scrub instead of relying on an exception.
    DataLeak,
}

impl Verdict {
    /// The runtime trap this verdict predicts, if it predicts one.
    pub(crate) fn cause(self) -> Option<Cause> {
        match self {
            Verdict::Trap(c) => Some(c),
            Verdict::LedgerDrift | Verdict::DataLeak => None,
        }
    }

    /// Stable kebab-case key for tables and JSON dumps.
    pub fn key(self) -> &'static str {
        match self {
            Verdict::Trap(Cause::InvalidXEntry) => "invalid-x-entry",
            Verdict::Trap(Cause::InvalidXcallCap) => "invalid-xcall-cap",
            Verdict::Trap(Cause::InvalidLinkage) => "invalid-linkage",
            Verdict::Trap(Cause::SwapsegError) => "swapseg-error",
            Verdict::Trap(Cause::InvalidSegMask) => "invalid-seg-mask",
            Verdict::Trap(_) => "trap",
            Verdict::LedgerDrift => "ledger-drift",
            Verdict::DataLeak => "data-leak",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Trap(c) => write!(f, "{c}"),
            Verdict::LedgerDrift => f.write_str("ledger drift"),
            Verdict::DataLeak => f.write_str("data leak"),
        }
    }
}

/// One statically proven protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The predicted runtime outcome.
    pub verdict: Verdict,
    /// Where in the plan/recipes the violation sits (stable, printable).
    pub site: String,
    /// What is wrong, in terms of the abstract domain that refuted it.
    pub detail: String,
    /// For seg-op findings: the index into [`crate::plan::Plan::seg_ops`]
    /// of the **first** violating op, so tooling can point at the exact
    /// plan line instead of parsing the `site` string. `None` for
    /// findings that do not anchor to a seg-op.
    pub op_index: Option<usize>,
}

impl Finding {
    /// Construct a trap-predicting finding.
    pub(crate) fn trap(cause: Cause, site: impl Into<String>, detail: impl Into<String>) -> Self {
        Finding {
            verdict: Verdict::Trap(cause),
            site: site.into(),
            detail: detail.into(),
            op_index: None,
        }
    }

    /// Construct a trap-predicting finding anchored at a seg-op index.
    pub(crate) fn trap_at(
        cause: Cause,
        op_index: usize,
        site: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Finding {
            verdict: Verdict::Trap(cause),
            site: site.into(),
            detail: detail.into(),
            op_index: Some(op_index),
        }
    }

    /// Construct a data-leak finding anchored at a seg-op index.
    pub(crate) fn leak_at(
        op_index: usize,
        site: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Finding {
            verdict: Verdict::DataLeak,
            site: site.into(),
            detail: detail.into(),
            op_index: Some(op_index),
        }
    }

    /// The runtime trap this finding predicts, if any.
    pub fn cause(&self) -> Option<Cause> {
        self.verdict.cause()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} ({})", self.site, self.verdict, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_keys_cover_the_five_exceptions() {
        let five = [
            Cause::InvalidXEntry,
            Cause::InvalidXcallCap,
            Cause::InvalidLinkage,
            Cause::SwapsegError,
            Cause::InvalidSegMask,
        ];
        let mut keys: Vec<_> = five.iter().map(|&c| Verdict::Trap(c).key()).collect();
        keys.push(Verdict::LedgerDrift.key());
        keys.push(Verdict::DataLeak.key());
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn anchored_findings_carry_the_op_index_and_leaks_predict_no_trap() {
        let f = Finding::trap_at(Cause::InvalidSegMask, 4, "seg-op 4", "widens");
        assert_eq!(f.op_index, Some(4));
        assert_eq!(f.cause(), Some(Cause::InvalidSegMask));
        let l = Finding::leak_at(2, "seg-op 2", "tainted handover");
        assert_eq!(l.verdict, Verdict::DataLeak);
        assert_eq!(l.op_index, Some(2));
        assert_eq!(l.cause(), None, "a leak is silent at runtime");
    }

    #[test]
    fn finding_displays_site_and_verdict() {
        let f = Finding::trap(Cause::SwapsegError, "seg-op 3", "slot 2 is empty");
        let s = f.to_string();
        assert!(s.contains("seg-op 3") && s.contains("swapseg error"));
        assert_eq!(f.cause(), Some(Cause::SwapsegError));
    }
}
