//! Crafted plans, one per exception class, plus a clean control.
//!
//! Each crafted plan is the *minimal* misconfiguration that provokes
//! one of the five XPC exceptions, paired with the `Cause` the verifier
//! must predict. The differential tests replay the same
//! misconfiguration on a real [`xpc::XpcKernel`] and assert the engine
//! traps with the identical cause; the bench `verify` experiment prints
//! the predicted-vs-expected table.

use crate::plan::{EntryDecl, Grant, Plan, SegOp, ServiceBinding};
use rv64::trap::Cause;
use simos::{CallProgram, Recipe, Step};

/// One crafted scenario: a plan, its recipes, and the verdict the
/// verifier must reach.
pub struct Crafted {
    /// Stable scenario name (kebab-case, used in tables and JSON).
    pub label: &'static str,
    /// The exact cause every finding must predict; `None` for the clean
    /// control (zero findings expected).
    pub expected: Option<Cause>,
    /// The setup plan.
    pub plan: Plan,
    /// Named workload recipes run against the plan.
    pub recipes: Vec<(String, Vec<Step>)>,
}

fn call_and_return() -> Vec<(String, Vec<Step>)> {
    vec![(
        "call".to_string(),
        vec![
            Step::Oneway {
                from: 0,
                to: 1,
                bytes: 8,
            },
            Step::Oneway {
                from: 1,
                to: 0,
                bytes: 8,
            },
        ],
    )]
}

fn client_and_service() -> Plan {
    let mut plan = Plan::new();
    plan.threads = vec![0, 1];
    plan.services = vec![
        ServiceBinding {
            thread: 0,
            entry: None,
        },
        ServiceBinding {
            thread: 1,
            entry: Some(1),
        },
    ];
    plan.entries = vec![EntryDecl {
        id: 1,
        owner: 1,
        valid: true,
    }];
    plan
}

/// The service binds an entry id past the end of the x-entry table, so
/// the very first bounds check refuses the call.
pub fn invalid_x_entry() -> Crafted {
    let mut plan = client_and_service();
    plan.entries.clear();
    plan.services[1].entry = Some(plan.table_entries + 976);
    Crafted {
        label: "out-of-bounds-entry",
        expected: Some(Cause::InvalidXEntry),
        plan,
        recipes: call_and_return(),
    }
}

/// The entry exists and is valid, but nobody ever granted the client
/// the xcall-cap bit — the bitmap check refuses the call.
pub fn invalid_xcall_cap() -> Crafted {
    let plan = client_and_service();
    Crafted {
        label: "ungranted-xcall",
        expected: Some(Cause::InvalidXcallCap),
        plan,
        recipes: call_and_return(),
    }
}

/// The service's call graph declares it re-enters itself while serving
/// a request; every hop pushes a linkage record, so depth is unbounded
/// and the link stack overflows.
pub fn invalid_linkage() -> Crafted {
    let mut plan = client_and_service();
    plan.grants = vec![
        Grant::Xcall {
            granter: 1,
            grantee: 0,
            entry: 1,
        },
        Grant::Xcall {
            granter: 1,
            grantee: 1,
            entry: 1,
        },
    ];
    plan.calls = vec![(0, 1), (1, 1)];
    Crafted {
        label: "self-recursive-service",
        expected: Some(Cause::InvalidLinkage),
        plan,
        recipes: call_and_return(),
    }
}

/// The seg plan swaps against a seg-list slot nothing was ever stashed
/// into — the slot is invalid and `swapseg` refuses.
pub fn swapseg_error() -> Crafted {
    let mut plan = Plan::new();
    plan.threads = vec![0];
    plan.services = vec![ServiceBinding {
        thread: 0,
        entry: None,
    }];
    plan.seg_ops = vec![
        SegOp::Alloc {
            seg: 0,
            owner: 0,
            len: 4096,
            paged: false,
        },
        SegOp::Install { thread: 0, seg: 0 },
        SegOp::Swap { thread: 0, slot: 5 },
    ];
    Crafted {
        label: "empty-slot-swapseg",
        expected: Some(Cause::SwapsegError),
        plan,
        recipes: Vec::new(),
    }
}

/// The mask plan widens the seg window past the installed segment —
/// windows only shrink, so the mask write traps.
pub fn invalid_seg_mask() -> Crafted {
    let mut plan = Plan::new();
    plan.threads = vec![0];
    plan.services = vec![ServiceBinding {
        thread: 0,
        entry: None,
    }];
    plan.seg_ops = vec![
        SegOp::Alloc {
            seg: 0,
            owner: 0,
            len: 4096,
            paged: false,
        },
        SegOp::Install { thread: 0, seg: 0 },
        SegOp::Mask {
            thread: 0,
            offset: 0,
            len: 8192,
        },
    ];
    Crafted {
        label: "widening-seg-mask",
        expected: Some(Cause::InvalidSegMask),
        plan,
        recipes: Vec::new(),
    }
}

/// The client held the xcall-cap once, but the owner revoked the entry
/// after granting — the cap is from a dead revocation epoch, and the
/// bitmap bit `revoke_entry` cleared is gone when the call issues.
pub fn revoked_xcall() -> Crafted {
    let mut plan = client_and_service();
    plan.grants = vec![
        Grant::Xcall {
            granter: 1,
            grantee: 0,
            entry: 1,
        },
        Grant::Revoke {
            granter: 1,
            entry: 1,
        },
    ];
    Crafted {
        label: "revoked-xcall",
        expected: Some(Cause::InvalidXcallCap),
        plan,
        recipes: call_and_return(),
    }
}

/// The caller shrinks the relay window and hands the segment over; the
/// receiver then tries to widen the window back out. §4.4: the mask
/// travels with the handover and only ever shrinks, so the widening CSR
/// write traps.
pub fn widen_after_handover() -> Crafted {
    let mut plan = Plan::new();
    plan.threads = vec![0, 1];
    plan.services = vec![
        ServiceBinding {
            thread: 0,
            entry: None,
        },
        ServiceBinding {
            thread: 1,
            entry: None,
        },
    ];
    plan.seg_ops = vec![
        SegOp::Alloc {
            seg: 0,
            owner: 0,
            len: 4096,
            paged: false,
        },
        SegOp::Install { thread: 0, seg: 0 },
        SegOp::Mask {
            thread: 0,
            offset: 0,
            len: 256,
        },
        SegOp::HandoverCall { thread: 0, to: 1 },
        SegOp::Mask {
            thread: 1,
            offset: 0,
            len: 4096,
        },
    ];
    Crafted {
        label: "widen-after-handover",
        expected: Some(Cause::InvalidSegMask),
        plan,
        recipes: Vec::new(),
    }
}

/// Two tenants share a middle service; the recipe returns straight from
/// the tail service to the client, popping through the other tenant's
/// linkage record. Every capability is granted — only the tenant-flow
/// rule refutes the interleaving.
pub fn cross_tenant_return() -> Crafted {
    let mut plan = Plan::new();
    plan.threads = vec![0, 1, 2];
    plan.services = vec![
        ServiceBinding {
            thread: 0,
            entry: Some(3),
        },
        ServiceBinding {
            thread: 1,
            entry: Some(1),
        },
        ServiceBinding {
            thread: 2,
            entry: Some(2),
        },
    ];
    plan.entries = vec![
        EntryDecl {
            id: 1,
            owner: 1,
            valid: true,
        },
        EntryDecl {
            id: 2,
            owner: 2,
            valid: true,
        },
        EntryDecl {
            id: 3,
            owner: 0,
            valid: true,
        },
    ];
    plan.grants = vec![
        Grant::Xcall {
            granter: 1,
            grantee: 0,
            entry: 1,
        },
        Grant::Xcall {
            granter: 2,
            grantee: 1,
            entry: 2,
        },
        Grant::Xcall {
            granter: 0,
            grantee: 2,
            entry: 3,
        },
    ];
    plan.tenants = vec![0, 1, 0];
    Crafted {
        label: "cross-tenant-return",
        expected: Some(Cause::InvalidLinkage),
        plan,
        recipes: vec![(
            "skip".to_string(),
            vec![
                Step::Oneway {
                    from: 0,
                    to: 1,
                    bytes: 8,
                },
                Step::Oneway {
                    from: 1,
                    to: 2,
                    bytes: 8,
                },
                Step::Oneway {
                    from: 2,
                    to: 0,
                    bytes: 8,
                },
            ],
        )],
    }
}

/// Fully wired two-service plan: entry granted, acyclic graph, clean
/// segment lifecycle. Zero findings, and the kernel runs it fault-free.
pub fn clean() -> Crafted {
    let mut plan = client_and_service();
    plan.grants = vec![Grant::Xcall {
        granter: 1,
        grantee: 0,
        entry: 1,
    }];
    plan.calls = vec![(0, 1)];
    plan.seg_ops = vec![
        SegOp::Alloc {
            seg: 0,
            owner: 0,
            len: 4096,
            paged: false,
        },
        SegOp::Install { thread: 0, seg: 0 },
        SegOp::Mask {
            thread: 0,
            offset: 0,
            len: 256,
        },
        SegOp::HandoverCall { thread: 0, to: 1 },
    ];
    Crafted {
        label: "clean-control",
        expected: None,
        plan,
        recipes: call_and_return(),
    }
}

/// One crafted fused-program scenario: a plan, the program run against
/// it, and the verdict [`crate::verify_program`] must reach. Kept
/// separate from [`all_crafted`] — the recipe-plan scenarios feed the
/// bench `verify` table, the program scenarios feed the program
/// differential tests.
pub struct CraftedProgram {
    /// Stable scenario name (kebab-case).
    pub label: &'static str,
    /// The exact cause every finding must predict.
    pub expected: Cause,
    /// The setup plan.
    pub plan: Plan,
    /// The fused program verified against the plan.
    pub program: CallProgram,
}

/// A fused chain one hop deeper than the link stack holds. The builder
/// admits it — [`simos::MAX_PROGRAM_HOPS`] caps structure, not
/// deployment — so the *verifier* must refuse it, with the same
/// `InvalidLinkage` the engine raises when the 103rd record pushes.
///
/// # Panics
///
/// Never: the chain sits one past the link-stack capacity, far below
/// [`simos::MAX_PROGRAM_HOPS`], so the builder always admits it.
pub fn over_deep_program() -> CraftedProgram {
    let plan_caps = Plan::new();
    let cap = usize::try_from(plan_caps.link_capacity_records).expect("capacity fits usize");
    let mut r = Recipe::new(0);
    for _ in 0..=cap {
        r = r.hop(1, 8);
    }
    let program = r.reply(0).build().expect("within MAX_PROGRAM_HOPS");
    let plan = Plan::for_program(2, &program);
    CraftedProgram {
        label: "over-deep-program",
        expected: Cause::InvalidLinkage,
        plan,
        program,
    }
}

/// A two-hop program whose middle service never received the xcall-cap
/// for the final hop: the first edge is granted, the second is not, so
/// the chained call must refuse with `InvalidXcallCap` exactly where
/// the runtime handler's own `xcall` would.
///
/// # Panics
///
/// Never: two hops always build.
pub fn cap_violating_program() -> CraftedProgram {
    let program = Recipe::new(0)
        .hop(1, 8)
        .hop(2, 8)
        .reply(0)
        .build()
        .expect("two hops");
    let mut plan = Plan::for_program(3, &program);
    // Revoke the 1→2 grant the canonical plan would wire.
    plan.grants
        .retain(|g| !matches!(g, Grant::Xcall { entry: 2, .. }));
    CraftedProgram {
        label: "ungranted-chained-hop",
        expected: Cause::InvalidXcallCap,
        plan,
        program,
    }
}

/// Every crafted scenario: the five spatial exception classes, then the
/// three temporal-lifecycle classes (revocation epoch, post-handover
/// widening, cross-tenant linkage), the clean control last.
pub fn all_crafted() -> Vec<Crafted> {
    vec![
        invalid_x_entry(),
        invalid_xcall_cap(),
        invalid_linkage(),
        swapseg_error(),
        invalid_seg_mask(),
        revoked_xcall(),
        widen_after_handover(),
        cross_tenant_return(),
        clean(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    /// A two-hop fused chain whose tail hop crosses into another tenant:
    /// the fused reply would pop tenant 0's linkage record from tenant 1's
    /// frame, so the verifier refuses the program outright.
    fn cross_tenant_program() -> CraftedProgram {
        let program = Recipe::new(0)
            .hop(1, 8)
            .hop(2, 8)
            .reply(0)
            .build()
            .expect("two hops");
        let mut plan = Plan::for_program(3, &program);
        plan.tenants = vec![0, 0, 1];
        CraftedProgram {
            label: "cross-tenant-chain",
            expected: Cause::InvalidLinkage,
            plan,
            program,
        }
    }

    #[test]
    fn each_crafted_plan_yields_exactly_its_expected_cause() {
        for c in all_crafted() {
            let findings = verify(&c.plan, &c.recipes);
            match c.expected {
                None => assert!(findings.is_empty(), "{}: {:?}", c.label, findings),
                Some(cause) => {
                    assert!(!findings.is_empty(), "{}: no findings", c.label);
                    for f in &findings {
                        assert_eq!(f.cause(), Some(cause), "{}: {f}", c.label);
                    }
                }
            }
        }
    }

    #[test]
    fn each_crafted_program_yields_exactly_its_expected_cause() {
        for c in [
            over_deep_program(),
            cap_violating_program(),
            cross_tenant_program(),
        ] {
            let findings = crate::verify_program(&c.plan, c.label, &c.program);
            assert!(!findings.is_empty(), "{}: no findings", c.label);
            for f in &findings {
                assert_eq!(f.cause(), Some(c.expected), "{}: {f}", c.label);
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = all_crafted().iter().map(|c| c.label).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }
}
