//! Static IPC-protocol verifier for the XPC stack.
//!
//! The paper's security argument rests on five hardware exceptions
//! (invalid x-entry, invalid xcall-cap, invalid linkage, swapseg error,
//! invalid seg-mask) that the engine raises *at run time*. This crate
//! proves — or refutes — the same properties *before* anything runs: an
//! abstract interpreter takes a declarative setup [`Plan`] (processes,
//! x-entry registrations, grant edges, relay-segment lifecycles) plus
//! workload recipes ([`simos::load::Step`] sequences) and checks:
//!
//! * **(a) capability reachability** ([`caps`]) — every `xcall` target
//!   in-bounds of the x-entry table and reachable in the xcall-cap
//!   bitmap lattice, transitively through grant-cap edges, and **not
//!   revoked**: each entry carries a revocation epoch bumped by
//!   [`Grant::Revoke`], and a call through a cap from an older epoch is
//!   refuted;
//! * **(b) link-stack depth** ([`depth`]) — worst-case call-chain depth
//!   over the service call graph fits the configured link stack, with
//!   cycle detection for unbounded recursion, plus the **tenant-flow**
//!   rule: no return may pop another tenant's linkage record;
//! * **(c) segment ownership** ([`segs`]) — relay segments keep
//!   single-owner semantics along every `swapseg`/handover
//!   interleaving, seg-mask windows only shrink (even across a
//!   handover), and a **taint automaton** flags any tainted segment
//!   handed across processes without an interposed [`SegOp::Zero`];
//! * **(d) ledger hygiene** ([`lint`]) — every [`simos`] kernel model
//!   prices a round trip as exactly its call leg plus its reply leg.
//!
//! Every [`Finding`] carries a [`Verdict`] typed by the
//! [`rv64::trap::Cause`] the runtime would trap with, so static
//! diagnostics and dynamic faults speak the same vocabulary — the
//! differential tests assert they agree, class by class.

#![forbid(unsafe_code)]

pub mod caps;
pub mod crafted;
pub mod depth;
pub mod finding;
pub mod lint;
pub mod plan;
pub mod program;
pub mod segs;

pub use finding::{Finding, Verdict};
pub use plan::{CallSite, EntryDecl, Grant, Plan, RecipeFlow, SegOp, ServiceBinding};
pub use program::check_program;

use simos::{CallProgram, Step};

/// Run every static check — capability reachability (with revocation
/// epochs), link-stack depth, tenant flow, segment ownership and taint
/// — over a plan and its named recipes, returning all findings (empty
/// means *proved clean*). Findings are sorted by site and deduplicated,
/// so a misconfiguration reachable along several paths (e.g. a call
/// edge declared twice) reads as one diagnostic.
pub fn verify(plan: &Plan, recipes: &[(String, Vec<Step>)]) -> Vec<Finding> {
    let flows: Vec<(String, RecipeFlow)> = recipes
        .iter()
        .map(|(name, recipe)| (name.clone(), plan::flow(recipe)))
        .collect();
    let mut findings = caps::check(plan, &flows);
    findings.extend(depth::check(plan, &flows));
    findings.extend(depth::check_tenants(plan, recipes));
    findings.extend(segs::check(plan));
    findings.sort_by(|a, b| {
        (a.site.as_str(), a.verdict.key(), a.detail.as_str()).cmp(&(
            b.site.as_str(),
            b.verdict.key(),
            b.detail.as_str(),
        ))
    });
    findings.dedup();
    findings
}

/// Run every static check that applies to a fused [`CallProgram`] —
/// per-hop capability reachability, the exact fused depth bound,
/// single-owner handover, and the plan's own segment lifecycle —
/// returning all findings (empty means *proved clean*).
pub fn verify_program(plan: &Plan, name: &str, prog: &CallProgram) -> Vec<Finding> {
    let mut findings = program::check_program(plan, name, prog);
    findings.extend(segs::check(plan));
    findings
}

/// Pre-flight gate for the bench experiments: derive the canonical
/// `Plan::for_recipes` setup an `n_services` deployment implies and
/// verify the recipes against it. `Err` carries the findings; figures
/// refuse to run an unverifiable recipe.
pub fn preflight(n_services: usize, recipes: &[(String, Vec<Step>)]) -> Result<(), Vec<Finding>> {
    let raw: Vec<Vec<Step>> = recipes.iter().map(|(_, r)| r.clone()).collect();
    let plan = Plan::for_recipes(n_services, &raw);
    let findings = verify(&plan, recipes);
    if findings.is_empty() {
        Ok(())
    } else {
        Err(findings)
    }
}

/// The fused sibling of [`preflight`]: derive the canonical
/// [`Plan::for_program`] setup and verify the program against it. The
/// `fuse` figures refuse to run an unverifiable program.
pub fn preflight_program(
    n_services: usize,
    name: &str,
    prog: &CallProgram,
) -> Result<(), Vec<Finding>> {
    let plan = Plan::for_program(n_services, prog);
    let findings = verify_program(&plan, name, prog);
    if findings.is_empty() {
        Ok(())
    } else {
        Err(findings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preflight_accepts_a_simple_service_chain() {
        let recipes = vec![(
            "chain".to_string(),
            vec![
                Step::Oneway {
                    from: 0,
                    to: 1,
                    bytes: 64,
                },
                Step::Roundtrip {
                    from: 1,
                    to: 2,
                    request: 16,
                    response: 64,
                },
                Step::Oneway {
                    from: 1,
                    to: 0,
                    bytes: 64,
                },
            ],
        )];
        assert!(preflight(3, &recipes).is_ok());
    }

    #[test]
    fn preflight_rejects_a_recipe_calling_an_unbound_service() {
        let recipes = vec![(
            "rogue".to_string(),
            vec![Step::Oneway {
                from: 0,
                to: 9,
                bytes: 8,
            }],
        )];
        let err = preflight(3, &recipes).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn duplicate_plan_edges_collapse_to_one_finding() {
        // The same ungranted call edge declared twice in `plan.calls`
        // used to surface as two identical findings.
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
        plan.calls = vec![(0, 1), (0, 1)];
        let findings = verify(&plan, &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(
            findings[0].cause(),
            Some(rv64::trap::Cause::InvalidXcallCap)
        );
    }

    /// The pre-epoch lattice pass, reimplemented membership-only, as the
    /// oracle for the zero-revoke equivalence property.
    fn legacy_propagate(
        plan: &Plan,
    ) -> (
        Vec<std::collections::HashSet<u64>>,
        Vec<std::collections::HashSet<u64>>,
    ) {
        use std::collections::HashSet;
        let n = plan.threads.len();
        let mut xcall: Vec<HashSet<u64>> = vec![HashSet::new(); n];
        let mut grant: Vec<HashSet<u64>> = vec![HashSet::new(); n];
        for e in &plan.entries {
            if let Some(s) = grant.get_mut(e.owner) {
                s.insert(e.id);
            }
        }
        for g in &plan.grants {
            match *g {
                Grant::Xcall {
                    granter,
                    grantee,
                    entry,
                } => {
                    if grant.get(granter).is_some_and(|s| s.contains(&entry)) {
                        if let Some(s) = xcall.get_mut(grantee) {
                            s.insert(entry);
                        }
                    }
                }
                Grant::GrantCap {
                    granter,
                    grantee,
                    entry,
                } => {
                    if grant.get(granter).is_some_and(|s| s.contains(&entry)) {
                        if let Some(s) = grant.get_mut(grantee) {
                            s.insert(entry);
                        }
                    }
                }
                Grant::Revoke { .. } => unreachable!("zero-revoke property"),
            }
        }
        (xcall, grant)
    }

    #[test]
    fn zero_revoke_plans_propagate_byte_identically_to_the_pre_epoch_lattice() {
        let mut plans: Vec<Plan> = crate::crafted::all_crafted()
            .into_iter()
            .filter(|c| {
                !c.plan
                    .grants
                    .iter()
                    .any(|g| matches!(g, Grant::Revoke { .. }))
            })
            .map(|c| c.plan)
            .collect();
        plans.push(crate::crafted::over_deep_program().plan);
        plans.push(crate::crafted::cap_violating_program().plan);
        plans.push(Plan::for_recipes(
            4,
            &[vec![
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
                    to: 3,
                    bytes: 8,
                },
            ]],
        ));
        assert!(!plans.is_empty());
        for plan in &plans {
            let st = caps::propagate(plan);
            let (xcall, grant) = legacy_propagate(plan);
            assert_eq!(st.xcall_caps, xcall, "xcall-cap membership unchanged");
            assert_eq!(st.grant_caps, grant, "grant-cap membership unchanged");
            // Epochs are fully inert: no entry ever revoked, every held
            // cap recorded in epoch 0, one epoch record per cap bit.
            assert!(st.entry_epochs.is_empty());
            for (set, map) in st.xcall_caps.iter().zip(&st.cap_epochs) {
                assert_eq!(set.len(), map.len());
                assert!(map.values().all(|&e| e == 0));
                assert!(set.iter().all(|e| map.contains_key(e)));
            }
        }
    }
}
