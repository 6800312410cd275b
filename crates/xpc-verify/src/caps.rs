//! Check (a): every `xcall` target in-bounds of the x-entry table and
//! reachable in the xcall-cap bitmap lattice, transitively through
//! grant-cap edges.
//!
//! The abstract domain is a pair of bitsets per thread — the xcall-cap
//! bitmap and the grant-cap set — computed by one forward pass over the
//! setup plan in program order. Registration seeds the owner's
//! grant-cap (exactly what `XpcKernel::register_entry` does); a
//! `Grant::Xcall` whose granter lacks the grant-cap is a no-op, because
//! the runtime call fails with `NoGrantCap` and the bit never lands in
//! the grantee's bitmap. The fixpoint is reached after the single pass
//! since grants are ordered.
//!
//! Revocation is temporal: each entry carries a **revocation epoch**,
//! bumped by every authorized [`Grant::Revoke`], and each granted cap
//! records the epoch it landed in. A call through a cap whose epoch
//! predates the entry's current epoch observes a revoked capability —
//! the bitmap bit `revoke_entry` cleared — and is refuted with the same
//! `InvalidXcallCap` the engine raises. A re-grant after the revoke
//! carries the new epoch and is live again; a plan with zero revoke
//! edges leaves every epoch at 0 and the lattice is byte-identical to
//! its pre-epoch behavior.
//!
//! Call sites then replay the engine's exact validation order from
//! `XpcEngine::exec_xcall`: **bounds → cap bit (incl. epoch) → entry
//! validity**, so the first finding at a site names the same [`Cause`]
//! the hardware would trap with first.

use crate::finding::Finding;
use crate::plan::{Grant, Plan, RecipeFlow};
use rv64::trap::Cause;
use std::collections::{HashMap, HashSet};

/// Per-thread capability state after the setup plan ran abstractly.
#[derive(Debug, Clone, Default)]
pub struct CapState {
    /// `xcall_caps[t]` = entry ids thread `t` may xcall into.
    pub xcall_caps: Vec<HashSet<u64>>,
    /// `grant_caps[t]` = entry ids thread `t` may grant onward.
    pub grant_caps: Vec<HashSet<u64>>,
    /// `cap_epochs[t][e]` = the revocation epoch entry `e` was in when
    /// thread `t` received its xcall-cap. A cap whose recorded epoch is
    /// older than the entry's current epoch was cleared by an
    /// intervening [`Grant::Revoke`] and is stale.
    pub cap_epochs: Vec<HashMap<u64, u64>>,
    /// Current revocation epoch per entry. Missing means epoch 0 — the
    /// entry was never revoked, so the lattice behaves exactly as it
    /// did before epochs existed.
    pub entry_epochs: HashMap<u64, u64>,
}

/// Run the setup plan's registrations, grants, and revocations through
/// the lattice.
pub(crate) fn propagate(plan: &Plan) -> CapState {
    let n = plan.threads.len();
    let mut st = CapState {
        xcall_caps: vec![HashSet::new(); n],
        grant_caps: vec![HashSet::new(); n],
        cap_epochs: vec![HashMap::new(); n],
        entry_epochs: HashMap::new(),
    };
    for e in &plan.entries {
        if let Some(set) = st.grant_caps.get_mut(e.owner) {
            set.insert(e.id);
        }
    }
    for g in &plan.grants {
        match *g {
            Grant::Xcall {
                granter,
                grantee,
                entry,
            } => {
                let authorized = st
                    .grant_caps
                    .get(granter)
                    .is_some_and(|s| s.contains(&entry));
                if authorized {
                    let epoch = st.entry_epochs.get(&entry).copied().unwrap_or(0);
                    if let Some(set) = st.xcall_caps.get_mut(grantee) {
                        set.insert(entry);
                    }
                    if let Some(map) = st.cap_epochs.get_mut(grantee) {
                        map.insert(entry, epoch);
                    }
                }
            }
            Grant::GrantCap {
                granter,
                grantee,
                entry,
            } => {
                let authorized = st
                    .grant_caps
                    .get(granter)
                    .is_some_and(|s| s.contains(&entry));
                if authorized {
                    if let Some(set) = st.grant_caps.get_mut(grantee) {
                        set.insert(entry);
                    }
                }
            }
            Grant::Revoke { granter, entry } => {
                let authorized = st
                    .grant_caps
                    .get(granter)
                    .is_some_and(|s| s.contains(&entry));
                if authorized {
                    *st.entry_epochs.entry(entry).or_insert(0) += 1;
                }
            }
        }
    }
    st
}

/// Validate one capability-checked call edge against a propagated
/// lattice, mirroring the engine's bounds → cap → validity order.
/// `None` means the edge is clean; otherwise the finding names the
/// *first* cause the hardware would trap with.
pub(crate) fn check_call(
    plan: &Plan,
    st: &CapState,
    site: String,
    caller_svc: usize,
    callee_svc: usize,
) -> Option<Finding> {
    let Some(caller) = plan.services.get(caller_svc) else {
        return Some(Finding::trap(
            Cause::InvalidXEntry,
            site,
            format!("caller service {caller_svc} has no binding in the plan"),
        ));
    };
    let Some(callee) = plan.services.get(callee_svc) else {
        return Some(Finding::trap(
            Cause::InvalidXEntry,
            site,
            format!("callee service {callee_svc} has no binding in the plan"),
        ));
    };
    let Some(entry) = callee.entry else {
        return Some(Finding::trap(
            Cause::InvalidXEntry,
            site,
            format!("callee service {callee_svc} binds no x-entry"),
        ));
    };
    // 1. Bounds: the engine refuses an id past the table before it
    //    ever reads the cap bitmap.
    if entry >= plan.table_entries {
        return Some(Finding::trap(
            Cause::InvalidXEntry,
            site,
            format!(
                "entry {entry} out of bounds (table holds {} entries)",
                plan.table_entries
            ),
        ));
    }
    // 2. Capability: the bit must be reachable in the caller's
    //    bitmap through the grant lattice.
    let has_cap = st
        .xcall_caps
        .get(caller.thread)
        .is_some_and(|s| s.contains(&entry));
    if !has_cap {
        return Some(Finding::trap(
            Cause::InvalidXcallCap,
            site,
            format!(
                "thread {} holds no xcall-cap for entry {entry}",
                caller.thread
            ),
        ));
    }
    // 2b. Epoch: a cap granted before the entry's last revocation was
    //     cleared out of the bitmap by `revoke_entry` — the engine
    //     raises the same invalid-xcall-cap it would for a bit that
    //     never landed.
    let current = st.entry_epochs.get(&entry).copied().unwrap_or(0);
    let held = st
        .cap_epochs
        .get(caller.thread)
        .and_then(|m| m.get(&entry))
        .copied()
        .unwrap_or(0);
    if held < current {
        return Some(Finding::trap(
            Cause::InvalidXcallCap,
            site,
            format!(
                "thread {}'s xcall-cap for entry {entry} dates to epoch {held}, \
                 but revocation epoch {current} cleared it",
                caller.thread
            ),
        ));
    }
    // 3. Validity: the table slot must still be live.
    let live = plan.entries.iter().any(|e| e.id == entry && e.valid);
    if !live {
        return Some(Finding::trap(
            Cause::InvalidXEntry,
            site,
            format!("entry {entry} is registered-then-invalidated or missing"),
        ));
    }
    None
}

/// Validate every capability-checked call site of every recipe flow,
/// mirroring the engine's bounds → cap → validity order.
pub(crate) fn check(plan: &Plan, flows: &[(String, RecipeFlow)]) -> Vec<Finding> {
    let st = propagate(plan);
    let mut findings = Vec::new();
    let mut check_edge = |site: String, caller_svc: usize, callee_svc: usize| {
        if let Some(f) = check_call(plan, &st, site, caller_svc, callee_svc) {
            findings.push(f);
        }
    };
    for (name, f) in flows {
        for cs in &f.call_sites {
            check_edge(
                format!("{name}: step {} call {}→{}", cs.step, cs.caller, cs.callee),
                cs.caller,
                cs.callee,
            );
        }
    }
    // Declared service-graph edges not exercised by any recipe still
    // get a verdict — a figure may route through them later.
    let seen: HashSet<(usize, usize)> = flows
        .iter()
        .flat_map(|(_, f)| f.call_edges.iter().copied())
        .collect();
    for &(a, b) in &plan.calls {
        if !seen.contains(&(a, b)) {
            check_edge(format!("call-graph edge {a}→{b}"), a, b);
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{flow, EntryDecl, ServiceBinding};
    use simos::Step;

    fn two_service_plan() -> Plan {
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

    fn call_recipe() -> Vec<Step> {
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
        ]
    }

    #[test]
    fn missing_grant_is_invalid_xcall_cap() {
        let plan = two_service_plan();
        let flows = vec![("r".to_string(), flow(&call_recipe()))];
        let f = check(&plan, &flows);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::InvalidXcallCap));
    }

    #[test]
    fn unauthorized_granter_does_not_propagate() {
        let mut plan = two_service_plan();
        // Thread 0 never held the grant-cap for entry 1, so this grant
        // is dead and the call still lacks the capability.
        plan.grants.push(Grant::Xcall {
            granter: 0,
            grantee: 0,
            entry: 1,
        });
        let flows = vec![("r".to_string(), flow(&call_recipe()))];
        let f = check(&plan, &flows);
        assert_eq!(f[0].cause(), Some(Cause::InvalidXcallCap));
    }

    #[test]
    fn grant_cap_chain_authorizes_transitively() {
        let mut plan = two_service_plan();
        plan.threads.push(2);
        plan.services.push(ServiceBinding {
            thread: 2,
            entry: None,
        });
        // owner 1 → grant-cap to 2 → 2 grants xcall to 0.
        plan.grants.push(Grant::GrantCap {
            granter: 1,
            grantee: 2,
            entry: 1,
        });
        plan.grants.push(Grant::Xcall {
            granter: 2,
            grantee: 0,
            entry: 1,
        });
        let flows = vec![("r".to_string(), flow(&call_recipe()))];
        assert!(check(&plan, &flows).is_empty());
    }

    #[test]
    fn revoked_cap_is_stale_and_refuted() {
        let mut plan = two_service_plan();
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
        let flows = vec![("r".to_string(), flow(&call_recipe()))];
        let f = check(&plan, &flows);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::InvalidXcallCap));
        assert!(f[0].detail.contains("revocation epoch"), "{}", f[0].detail);
    }

    #[test]
    fn regrant_after_revoke_carries_the_new_epoch() {
        let mut plan = two_service_plan();
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
            Grant::Xcall {
                granter: 1,
                grantee: 0,
                entry: 1,
            },
        ];
        let flows = vec![("r".to_string(), flow(&call_recipe()))];
        assert!(check(&plan, &flows).is_empty());
    }

    #[test]
    fn unauthorized_revoke_does_not_bump_the_epoch() {
        let mut plan = two_service_plan();
        plan.grants = vec![
            Grant::Xcall {
                granter: 1,
                grantee: 0,
                entry: 1,
            },
            // Thread 0 never held the grant-cap, so this revoke is dead.
            Grant::Revoke {
                granter: 0,
                entry: 1,
            },
        ];
        let flows = vec![("r".to_string(), flow(&call_recipe()))];
        assert!(check(&plan, &flows).is_empty());
        assert!(propagate(&plan).entry_epochs.is_empty());
    }

    #[test]
    fn out_of_bounds_entry_trumps_missing_cap() {
        let mut plan = two_service_plan();
        plan.services[1].entry = Some(plan.table_entries + 976);
        let flows = vec![("r".to_string(), flow(&call_recipe()))];
        let f = check(&plan, &flows);
        assert_eq!(f[0].cause(), Some(Cause::InvalidXEntry));
    }

    #[test]
    fn invalidated_entry_is_invalid_x_entry_after_cap_passes() {
        let mut plan = two_service_plan();
        plan.grants.push(Grant::Xcall {
            granter: 1,
            grantee: 0,
            entry: 1,
        });
        plan.entries[0].valid = false;
        let flows = vec![("r".to_string(), flow(&call_recipe()))];
        let f = check(&plan, &flows);
        assert_eq!(f[0].cause(), Some(Cause::InvalidXEntry));
    }
}
