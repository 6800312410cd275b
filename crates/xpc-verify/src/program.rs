//! Check (e): fused call programs obey the same protocol the engine
//! enforces hop by hop at run time.
//!
//! A [`CallProgram`] executes server-side without returning to the
//! client between hops, so its protocol obligations differ from a step
//! recipe's in two ways the other passes cannot see:
//!
//! * the **whole chain** is outstanding at reply time — every hop
//!   pushed a linkage record and none popped, so the exact depth bound
//!   is the program's hop count, not a flow abstraction's worst case;
//! * the relay segment travels along **handover edges** — each
//!   handover must be issued by the segment's current owner, and
//!   ownership moves to the callee (the engine's `Revoked` transition),
//!   so a later hop of the *same* program can violate single-owner
//!   semantics that no per-plan seg-op sequence expresses.
//!
//! Per-hop capability checks reuse `caps::check_call` — the identical
//! bounds → cap bit → entry validity order `XpcEngine::exec_xcall`
//! replays — over the consecutive edges client → hop 0 → hop 1 → ….

use crate::caps;
use crate::finding::Finding;
use crate::plan::Plan;
use rv64::trap::Cause;
use simos::CallProgram;

/// Run the four program-specific checks: per-hop grant caps, bounded
/// hop count, tenant-pure linkage, single-owner handover. Empty means
/// *proved clean*.
///
/// # Panics
///
/// If the program's hop count does not fit `u64` — impossible for any
/// builder-admitted program ([`simos::MAX_PROGRAM_HOPS`] is tiny).
pub fn check_program(plan: &Plan, name: &str, program: &CallProgram) -> Vec<Finding> {
    let mut findings = Vec::new();

    // (1) Per-hop capability: every consecutive edge is an xcall whose
    // caller's bitmap must hold the callee's entry bit.
    let st = caps::propagate(plan);
    let mut caller = program.client();
    for (i, hop) in program.hops().iter().enumerate() {
        let site = format!("program {name}: hop {i} call {caller}→{}", hop.service);
        if let Some(f) = caps::check_call(plan, &st, site, caller, hop.service) {
            findings.push(f);
        }
        caller = hop.service;
    }

    // (2) Bounded hop count: fused hops never return until the reply,
    // so the chain holds exactly `depth` linkage records at its peak.
    let depth = u64::try_from(program.depth()).expect("program depth fits u64");
    if depth > plan.link_capacity_records {
        findings.push(Finding::trap(
            Cause::InvalidLinkage,
            format!("program {name}"),
            format!(
                "fused chain holds {depth} outstanding linkage records; the link stack holds {}",
                plan.link_capacity_records
            ),
        ));
    }

    // (3) Tenant flow: a fused chain never returns between hops, so the
    // reply pops the *entire* chain's linkage records at once. Every
    // record therefore belongs to whichever tenant's frame pushed it —
    // a hop that crosses tenants plants a record the eventual reply
    // (issued from the far side of the boundary) has no right to pop.
    let mut prev = program.client();
    for (i, hop) in program.hops().iter().enumerate() {
        let (from_tenant, to_tenant) = (plan.tenant(prev), plan.tenant(hop.service));
        if from_tenant != to_tenant {
            findings.push(Finding::trap(
                Cause::InvalidLinkage,
                format!("program {name}: hop {i} call {prev}→{}", hop.service),
                format!(
                    "hop crosses tenants {from_tenant}→{to_tenant}: the fused reply \
                     would pop tenant {from_tenant}'s linkage record from tenant \
                     {to_tenant}'s frame"
                ),
            ));
        }
        prev = hop.service;
    }

    // (4) Single-owner handover: the relay segment starts at the
    // client and moves only along handover edges; a handover issued by
    // a service that no longer (or never) owned the segment is exactly
    // the use-after-revoke `swapseg`/handover trap.
    let mut owner = program.client();
    let mut caller = program.client();
    for (i, hop) in program.hops().iter().enumerate() {
        if hop.handover {
            if caller == owner {
                owner = hop.service;
            } else {
                findings.push(Finding::trap(
                    Cause::SwapsegError,
                    format!("program {name}: hop {i} handover {caller}→{}", hop.service),
                    format!(
                        "service {caller} hands the relay segment over, but service {owner} owns it (handed over earlier in the chain)"
                    ),
                ));
            }
        }
        caller = hop.service;
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::Recipe;

    fn chain(depth: usize, handover: bool) -> CallProgram {
        let mut r = Recipe::new(0);
        for svc in 1..=depth {
            r = if handover {
                r.handover(svc, 256)
            } else {
                r.hop(svc, 256)
            };
        }
        r.reply(64).build().unwrap()
    }

    #[test]
    fn a_fully_granted_handover_chain_is_clean() {
        let p = chain(4, true);
        let plan = Plan::for_program(5, &p);
        assert!(check_program(&plan, "chain", &p).is_empty());
    }

    #[test]
    fn an_ungranted_hop_is_invalid_xcall_cap_at_that_hop() {
        let p = chain(3, false);
        let mut plan = Plan::for_program(4, &p);
        // Drop the grant for the 2→3 edge only.
        plan.grants
            .retain(|g| !matches!(g, crate::Grant::Xcall { entry: 3, .. }));
        let f = check_program(&plan, "chain", &p);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(rv64::trap::Cause::InvalidXcallCap));
        assert!(f[0].site.contains("hop 2"), "{}", f[0].site);
    }

    #[test]
    fn handover_after_a_skipped_edge_is_swapseg_error() {
        // client ──handover──▶ 1 ──plain──▶ 2 ──handover──▶ 3:
        // service 2 never received the segment (service 1 owns it), so
        // its handover is a use-after-revoke.
        let p = Recipe::new(0)
            .handover(1, 256)
            .hop(2, 256)
            .handover(3, 256)
            .reply(0)
            .build()
            .unwrap();
        let plan = Plan::for_program(4, &p);
        let f = check_program(&plan, "theft", &p);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(rv64::trap::Cause::SwapsegError));
        assert!(f[0].detail.contains("service 1 owns it"), "{}", f[0].detail);
    }

    #[test]
    fn cross_tenant_hop_is_invalid_linkage() {
        let p = chain(2, true);
        let mut plan = Plan::for_program(3, &p);
        // Client and hop 0 share tenant 0; hop 1 belongs to tenant 1.
        plan.tenants = vec![0, 0, 1];
        let f = check_program(&plan, "xtenant", &p);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].cause(), Some(rv64::trap::Cause::InvalidLinkage));
        assert!(f[0].site.contains("hop 1"), "{}", f[0].site);
        assert!(f[0].detail.contains("crosses tenants"), "{}", f[0].detail);
    }

    #[test]
    fn tenant_uniform_chain_stays_clean() {
        let p = chain(3, true);
        let mut plan = Plan::for_program(4, &p);
        plan.tenants = vec![2, 2, 2, 2];
        assert!(check_program(&plan, "uniform", &p).is_empty());
    }

    #[test]
    fn depth_past_the_link_stack_is_invalid_linkage() {
        let cap = usize::try_from(Plan::new().link_capacity_records).unwrap();
        let mut r = Recipe::new(0);
        for _ in 0..=cap {
            r = r.hop(1, 8);
        }
        let p = r.reply(0).build().unwrap();
        let plan = Plan::for_program(2, &p);
        let f = check_program(&plan, "deep", &p);
        assert!(f
            .iter()
            .any(|f| f.cause() == Some(rv64::trap::Cause::InvalidLinkage)));
    }
}
