//! Check (b): worst-case call-chain depth fits the link stack, and no
//! return pops another tenant's linkage record.
//!
//! Two complementary depth bounds. The *recipe* bound is exact: the
//! flow abstraction replays each `Step` sequence and counts outstanding
//! linkage records. The *graph* bound is conservative: over the
//! declared service call graph, a cycle means a request can re-enter a
//! service it is already serving — the engine pushes a fresh 80-byte
//! linkage record per hop, so depth is unbounded and the stack
//! overflows into `InvalidLinkage` no matter its size; an acyclic graph
//! is bounded by its longest path, which must fit the configured record
//! capacity.
//!
//! The **tenant-flow** check (`check_tenants`) labels every pushed
//! linkage record with the tenant of the frame that pushed it
//! ([`Plan::tenants`]) and replays each recipe against the link stack.
//! A *skip-level return* — an `Oneway` back to a service whose record
//! sits below the top of the stack — pops through every record above
//! it; if any popped-through record belongs to a different tenant, the
//! return discards that tenant's linkage state, which the engine
//! refuses as `InvalidLinkage` (the orphaned records unwind to a bare
//! `xret` on an empty stack). Plans that declare no tenants (or one
//! tenant) are unaffected.

use crate::finding::Finding;
use crate::plan::{Plan, RecipeFlow};
use rv64::trap::Cause;
use simos::Step;

/// Longest-path / cycle analysis over `plan.calls`, plus the exact
/// per-recipe depth bound.
pub(crate) fn check(plan: &Plan, flows: &[(String, RecipeFlow)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, f) in flows {
        if f.max_depth > plan.link_capacity_records {
            findings.push(Finding::trap(
                Cause::InvalidLinkage,
                format!("recipe {name}"),
                format!(
                    "needs {} outstanding linkage records; the link stack holds {}",
                    f.max_depth, plan.link_capacity_records
                ),
            ));
        }
    }
    let n = plan.services.len().max(
        plan.calls
            .iter()
            .map(|&(a, b)| a.max(b) + 1)
            .max()
            .unwrap_or(0),
    );
    match longest_path(n, &plan.calls) {
        GraphDepth::Cyclic(cycle) => {
            let path = cycle
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join("→");
            findings.push(Finding::trap(
                Cause::InvalidLinkage,
                "service call graph",
                format!("cycle {path} makes link-stack depth unbounded"),
            ));
        }
        GraphDepth::Bounded(depth) => {
            if depth > plan.link_capacity_records {
                findings.push(Finding::trap(
                    Cause::InvalidLinkage,
                    "service call graph",
                    format!(
                        "longest call chain is {depth} records; the link stack holds {}",
                        plan.link_capacity_records
                    ),
                ));
            }
        }
    }
    findings
}

/// Replay each recipe against a tenant-labeled link stack and refute
/// every return that would pop another tenant's linkage record. See the
/// module docs for the exact rule.
pub(crate) fn check_tenants(plan: &Plan, recipes: &[(String, Vec<Step>)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, recipe) in recipes {
        // Suspended frames whose linkage records sit on the stack,
        // bottom to top.
        let mut stack: Vec<usize> = Vec::new();
        let mut current = 0usize;
        for (i, step) in recipe.iter().enumerate() {
            let Step::Oneway { from, to, .. } = *step else {
                continue;
            };
            if stack.last() == Some(&to) && from == current {
                // Well-nested return: pops the caller's own record.
                stack.pop();
                current = to;
            } else if to == current {
                // Reply payload into the already-live frame.
            } else if let Some(pos) = stack.iter().rposition(|&s| s == to) {
                // Skip-level return: resuming `to` pops every record
                // above its own. Records pushed by a different tenant
                // may not be discarded by this tenant's return.
                let crossed: Vec<usize> = stack[pos + 1..]
                    .iter()
                    .copied()
                    .filter(|&s| plan.tenant(s) != plan.tenant(to))
                    .collect();
                if let Some(&victim) = crossed.first() {
                    findings.push(Finding::trap(
                        Cause::InvalidLinkage,
                        format!("{name}: step {i} return {from}→{to}"),
                        format!(
                            "return pops through tenant {}'s linkage record \
                             (service {victim}) while resuming tenant {}'s frame",
                            plan.tenant(victim),
                            plan.tenant(to)
                        ),
                    ));
                }
                stack.truncate(pos);
                current = to;
            } else {
                // A call: pushes the current frame's record.
                stack.push(current);
                current = to;
            }
        }
    }
    findings
}

/// Result of the call-graph depth analysis.
enum GraphDepth {
    /// A cycle exists; the vertices of one witness cycle.
    Cyclic(Vec<usize>),
    /// Acyclic: the longest path, counted in edges (= linkage records).
    Bounded(u64),
}

/// Iterative DFS with colors; memoizes longest path from each vertex.
fn longest_path(n: usize, edges: &[(usize, usize)]) -> GraphDepth {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    let mut best = vec![0u64; n];
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        // Stack of (vertex, next child index).
        let mut stack = vec![(root, 0usize)];
        color[root] = 1;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let w = adj[v][*next];
                *next += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => {
                        // Back edge: extract the witness cycle from the
                        // DFS stack.
                        let start = stack.iter().position(|&(x, _)| x == w).unwrap_or(0);
                        let mut cycle: Vec<usize> =
                            stack[start..].iter().map(|&(x, _)| x).collect();
                        cycle.push(w);
                        return GraphDepth::Cyclic(cycle);
                    }
                    _ => {
                        best[v] = best[v].max(best[w] + 1);
                    }
                }
            } else {
                color[v] = 2;
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    best[p] = best[p].max(best[v] + 1);
                }
            }
        }
    }
    GraphDepth::Bounded(best.into_iter().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::flow;
    use simos::Step;

    #[test]
    fn self_recursive_entry_is_flagged_cyclic() {
        let mut plan = Plan::new();
        plan.calls = vec![(1, 1)];
        let f = check(&plan, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::InvalidLinkage));
        assert!(f[0].detail.contains("cycle"));
    }

    #[test]
    fn mutual_recursion_is_flagged_cyclic() {
        let mut plan = Plan::new();
        plan.calls = vec![(0, 1), (1, 2), (2, 1)];
        let f = check(&plan, &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("cycle"));
    }

    #[test]
    fn acyclic_chain_within_capacity_is_clean() {
        let mut plan = Plan::new();
        plan.calls = vec![(0, 1), (1, 2), (2, 3)];
        assert!(check(&plan, &[]).is_empty());
    }

    #[test]
    fn long_acyclic_chain_past_capacity_is_flagged() {
        let mut plan = Plan::new();
        let cap = plan.link_capacity_records as usize;
        plan.calls = (0..=cap).map(|i| (i, i + 1)).collect();
        let f = check(&plan, &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("longest call chain"));
    }

    fn skip_return_recipe() -> Vec<(String, Vec<Step>)> {
        vec![(
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
                // Returns straight to the client, popping through the
                // record service 1 pushed.
                Step::Oneway {
                    from: 2,
                    to: 0,
                    bytes: 8,
                },
            ],
        )]
    }

    #[test]
    fn cross_tenant_skip_return_is_invalid_linkage() {
        let mut plan = Plan::new();
        plan.threads = vec![0, 1, 2];
        plan.tenants = vec![0, 1, 0];
        let f = check_tenants(&plan, &skip_return_recipe());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].cause(), Some(Cause::InvalidLinkage));
        assert!(f[0].detail.contains("tenant 1"), "{}", f[0].detail);
        assert!(f[0].site.contains("step 2"), "{}", f[0].site);
    }

    #[test]
    fn undeclared_tenants_make_the_check_inert() {
        let mut plan = Plan::new();
        plan.threads = vec![0, 1, 2];
        assert!(check_tenants(&plan, &skip_return_recipe()).is_empty());
    }

    #[test]
    fn same_tenant_skip_return_is_clean() {
        let mut plan = Plan::new();
        plan.threads = vec![0, 1, 2];
        plan.tenants = vec![3, 3, 3];
        assert!(check_tenants(&plan, &skip_return_recipe()).is_empty());
    }

    #[test]
    fn well_nested_cross_tenant_returns_are_clean() {
        let mut plan = Plan::new();
        plan.threads = vec![0, 1, 2];
        plan.tenants = vec![0, 1, 2];
        let recipe = vec![
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
                to: 1,
                bytes: 8,
            },
            Step::Oneway {
                from: 1,
                to: 0,
                bytes: 8,
            },
        ];
        let recipes = vec![("nested".to_string(), recipe)];
        assert!(check_tenants(&plan, &recipes).is_empty());
    }

    #[test]
    fn recipe_deeper_than_the_stack_is_flagged() {
        let mut plan = Plan::new();
        plan.link_capacity_records = 2;
        let recipe = vec![
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
        ];
        let flows = vec![("deep".to_string(), flow(&recipe))];
        let f = check(&plan, &flows);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cause(), Some(Cause::InvalidLinkage));
        assert!(f[0].site.contains("deep"));
    }
}
