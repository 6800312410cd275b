//! The declarative **setup plan** the verifier reasons about, plus the
//! call-flow abstraction that turns a [`Step`] recipe into call edges
//! and a worst-case link-stack depth.
//!
//! A [`Plan`] is everything a deployment would do *before* serving
//! traffic — create processes/threads, register x-entries, wire
//! `grant_xcall`/`grant_grant` edges, allocate and stash relay segments
//! — written down as data instead of executed. Workload recipes stay in
//! their existing [`simos::load::Step`] vocabulary; a [`ServiceBinding`]
//! table maps recipe service ids onto the plan's threads and entries.

use simos::{CallProgram, Step};
use xpc::layout::{SEG_LIST_SLOTS, XENTRY_TABLE_ENTRIES};
use xpc_engine::layout::{LINK_RECORD_BYTES, LINK_STACK_BYTES};

/// One x-entry registration (`xpc_register_entry` in Listing 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryDecl {
    /// Index into the global x-entry table.
    pub id: u64,
    /// Thread that registers (and therefore owns) the entry; it receives
    /// the grant-cap, exactly as the kernel's `register_entry` does.
    pub owner: usize,
    /// Whether the entry is still valid at run time. `false` models an
    /// entry whose owner process died after registration (§4.2): the
    /// capability bits survive in caller bitmaps, the table slot does
    /// not.
    pub valid: bool,
}

/// One capability grant edge of the setup plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grant {
    /// `grant_xcall(granter, grantee, entry)`: sets one bit of the
    /// grantee's xcall-cap bitmap. Requires the granter to hold the
    /// grant-cap; an unauthorized grant has **no effect** (the runtime
    /// call fails with `NoGrantCap`), so a later call through it is
    /// refuted at the call site.
    Xcall {
        /// Granting thread (must hold the grant-cap).
        granter: usize,
        /// Receiving thread.
        grantee: usize,
        /// Entry being granted.
        entry: u64,
    },
    /// `grant_grant(granter, grantee, entry)`: passes the grant-cap
    /// itself onward — the transitive edge of the capability lattice.
    GrantCap {
        /// Granting thread (must hold the grant-cap).
        granter: usize,
        /// Receiving thread.
        grantee: usize,
        /// Entry whose grant-cap moves.
        entry: u64,
    },
    /// `revoke_entry(granter, entry)`: clears every outstanding
    /// xcall-cap for `entry` and opens a new **revocation epoch**.
    /// Ordering matters twice over: a cap granted *before* the revoke is
    /// stale afterwards, while a re-grant *after* the revoke carries the
    /// new epoch and is live again. Requires the granter to hold the
    /// grant-cap; an unauthorized revoke has no effect.
    Revoke {
        /// Revoking thread (must hold the grant-cap).
        granter: usize,
        /// Entry whose outstanding xcall-caps are cleared.
        entry: u64,
    },
}

/// Maps one recipe service id onto the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceBinding {
    /// The thread whose xcall-cap bitmap is live while this service
    /// executes (the handler thread; for the client, the client thread).
    pub thread: usize,
    /// The x-entry a call *into* this service goes through. `None` for
    /// the client (service 0), which is only ever called back via
    /// `xret`/reply legs that need no capability.
    pub entry: Option<u64>,
}

/// One step of the relay-segment lifecycle plan, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegOp {
    /// `alloc_relay_seg` / `alloc_relay_pt_seg`: segment `seg` of `len`
    /// bytes, owned by `owner`.
    Alloc {
        /// Plan-local segment id.
        seg: usize,
        /// Owning thread.
        owner: usize,
        /// Segment length in bytes.
        len: u64,
        /// Paged (§6.2 relay page table) — masks must be page-granular.
        paged: bool,
    },
    /// `install_seg`: make `seg` the live seg-reg of `thread`.
    Install {
        /// Installing thread (must own the segment).
        thread: usize,
        /// Segment to install.
        seg: usize,
    },
    /// `stash_seg`: park `seg` in `thread`'s process seg-list at `slot`
    /// (ownership moves to the slot).
    Stash {
        /// Stashing thread (must own the segment).
        thread: usize,
        /// Seg-list slot index.
        slot: u64,
        /// Segment to stash.
        seg: usize,
    },
    /// Guest `swapseg slot`: exchange the live seg-reg with the slot.
    Swap {
        /// Swapping thread.
        thread: usize,
        /// Seg-list slot index.
        slot: u64,
    },
    /// Guest seg-mask write: shrink the live window to
    /// `[offset, offset + len)` relative to the installed segment.
    Mask {
        /// Masking thread.
        thread: usize,
        /// Window start, relative to the live window's segment base.
        offset: u64,
        /// Window length in bytes.
        len: u64,
    },
    /// Guest zeroing pass over the live seg-reg window: scrubs the
    /// segment's bytes, moving its taint state back to `Zeroed`. This is
    /// the plan-level spelling of the zero-on-handover mitigation the
    /// runtime prices into `Phase::Scrub`.
    Zero {
        /// Zeroing thread (must have a segment installed).
        thread: usize,
    },
    /// An `xcall` handing the live segment over: the callee sees
    /// `seg ∩ mask` and the window shrinks permanently for the rest of
    /// the chain (§4.4 "Message Shrink"). Ownership moves to the callee
    /// thread; the caller's seg-reg is cleared.
    HandoverCall {
        /// Calling thread.
        thread: usize,
        /// Callee thread receiving the segment (and its shrunk window).
        to: usize,
    },
    /// `free_relay_seg`: return the frames (caller must own the seg).
    Free {
        /// Freeing thread.
        thread: usize,
        /// Segment to free.
        seg: usize,
    },
}

/// The declarative setup plan. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// x-entry table capacity (entries). Defaults to the kernel's.
    pub table_entries: u64,
    /// Link-stack capacity in linkage records. Defaults to the engine's
    /// `LINK_STACK_BYTES / LINK_RECORD_BYTES`.
    pub link_capacity_records: u64,
    /// Per-process seg-list capacity in slots.
    pub seg_list_slots: u64,
    /// Thread → process map (index = thread id).
    pub threads: Vec<usize>,
    /// x-entry registrations, in setup order.
    pub entries: Vec<EntryDecl>,
    /// Capability grants, in setup order (order matters: a grant-cap
    /// must arrive before it is exercised).
    pub grants: Vec<Grant>,
    /// Recipe service id → (thread, entry) binding.
    pub services: Vec<ServiceBinding>,
    /// The declared service call graph (the kernels-roster service
    /// graphs): an edge `(a, b)` means service `a` may call service `b`
    /// *while serving a request* — i.e. nested, holding a linkage
    /// record. Cycles here mean unbounded link-stack depth.
    pub calls: Vec<(usize, usize)>,
    /// Relay-segment lifecycle plan, in program order.
    pub seg_ops: Vec<SegOp>,
    /// Per-service tenant label (index = service id). Empty means every
    /// service belongs to one tenant — the tenant-flow check is inert
    /// and the plan behaves exactly as it did before tenants existed.
    /// Services past the end of the vector default to tenant 0.
    pub tenants: Vec<u64>,
}

impl Plan {
    /// An empty plan with the kernel's real capacities.
    pub fn new() -> Self {
        Plan {
            table_entries: XENTRY_TABLE_ENTRIES,
            link_capacity_records: LINK_STACK_BYTES / LINK_RECORD_BYTES,
            seg_list_slots: SEG_LIST_SLOTS,
            threads: Vec::new(),
            entries: Vec::new(),
            grants: Vec::new(),
            services: Vec::new(),
            calls: Vec::new(),
            seg_ops: Vec::new(),
            tenants: Vec::new(),
        }
    }

    /// The tenant a service belongs to (0 when none was declared).
    pub(crate) fn tenant(&self, service: usize) -> u64 {
        self.tenants.get(service).copied().unwrap_or(0)
    }

    /// The canonical plan the existing experiments implicitly assume for
    /// an `n_services`-service recipe set: one process + one thread per
    /// service, service `i > 0` registered as x-entry `i` by its own
    /// thread, and every *call edge* the recipes' flow analysis
    /// discovers granted caller ← owner. Service 0 is the client (no
    /// entry). This is what the pre-flight gate verifies before a
    /// figure runs.
    pub(crate) fn for_recipes(n_services: usize, recipes: &[Vec<Step>]) -> Self {
        let mut plan = Plan::new();
        plan.threads = (0..n_services).collect();
        plan.services = (0..n_services)
            .map(|i| ServiceBinding {
                thread: i,
                entry: if i == 0 { None } else { Some(i as u64) },
            })
            .collect();
        plan.entries = (1..n_services)
            .map(|i| EntryDecl {
                id: i as u64,
                owner: i,
                valid: true,
            })
            .collect();
        for recipe in recipes {
            for edge in flow(recipe).call_edges {
                if !plan.calls.contains(&edge) {
                    plan.calls.push(edge);
                }
            }
        }
        for &(caller, callee) in &plan.calls {
            if callee == 0 || callee >= n_services {
                continue;
            }
            let grant = Grant::Xcall {
                granter: callee,
                grantee: caller,
                entry: callee as u64,
            };
            if !plan.grants.contains(&grant) {
                plan.grants.push(grant);
            }
        }
        // One relay segment per recipe set, owned and installed by the
        // client — the handover chain's message buffer.
        plan.seg_ops = vec![
            SegOp::Alloc {
                seg: 0,
                owner: 0,
                len: 4096,
                paged: false,
            },
            SegOp::Install { thread: 0, seg: 0 },
        ];
        plan
    }

    /// The canonical plan a fused [`CallProgram`] implies, mirroring
    /// `Plan::for_recipes`: one process + one thread per service,
    /// service `i > 0` registered as x-entry `i`, and every consecutive
    /// program edge (client → hop 0 → hop 1 → …) granted caller ←
    /// owner. This is what [`crate::preflight_program`] verifies before
    /// the `fuse` figures run.
    pub fn for_program(n_services: usize, program: &CallProgram) -> Self {
        let mut plan = Plan::new();
        plan.threads = (0..n_services).collect();
        plan.services = (0..n_services)
            .map(|i| ServiceBinding {
                thread: i,
                entry: if i == 0 { None } else { Some(i as u64) },
            })
            .collect();
        plan.entries = (1..n_services)
            .map(|i| EntryDecl {
                id: i as u64,
                owner: i,
                valid: true,
            })
            .collect();
        let mut caller = program.client();
        for hop in program.hops() {
            let edge = (caller, hop.service);
            if !plan.calls.contains(&edge) {
                plan.calls.push(edge);
            }
            caller = hop.service;
        }
        for &(caller, callee) in &plan.calls {
            if callee == 0 || callee >= n_services {
                continue;
            }
            let grant = Grant::Xcall {
                granter: callee,
                grantee: caller,
                entry: callee as u64,
            };
            if !plan.grants.contains(&grant) {
                plan.grants.push(grant);
            }
        }
        // The program's message buffer: one relay segment, owned and
        // installed by the client, handed hop to hop.
        plan.seg_ops = vec![
            SegOp::Alloc {
                seg: 0,
                owner: 0,
                len: 4096,
                paged: false,
            },
            SegOp::Install { thread: 0, seg: 0 },
        ];
        plan
    }
}

impl Default for Plan {
    fn default() -> Self {
        Plan::new()
    }
}

/// One capability-checked call site a recipe implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Step index within the recipe.
    pub step: usize,
    /// Service whose xcall-cap bitmap is live when the call issues.
    pub caller: usize,
    /// Service being called (its entry is fetched from the table).
    pub callee: usize,
}

/// The call-flow abstraction of one recipe: which steps are *calls*
/// (push a linkage record, pay the capability check) versus *returns /
/// reply legs* (`xret`, no capability), plus the worst-case number of
/// simultaneously outstanding linkage records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecipeFlow {
    /// Distinct call edges `(caller, callee)`, in first-seen order.
    pub call_edges: Vec<(usize, usize)>,
    /// Capability-checked call sites, one per calling step.
    pub call_sites: Vec<CallSite>,
    /// Worst-case outstanding linkage records while the recipe runs.
    pub max_depth: u64,
}

/// Abstractly interpret `recipe` against the migrating-thread call
/// model: the request enters at service 0 (the client) and each
/// forward hop pushes a linkage record that the matching return pops.
///
/// Classification, mirroring how the engine executes the same sequence:
///
/// * `Oneway { from, to }` where `to` is the caller on top of the link
///   stack and `from` is the current frame — a **return** (`xret`),
///   pops;
/// * `Oneway`/`Batch` whose `to` *is* the current frame — a **reply
///   payload** riding back to the frame that is already executing (the
///   file body a cache server sends its caller): no new record;
/// * any other `Oneway` — a **call** (`xcall`): pushes a record, moves
///   the current frame to `to`;
/// * `Roundtrip`/`Batch` to another service — a call that returns
///   before the next step: one record outstanding *during* the step;
/// * `Compute`/`DataPass` — local work, no call structure;
/// * `Fused` — an opaque program id the flow abstraction cannot
///   resolve (the program body lives in a `MultiWorld` registry);
///   fused programs are verified separately by
///   [`crate::verify_program`] against their own derived plan.
pub(crate) fn flow(recipe: &[Step]) -> RecipeFlow {
    let mut stack: Vec<usize> = Vec::new();
    let mut current = 0usize;
    let mut out = RecipeFlow::default();
    let note_edge = |out: &mut RecipeFlow, step: usize, caller: usize, callee: usize| {
        if !out.call_edges.contains(&(caller, callee)) {
            out.call_edges.push((caller, callee));
        }
        out.call_sites.push(CallSite {
            step,
            caller,
            callee,
        });
    };
    for (i, step) in recipe.iter().enumerate() {
        match *step {
            Step::Oneway { from, to, .. } => {
                if stack.last() == Some(&to) && from == current {
                    stack.pop();
                    current = to;
                } else if to == current {
                    // Reply payload into the already-live frame.
                } else {
                    note_edge(&mut out, i, from, to);
                    stack.push(current);
                    current = to;
                    out.max_depth = out.max_depth.max(stack.len() as u64);
                }
            }
            Step::Roundtrip { from, to, .. } | Step::Batch { from, to, .. } => {
                if to != current {
                    note_edge(&mut out, i, from, to);
                    out.max_depth = out.max_depth.max(stack.len() as u64 + 1);
                }
            }
            Step::Compute { .. } | Step::DataPass { .. } | Step::Fused(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oneway(from: usize, to: usize) -> Step {
        Step::Oneway { from, to, bytes: 8 }
    }

    #[test]
    fn chain_flow_classifies_calls_and_returns() {
        // client → http → (cache roundtrip, reply payload) → client:
        // the shape of services::http::chain_steps.
        let recipe = vec![
            oneway(0, 1),
            Step::Compute { at: 1, cycles: 10 },
            Step::Roundtrip {
                from: 1,
                to: 2,
                request: 8,
                response: 0,
            },
            oneway(2, 1), // reply payload into the live http frame
            oneway(1, 0), // return to the client
        ];
        let f = flow(&recipe);
        assert_eq!(f.call_edges, vec![(0, 1), (1, 2)]);
        assert_eq!(f.max_depth, 2, "http frame + transient cache roundtrip");
        assert_eq!(f.call_sites.len(), 2);
    }

    #[test]
    fn batch_reply_to_the_live_frame_is_not_a_call() {
        let recipe = vec![
            Step::Batch {
                from: 0,
                to: 1,
                calls: 8,
                bytes_each: 64,
            },
            Step::Batch {
                from: 1,
                to: 0,
                calls: 8,
                bytes_each: 64,
            },
        ];
        let f = flow(&recipe);
        assert_eq!(f.call_edges, vec![(0, 1)]);
        assert_eq!(f.max_depth, 1);
    }

    #[test]
    fn nested_oneways_deepen_the_stack() {
        let recipe = vec![oneway(0, 1), oneway(1, 2), oneway(2, 3)];
        assert_eq!(flow(&recipe).max_depth, 3);
    }

    #[test]
    fn for_recipes_grants_every_call_edge_from_the_owner() {
        let recipes = vec![vec![
            oneway(0, 1),
            Step::Roundtrip {
                from: 1,
                to: 2,
                request: 4,
                response: 4,
            },
            oneway(1, 0),
        ]];
        let plan = Plan::for_recipes(3, &recipes);
        assert_eq!(plan.entries.len(), 2);
        assert!(plan.grants.contains(&Grant::Xcall {
            granter: 1,
            grantee: 0,
            entry: 1
        }));
        assert!(plan.grants.contains(&Grant::Xcall {
            granter: 2,
            grantee: 1,
            entry: 2
        }));
        assert_eq!(plan.calls, vec![(0, 1), (1, 2)]);
    }
}
