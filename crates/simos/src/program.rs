//! Fused multi-hop call programs (AnyCall-style).
//!
//! A [`CallProgram`] is a bounded sequence of dependent hops — each hop
//! names a service, a request payload, optional server-side compute, and
//! whether the relay segment is handed over along the edge into it — that
//! is submitted *once* and executes server-side without returning to the
//! client between hops. The [`Recipe`] builder replaces ad-hoc
//! `Vec<Step>` construction for chains: build a program, register it
//! with [`MultiWorld::register_program`], and dispatch it with a single
//! [`Step::Fused`].
//!
//! Pricing is mechanism-specific (see `IpcSystem::fused_hop_into`): XPC
//! pays one trampoline on the first hop and a cached `xcall` per
//! continuation hop, with relay-segment handover carrying the payload
//! for free; trap baselines pay a full kernel entry per hop. The static
//! side lives in `xpc-verify::verify_program`, which refuses over-deep
//! or cap-violating programs before the bench prices them.
//!
//! [`MultiWorld::register_program`]: crate::MultiWorld::register_program
//! [`Step::Fused`]: crate::Step::Fused

use std::fmt;

/// Structural cap on hops per program. Deliberately *above* the XPC link
/// stack's architectural capacity (102 linkage records) so over-deep
/// programs are representable and it is the verifier — not the builder —
/// that refuses them, differentially against the real kernel's
/// `InvalidLinkage` fault.
pub const MAX_PROGRAM_HOPS: usize = 128;

/// Payload bytes a handover edge actually moves: a segment descriptor,
/// not the data — the relay segment carries the bytes without a copy.
pub const HANDOVER_DESC_BYTES: u64 = 16;

/// Handle to a [`CallProgram`] registered with a `MultiWorld`. `Copy` so
/// `Step::Fused(ProgramId)` keeps `Step: Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramId(pub(crate) usize);

impl ProgramId {
    /// Index into the world's program table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Build an id from a raw table index. Only meaningful for ids that
    /// came from `MultiWorld::register_program` on the same world;
    /// exposed so verifiers and tests can name programs without a world.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }
}

/// One hop of a fused program: a call into `service` carrying `request`
/// bytes, followed by `compute` cycles of server-side work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Service the hop calls into (recipe space; see `Step::Fused` for
    /// the core-space contract).
    pub service: usize,
    /// Request payload bytes carried along the edge into this hop.
    pub request: u64,
    /// Server-side compute cycles the hop performs before the next hop
    /// (or the reply) issues.
    pub compute: u64,
    /// Whether the relay segment is handed over along the edge into
    /// this hop. On handover-capable systems the payload then rides the
    /// segment and the edge moves only a [`HANDOVER_DESC_BYTES`]
    /// descriptor; others copy `request` bytes regardless.
    pub handover: bool,
}

/// A bounded, verified-before-run sequence of fused hops.
///
/// Construct through [`Recipe`]; the builder enforces shape invariants
/// (non-empty, at most [`MAX_PROGRAM_HOPS`] hops) so every constructed
/// program is safe to register and price. Architectural invariants —
/// grant caps per edge, link-stack depth, single-owner handover — are
/// the verifier's job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallProgram {
    client: usize,
    hops: Vec<Hop>,
    response: u64,
}

impl CallProgram {
    /// Service issuing the program (recipe space).
    #[must_use]
    pub fn client(&self) -> usize {
        self.client
    }

    /// The hop sequence, in execution order.
    #[must_use]
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Reply payload bytes the final hop returns to the client.
    #[must_use]
    pub(crate) fn response(&self) -> u64 {
        self.response
    }

    /// Number of hops (chain depth).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.hops.len()
    }

    /// Largest service id the program names (client or any hop), for
    /// sizing placement maps and verifier plans.
    #[must_use]
    pub(crate) fn max_service(&self) -> usize {
        self.hops
            .iter()
            .map(|h| h.service)
            .fold(self.client, usize::max)
    }
}

/// Why a [`Recipe`] could not build a [`CallProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// No hops: a program must call at least one service.
    Empty,
    /// More than [`MAX_PROGRAM_HOPS`] hops.
    TooDeep {
        /// Hops requested.
        hops: usize,
        /// The structural cap.
        max: usize,
    },
    /// `compute()` was called before any `hop()`; compute cycles attach
    /// to the most recent hop.
    ComputeBeforeHop,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "a call program needs at least one hop"),
            Self::TooDeep { hops, max } => {
                write!(f, "{hops} hops exceed the structural cap of {max}")
            }
            Self::ComputeBeforeHop => {
                write!(
                    f,
                    "compute() before any hop(); compute attaches to the latest hop"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Builder for [`CallProgram`]s.
///
/// ```
/// use simos::Recipe;
///
/// let program = Recipe::new(0)      // client is service 0
///     .hop(1, 64)                   // call service 1 with 64 request bytes
///     .compute(200)                 //   ... which computes for 200 cycles
///     .handover(2, 4096)            // hand the relay segment to service 2
///     .reply(128)                   // final hop replies 128 bytes
///     .build()
///     .unwrap();
/// assert_eq!(program.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Recipe {
    client: usize,
    hops: Vec<Hop>,
    response: u64,
    premature_compute: bool,
}

impl Recipe {
    /// Start a program issued by `client` (recipe space).
    #[must_use]
    pub fn new(client: usize) -> Self {
        Self {
            client,
            hops: Vec::new(),
            response: 0,
            premature_compute: false,
        }
    }

    /// Append a hop that *copies* `request` bytes into `service`.
    #[must_use]
    pub fn hop(mut self, service: usize, request: u64) -> Self {
        self.hops.push(Hop {
            service,
            request,
            compute: 0,
            handover: false,
        });
        self
    }

    /// Append a hop that *hands the relay segment over* to `service`
    /// (carrying `request` logical bytes without a copy on systems that
    /// support handover).
    #[must_use]
    pub fn handover(mut self, service: usize, request: u64) -> Self {
        self.hops.push(Hop {
            service,
            request,
            compute: 0,
            handover: true,
        });
        self
    }

    /// Add server-side compute cycles to the most recent hop.
    #[must_use]
    pub fn compute(mut self, cycles: u64) -> Self {
        match self.hops.last_mut() {
            Some(hop) => hop.compute += cycles,
            None => self.premature_compute = true,
        }
        self
    }

    /// Set the reply payload the final hop returns to the client.
    #[must_use]
    pub fn reply(mut self, bytes: u64) -> Self {
        self.response = bytes;
        self
    }

    /// Validate shape invariants and produce the program.
    ///
    /// # Errors
    ///
    /// [`ProgramError::Empty`] with no hops,
    /// [`ProgramError::TooDeep`] above [`MAX_PROGRAM_HOPS`], and
    /// [`ProgramError::ComputeBeforeHop`] if `compute()` preceded the
    /// first `hop()`.
    pub fn build(self) -> Result<CallProgram, ProgramError> {
        if self.premature_compute {
            return Err(ProgramError::ComputeBeforeHop);
        }
        if self.hops.is_empty() {
            return Err(ProgramError::Empty);
        }
        if self.hops.len() > MAX_PROGRAM_HOPS {
            return Err(ProgramError::TooDeep {
                hops: self.hops.len(),
                max: MAX_PROGRAM_HOPS,
            });
        }
        Ok(CallProgram {
            client: self.client,
            hops: self.hops,
            response: self.response,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_the_hop_sequence_in_order() {
        let p = Recipe::new(0)
            .hop(1, 64)
            .compute(200)
            .handover(2, 4096)
            .compute(120)
            .reply(128)
            .build()
            .unwrap();
        assert_eq!(p.client(), 0);
        assert_eq!(p.response(), 128);
        assert_eq!(p.depth(), 2);
        assert_eq!(
            p.hops()[0],
            Hop {
                service: 1,
                request: 64,
                compute: 200,
                handover: false
            }
        );
        assert_eq!(
            p.hops()[1],
            Hop {
                service: 2,
                request: 4096,
                compute: 120,
                handover: true
            }
        );
        assert_eq!(p.max_service(), 2);
    }

    #[test]
    fn compute_accumulates_on_the_latest_hop() {
        let p = Recipe::new(0)
            .hop(1, 8)
            .compute(10)
            .compute(5)
            .build()
            .unwrap();
        assert_eq!(p.hops()[0].compute, 15);
    }

    #[test]
    fn empty_program_is_refused() {
        assert_eq!(Recipe::new(0).build().unwrap_err(), ProgramError::Empty);
    }

    #[test]
    fn compute_before_any_hop_is_refused() {
        assert_eq!(
            Recipe::new(0).compute(10).hop(1, 8).build().unwrap_err(),
            ProgramError::ComputeBeforeHop
        );
    }

    #[test]
    fn structural_cap_admits_over_link_stack_depths_but_not_unbounded() {
        // Deep enough to exceed the link stack (102 records) must BUILD —
        // refusing it is the verifier's job, checked against the real
        // kernel's InvalidLinkage fault.
        let mut deep = Recipe::new(0);
        for _ in 0..MAX_PROGRAM_HOPS {
            deep = deep.hop(1, 8);
        }
        assert_eq!(deep.clone().build().unwrap().depth(), MAX_PROGRAM_HOPS);
        assert_eq!(
            deep.hop(1, 8).build().unwrap_err(),
            ProgramError::TooDeep {
                hops: MAX_PROGRAM_HOPS + 1,
                max: MAX_PROGRAM_HOPS
            }
        );
    }

    #[test]
    fn errors_render_a_reason() {
        assert!(ProgramError::Empty.to_string().contains("at least one hop"));
        assert!(ProgramError::TooDeep { hops: 9, max: 4 }
            .to_string()
            .contains("structural cap"));
        assert!(ProgramError::ComputeBeforeHop
            .to_string()
            .contains("latest hop"));
    }
}
