//! Handover along calling chains (§4.4): message size negotiation,
//! seg-mask shrinking, and the revocation entry point.
//!
//! The three challenges §4.4 names:
//! 1. intermediate servers may *append* (network stack adding headers) —
//!    solved by negotiating a reservation up the chain;
//! 2. downstream interfaces may only accept *small pieces* (file system
//!    splitting into blocks) — solved by sliding a seg-mask window;
//! 3. a middle process may *terminate* — solved by segment revocation
//!    (implemented in [`crate::kernel::XpcKernel::terminate_process`]).

/// A node in a calling-chain description: how many bytes this server
/// appends to a message, and which servers it may call next.
#[derive(Debug, Clone)]
pub struct ChainNode {
    /// Human-readable name (for reports).
    pub name: String,
    /// Bytes this server itself appends (`S_self`).
    pub self_bytes: u64,
    /// Possible callees.
    pub callees: Vec<ChainNode>,
}

impl ChainNode {
    /// Leaf server appending `self_bytes`.
    pub fn leaf(name: &str, self_bytes: u64) -> Self {
        ChainNode {
            name: name.to_string(),
            self_bytes,
            callees: Vec::new(),
        }
    }

    /// Interior server.
    pub fn node(name: &str, self_bytes: u64, callees: Vec<ChainNode>) -> Self {
        ChainNode {
            name: name.to_string(),
            self_bytes,
            callees,
        }
    }

    /// `S_all` (§4.4): bytes this server *and any chain below it* may
    /// append — `S_self + max(S_all(callee))`.
    pub(crate) fn negotiate(&self) -> u64 {
        self.self_bytes
            + self
                .callees
                .iter()
                .map(ChainNode::negotiate)
                .max()
                .unwrap_or(0)
    }
}

/// Reservation a client should make for a payload of `payload` bytes sent
/// into `chain`: payload plus the negotiated headroom.
pub fn reserve_bytes(payload: u64, chain: &ChainNode) -> u64 {
    payload + chain.negotiate()
}

/// Plan the sliding-window transfer of §4.4's "Message Shrink": yields
/// `(offset, len)` mask windows covering `total` bytes in `piece`-sized
/// chunks (the file-system server feeding a block server one block at a
/// time).
///
/// # Panics
///
/// If `piece` is 0.
pub fn shrink_windows(total: u64, piece: u64) -> Vec<(u64, u64)> {
    assert!(piece > 0, "piece must be positive");
    let mut out = Vec::new();
    let mut off = 0;
    while off < total {
        let len = piece.min(total - off);
        out.push((off, len));
        off += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_takes_max_branch() {
        // A -> B -> [C | D] from §4.4.
        let chain = ChainNode::node(
            "B",
            16,
            vec![ChainNode::leaf("C", 100), ChainNode::leaf("D", 40)],
        );
        assert_eq!(chain.negotiate(), 116);
        assert_eq!(reserve_bytes(1000, &chain), 1116);
    }

    #[test]
    fn leaf_negotiates_self_only() {
        assert_eq!(ChainNode::leaf("disk", 0).negotiate(), 0);
        assert_eq!(ChainNode::leaf("net", 64).negotiate(), 64);
    }

    #[test]
    fn deep_chain_sums() {
        let chain = ChainNode::node(
            "a",
            1,
            vec![ChainNode::node("b", 2, vec![ChainNode::leaf("c", 3)])],
        );
        assert_eq!(chain.negotiate(), 6);
    }

    #[test]
    fn shrink_covers_exactly() {
        let w = shrink_windows(1 << 20, 4096);
        assert_eq!(w.len(), 256);
        assert_eq!(w[0], (0, 4096));
        assert_eq!(w[255], ((1 << 20) - 4096, 4096));
        let total: u64 = w.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 1 << 20);
    }

    #[test]
    fn shrink_handles_ragged_tail() {
        let w = shrink_windows(10_000, 4096);
        assert_eq!(w.last().copied(), Some((8192, 10_000 - 8192)));
    }

    #[test]
    fn shrink_empty_message() {
        assert!(shrink_windows(0, 4096).is_empty());
    }
}
