//! The Zircon IPC model: channel-based message passing with kernel
//! twofold copy and an unoptimized scheduling path.
//!
//! §1/§5.2: Zircon's asynchronous channels simulate synchronous file
//! system semantics, costing "tens of thousands of cycles" per round trip;
//! Zircon-XPC sees ~60× at small message sizes, which calibrates the
//! one-way base to ~8000 cycles on the U500 model.

use simos::cost::CostModel;
use simos::ipc::IpcSystem;
use simos::ledger::{CycleLedger, InvokeOpts, Phase};
use std::collections::VecDeque;

/// The Zircon model.
#[derive(Debug, Clone)]
pub struct Zircon {
    cost: CostModel,
    cross_core: bool,
}

impl Zircon {
    /// Same-core Zircon.
    pub fn new() -> Self {
        Zircon {
            cost: CostModel::u500(),
            cross_core: false,
        }
    }

    /// Cross-core Zircon (adds IPI + remote wakeup).
    pub fn cross_core() -> Self {
        Zircon {
            cross_core: true,
            ..Self::new()
        }
    }
}

impl Default for Zircon {
    fn default() -> Self {
        Self::new()
    }
}

impl IpcSystem for Zircon {
    fn name(&self) -> String {
        if self.cross_core {
            "Zircon+xcore".to_string()
        } else {
            "Zircon".to_string()
        }
    }

    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let bytes = msg_len as u64;
        let c = &self.cost;
        // Channel write syscall + wait + scheduler + channel read syscall,
        // with the kernel copying the message twice (user→kernel→user).
        // The one-way base splits into two syscall entries/exits plus the
        // wait-queue/scheduler remainder.
        let kernel_entries = 2 * (c.trap + c.ipc_logic + c.restore);
        out.charge(Phase::Trap, 2 * c.trap);
        out.charge(Phase::IpcLogic, 2 * c.ipc_logic);
        out.charge(Phase::Restore, 2 * c.restore);
        out.charge(
            Phase::Schedule,
            c.zircon_oneway_base.saturating_sub(kernel_entries),
        );
        out.charge(Phase::Transfer, c.copy_cycles(bytes).saturating_mul(2));
        if self.cross_core {
            out.charge(Phase::CrossCore, c.cross_core_base);
        }
        // Software-equivalent temporal mitigations in the kernel path.
        self.cost.charge_hardening(false, msg_len, opts, out);
        bytes.saturating_mul(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::oneway;
    use simos::ledger::Invocation;

    #[test]
    fn round_trip_is_tens_of_thousands() {
        // §1: "Zircon costs tens of thousands of cycles for one
        // round-trip IPC".
        let mut z = Zircon::new();
        let rt = Invocation::priced(|l| {
            z.oneway_into(64, &InvokeOpts::call(), l)
                + z.oneway_into(64, &InvokeOpts::reply_leg(), l)
        })
        .total;
        assert!((10_000..100_000).contains(&rt), "round trip: {rt}");
    }

    #[test]
    fn twofold_copy_counted() {
        let mut z = Zircon::new();
        assert_eq!(oneway(&mut z, 1000, &InvokeOpts::call()).copied_bytes, 2000);
    }

    #[test]
    fn slower_than_sel4() {
        // §5.2: Zircon "much slower than seL4".
        let z = oneway(&mut Zircon::new(), 0, &InvokeOpts::call()).total;
        let s = oneway(
            &mut crate::sel4::Sel4::new(crate::sel4::Sel4Transfer::OneCopy),
            0,
            &InvokeOpts::call(),
        )
        .total;
        assert!(z > 5 * s);
    }

    #[test]
    fn ledger_preserves_the_calibrated_base() {
        let inv = oneway(&mut Zircon::new(), 0, &InvokeOpts::call());
        assert_eq!(inv.total, CostModel::u500().zircon_oneway_base);
        assert_eq!(inv.total, inv.ledger.total());
        // The scheduler/wait-queue remainder dominates Zircon's cost.
        assert!(inv.ledger.get(Phase::Schedule) > inv.total / 2);
    }
}

/// Errors from [`Channel`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The peer endpoint was closed.
    PeerClosed,
    /// Nothing queued (`read` would block; Zircon returns SHOULD_WAIT).
    ShouldWait,
    /// Message exceeds the channel's maximum (Zircon: 64 KiB).
    TooBig,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::PeerClosed => write!(f, "peer closed"),
            ChannelError::ShouldWait => write!(f, "should wait"),
            ChannelError::TooBig => write!(f, "message too big"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Zircon's maximum channel message size.
pub const MAX_MSG_BYTES: usize = 64 * 1024;

/// One end-pair of a Zircon channel, with real queue semantics: the
/// structural substrate behind this model's costs. §1's observation —
/// Zircon "uses the asynchronous IPC to simulate the synchronous
/// semantics of the file system interfaces" — is [`Channel::call`]:
/// write + wait + read, two scheduler hops per round trip.
#[derive(Debug, Default)]
pub struct Channel {
    /// Messages travelling a -> b.
    to_b: VecDeque<Vec<u8>>,
    /// Messages travelling b -> a.
    to_a: VecDeque<Vec<u8>>,
    /// Whether endpoint B was closed.
    pub b_closed: bool,
}

impl Channel {
    /// A fresh channel pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Endpoint A writes; the kernel copies the message in (first of the
    /// twofold copies).
    ///
    /// # Errors
    ///
    /// [`ChannelError`] on closed peer or oversized message.
    pub fn write_a(&mut self, w: &mut simos::World, msg: &[u8]) -> Result<(), ChannelError> {
        if self.b_closed {
            return Err(ChannelError::PeerClosed);
        }
        if msg.len() > MAX_MSG_BYTES {
            return Err(ChannelError::TooBig);
        }
        // Syscall entry + handle check + copy into the kernel.
        w.compute(CostModel::u500().zircon_oneway_base / 2);
        w.data_pass(msg.len() as u64, 10);
        self.to_b.push_back(msg.to_vec());
        Ok(())
    }

    /// Endpoint B reads; the kernel copies the message out (second copy).
    ///
    /// # Errors
    ///
    /// [`ChannelError::ShouldWait`] when nothing is queued.
    pub fn read_b(&mut self, w: &mut simos::World) -> Result<Vec<u8>, ChannelError> {
        let msg = self.to_b.pop_front().ok_or(ChannelError::ShouldWait)?;
        w.compute(CostModel::u500().zircon_oneway_base / 2);
        w.data_pass(msg.len() as u64, 10);
        Ok(msg)
    }

    /// Endpoint B replies.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TooBig`] on oversized replies.
    pub fn write_b(&mut self, w: &mut simos::World, msg: &[u8]) -> Result<(), ChannelError> {
        if msg.len() > MAX_MSG_BYTES {
            return Err(ChannelError::TooBig);
        }
        w.compute(CostModel::u500().zircon_oneway_base / 2);
        w.data_pass(msg.len() as u64, 10);
        self.to_a.push_back(msg.to_vec());
        Ok(())
    }

    /// The synchronous-over-asynchronous emulation: A writes the request,
    /// the server (a closure standing in for the B-side process) consumes
    /// it and replies, A waits and reads — the "tens of thousands of
    /// cycles per round trip" pattern.
    ///
    /// # Errors
    ///
    /// Propagates channel errors from either side.
    pub fn call(
        &mut self,
        w: &mut simos::World,
        request: &[u8],
        server: impl FnOnce(&mut simos::World, Vec<u8>) -> Vec<u8>,
    ) -> Result<Vec<u8>, ChannelError> {
        self.write_a(w, request)?;
        // A blocks: scheduler switches to B.
        w.compute(CostModel::u500().schedule);
        let req = self.read_b(w)?;
        let reply = server(w, req);
        self.write_b(w, &reply)?;
        // B yields: scheduler switches back to A, which reads.
        w.compute(CostModel::u500().schedule);
        let msg = self.to_a.pop_front().ok_or(ChannelError::ShouldWait)?;
        w.data_pass(msg.len() as u64, 10);
        Ok(msg)
    }

    /// Close endpoint B (server died); queued a->b messages are dropped.
    pub fn close_b(&mut self) {
        self.b_closed = true;
        self.to_b.clear();
    }
}

#[cfg(test)]
mod channel_tests {
    use super::*;

    struct Free;
    impl IpcSystem for Free {
        fn name(&self) -> String {
            "free".into()
        }
        fn oneway_into(&mut self, _len: usize, _opts: &InvokeOpts, _out: &mut CycleLedger) -> u64 {
            0
        }
    }

    fn world() -> simos::World {
        simos::World::new(Box::new(Free))
    }

    #[test]
    fn messages_are_fifo() {
        let mut w = world();
        let mut ch = Channel::new();
        ch.write_a(&mut w, b"one").unwrap();
        ch.write_a(&mut w, b"two").unwrap();
        assert_eq!(ch.read_b(&mut w).unwrap(), b"one");
        assert_eq!(ch.read_b(&mut w).unwrap(), b"two");
        assert_eq!(ch.read_b(&mut w), Err(ChannelError::ShouldWait));
    }

    #[test]
    fn call_round_trips_and_costs_tens_of_thousands() {
        let mut w = world();
        let mut ch = Channel::new();
        let before = w.cycles;
        let reply = ch
            .call(&mut w, b"ping", |_, req| {
                assert_eq!(req, b"ping");
                b"pong".to_vec()
            })
            .unwrap();
        assert_eq!(reply, b"pong");
        let cost = w.cycles - before;
        assert!(
            (10_000..100_000).contains(&cost),
            "sync-over-async round trip: {cost} cycles"
        );
    }

    #[test]
    fn closed_peer_rejects_writes() {
        let mut w = world();
        let mut ch = Channel::new();
        ch.write_a(&mut w, b"lost").unwrap();
        ch.close_b();
        assert_eq!(ch.write_a(&mut w, b"x"), Err(ChannelError::PeerClosed));
        assert_eq!(ch.read_b(&mut w), Err(ChannelError::ShouldWait));
    }

    #[test]
    fn oversized_messages_rejected() {
        let mut w = world();
        let mut ch = Channel::new();
        let big = vec![0u8; MAX_MSG_BYTES + 1];
        assert_eq!(ch.write_a(&mut w, &big), Err(ChannelError::TooBig));
    }
}
