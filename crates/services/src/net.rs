//! The network stack (lwIP stand-in, §5.3): a TCP-ish protocol server in
//! front of a loopback device server.
//!
//! The paper's Figure 7(c) measures TCP throughput against the send
//! buffer size: lwIP buffers client messages and batches them, so a
//! larger buffer means fewer client→stack IPCs per byte, which helps the
//! slow baseline far more than XPC — the speedup shrinks from ~8× to ~4×
//! as the buffer grows. This model reproduces exactly those mechanics:
//! a per-`send` IPC, segmentation into MSS-sized packets, per-packet
//! protocol work, and a device hop per packet.

use simos::World;

/// TCP maximum segment size.
pub const MSS: usize = 1460;

/// Per-packet protocol processing: checksum, header build, timers, ACK
/// bookkeeping (lwIP-grade software TCP on an in-order core).
const PACKET_COMPUTE: u64 = 2000;

/// Per-send library/socket-layer cost on the client side.
const SEND_COMPUTE: u64 = 800;

/// The loopback device server: takes a packet, hands it back.
#[derive(Debug, Clone, Default)]
pub struct Loopback {
    /// Packets forwarded.
    pub packets: u64,
}

impl Loopback {
    /// Forward one packet (one pass over the payload).
    pub fn send(&mut self, w: &mut World, bytes: usize) {
        w.data_pass(bytes as u64, 10);
        self.packets += 1;
    }
}

/// One TCP connection through the stack server.
#[derive(Debug)]
pub struct TcpStack {
    dev: Loopback,
    /// Bytes delivered end to end.
    pub delivered: u64,
    /// Receive-side reassembly buffer (loopback delivers to ourselves).
    rx: Vec<u8>,
    seq: u32,
}

impl TcpStack {
    /// A fresh connection over a loopback device.
    pub fn new() -> Self {
        TcpStack {
            dev: Loopback::default(),
            delivered: 0,
            rx: Vec::new(),
            seq: 0,
        }
    }

    /// Client `send(buf)`: one client→stack IPC carrying the buffer, then
    /// segmentation; each segment pays protocol work and a stack→device
    /// IPC (the loopback reflects it straight into our receive path).
    pub fn send(&mut self, w: &mut World, buf: &[u8]) {
        // Client-side socket library, then client → network stack server.
        w.compute(SEND_COMPUTE);
        w.ipc_roundtrip(buf.len() as u64 + 64, 16);
        for seg in buf.chunks(MSS) {
            w.compute(PACKET_COMPUTE);
            // Stack → device server (header + payload), loopback reflects.
            w.ipc_roundtrip(seg.len() as u64 + 40, 16);
            self.dev.send(w, seg.len() + 40);
            // Receive path: demux + ack bookkeeping.
            w.compute(PACKET_COMPUTE / 2);
            self.rx.extend_from_slice(seg);
            self.seq = self.seq.wrapping_add(seg.len() as u32);
            self.delivered += seg.len() as u64;
        }
    }

    /// Drain received bytes (the echo client reading its own traffic).
    pub fn recv(&mut self, w: &mut World, len: usize) -> Vec<u8> {
        let take = len.min(self.rx.len());
        // Stack → client delivery.
        w.ipc_roundtrip(64, take as u64);
        self.rx.drain(..take).collect()
    }

    /// Packets the device forwarded.
    pub fn packets(&self) -> u64 {
        self.dev.packets
    }
}

impl Default for TcpStack {
    fn default() -> Self {
        Self::new()
    }
}

/// Run the Figure 7(c) workload: push `total` bytes through the stack in
/// `buf`-sized sends; returns throughput in MB/s under the world's IPC
/// mechanism.
pub fn tcp_throughput_mb_s(w: &mut World, buf: usize, total: u64) -> f64 {
    let mut tcp = TcpStack::new();
    let data = vec![0xabu8; buf];
    let mut sent = 0u64;
    let start = w.cycles;
    while sent < total {
        tcp.send(w, &data);
        sent += buf as u64;
    }
    let cycles = w.cycles - start;
    w.cost.throughput_mb_s(sent, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{CycleLedger, InvokeOpts, IpcSystem, Phase};

    struct Fixed(u64);
    impl IpcSystem for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn oneway_into(
            &mut self,
            msg_len: usize,
            _opts: &InvokeOpts,
            out: &mut CycleLedger,
        ) -> u64 {
            out.charge(Phase::Trap, self.0);
            out.charge(Phase::Transfer, msg_len as u64);
            msg_len as u64
        }
    }

    #[test]
    fn data_round_trips_through_stack() {
        let mut w = simos::World::new(Box::new(Fixed(10)));
        let mut tcp = TcpStack::new();
        let msg: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        tcp.send(&mut w, &msg);
        let got = tcp.recv(&mut w, 5000);
        assert_eq!(got, msg);
        assert_eq!(tcp.packets(), 5000_u64.div_ceil(MSS as u64));
    }

    #[test]
    fn larger_buffers_help_expensive_ipc_more() {
        // The Figure 7(c) mechanic: batching reduces IPC count, which
        // matters more when IPC is expensive.
        let mut slow_small = simos::World::new(Box::new(Fixed(8000)));
        let t_slow_small = tcp_throughput_mb_s(&mut slow_small, 256, 1 << 20);
        let mut slow_big = simos::World::new(Box::new(Fixed(8000)));
        let t_slow_big = tcp_throughput_mb_s(&mut slow_big, 4096, 1 << 20);
        let mut fast_small = simos::World::new(Box::new(Fixed(100)));
        let t_fast_small = tcp_throughput_mb_s(&mut fast_small, 256, 1 << 20);
        let mut fast_big = simos::World::new(Box::new(Fixed(100)));
        let t_fast_big = tcp_throughput_mb_s(&mut fast_big, 4096, 1 << 20);
        let slow_gain = t_slow_big / t_slow_small;
        let fast_gain = t_fast_big / t_fast_small;
        assert!(
            slow_gain > fast_gain,
            "batching must help the slow mechanism more: {slow_gain:.2} vs {fast_gain:.2}"
        );
    }
}
