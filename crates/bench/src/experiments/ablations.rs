//! **Ablations** — the design-choice sweeps DESIGN.md calls out, beyond
//! the paper's own figures: message-transport family (Figure 10),
//! xcall-cap representation (§6.2), caller-context convention, and the
//! relay page table (§6.2) versus the contiguous relay segment, the last
//! one measured on the emulator.

use super::{Column, Experiment, Layout};
use crate::harness::{CallBench, CallBenchConfig};
use crate::json::Value;
use kernels::XpcIpc;
use rv64::{reg, Assembler};
use simos::cost::CostModel;
use simos::ipc::{EngineCacheStats, IpcSystem};
use simos::ledger::{CycleLedger, InvokeOpts};
use simos::transport::Transport;
use xpc::kernel::{syscall, KernelEvent, XpcKernel, XpcKernelConfig};
use xpc::layout::USER_CODE_VA;
use xpc::trampoline::ContextMode;
use xpc_engine::cap::{BitmapCaps, CapStore, RadixCaps};

/// Transport family: cycles to move 1 MiB over a 4-hop chain.
pub(crate) fn transport_rows() -> Vec<(String, u64, bool, bool)> {
    let cost = CostModel::u500();
    Transport::ALL
        .iter()
        .map(|t| {
            (
                t.name().to_string(),
                t.transfer_cycles(&cost, 1 << 20, 4),
                t.tocttou_safe(),
                t.supports_handover(),
            )
        })
        .collect()
}

/// Capability stores: probe cost (words) and footprint for a sparse
/// grant set over a 2^20 ID space.
pub(crate) fn cap_rows() -> Vec<(String, u64, usize)> {
    let mut bitmap = BitmapCaps::new(1 << 20);
    let mut radix = RadixCaps::new();
    for id in (0..1u64 << 20).step_by(4099) {
        bitmap.grant(id);
        radix.grant(id);
    }
    vec![
        (
            "bitmap".into(),
            bitmap.probe(4099).words_touched,
            bitmap.footprint_bytes(),
        ),
        (
            "radix".into(),
            radix.probe(4099).words_touched,
            radix.footprint_bytes(),
        ),
    ]
}

/// Caller context convention: measured wrapped-call cycles.
pub(crate) fn context_rows() -> Vec<(String, u64)> {
    [ContextMode::Full, ContextMode::Partial]
        .into_iter()
        .map(|mode| {
            let mut cfg = CallBenchConfig::paper_default();
            cfg.context = mode;
            let mut b = CallBench::new(&cfg);
            (format!("{mode:?}"), b.measure(3).roundtrip)
        })
        .collect()
}

/// Relay segment vs relay page table: guest loop summing 512 bytes
/// through each window, measured on the emulator.
pub(crate) fn relay_pt_rows() -> Vec<(String, u64)> {
    fn run_sum(paged: bool) -> u64 {
        let mut k = XpcKernel::boot(XpcKernelConfig::default());
        let pa = k.create_process().expect("process");
        let client = k.create_thread(pa).expect("thread");
        let seg = if paged {
            k.alloc_relay_pt_seg(client, 1).expect("paged seg")
        } else {
            k.alloc_relay_seg(client, 4096).expect("seg")
        };
        k.install_seg(client, seg).expect("install");
        let seg_va = k.segs.seg_reg(seg).va_base;
        let mut c = Assembler::new(USER_CODE_VA);
        c.li(reg::T1, seg_va as i64);
        c.li(reg::T2, 512);
        c.li(reg::A0, 0);
        c.label("sum");
        c.lbu(reg::T3, reg::T1, 0);
        c.add(reg::A0, reg::A0, reg::T3);
        c.addi(reg::T1, reg::T1, 1);
        c.addi(reg::T2, reg::T2, -1);
        c.bne(reg::T2, reg::ZERO, "sum");
        c.li(reg::A7, syscall::EXIT as i64);
        c.ecall();
        let va = k.load_code(pa, &c.assemble()).expect("code");
        k.enter_thread(client, va, &[]).expect("enter");
        let before = k.machine.core.cycles;
        let ev = k.run(1_000_000).expect("run");
        assert_eq!(ev, KernelEvent::ThreadExit(0));
        k.machine.core.cycles - before
    }
    vec![
        ("relay-seg (contiguous)".into(), run_sum(false)),
        ("relay page table (§6.2)".into(), run_sum(true)),
    ]
}

/// Engine-cache efficacy under batching: per-call cycles and cache
/// counters for 64 B bursts through the cost-model `XpcIpc` (first call
/// fetches the x-entry, repeats pay the cached `xcall`).
pub(crate) fn engine_batch_rows() -> Vec<(u64, f64, EngineCacheStats)> {
    [1u64, 8, 64]
        .into_iter()
        .map(|n| {
            let mut x = XpcIpc::sel4_xpc();
            let mut ledger = CycleLedger::new();
            x.invoke_batch_into(n, 64, &InvokeOpts::call(), &mut ledger);
            (n, ledger.total() as f64 / n as f64, x.stats)
        })
        .collect()
}

/// The ablation experiment: every row group of the table.
pub struct Ablations;

/// What the ablation table shows, one field per row group.
#[derive(Debug, Clone)]
pub struct AblationRows {
    /// `transport_rows`.
    pub transports: Vec<(String, u64, bool, bool)>,
    /// `cap_rows`.
    pub caps: Vec<(String, u64, usize)>,
    /// `context_rows`.
    pub contexts: Vec<(String, u64)>,
    /// `relay_pt_rows`.
    pub relay: Vec<(String, u64)>,
    /// `engine_batch_rows`.
    pub engine_batch: Vec<(u64, f64, EngineCacheStats)>,
}

impl Experiment for Ablations {
    type Grid = AblationRows;

    fn compute() -> Self::Grid {
        AblationRows {
            transports: transport_rows(),
            caps: cap_rows(),
            contexts: context_rows(),
            relay: relay_pt_rows(),
            engine_batch: engine_batch_rows(),
        }
    }

    /// Every row group; the committed section holds the engine-cache
    /// group, surfaced as counters rather than inferred from totals.
    fn json(grid: &Self::Grid) -> Value {
        Value::Object(vec![
            (
                "transports",
                super::cell_json(&TRANSPORTS, &grid.transports),
            ),
            ("caps", super::cell_json(&CAPS, &grid.caps)),
            ("contexts", super::cell_json(&CONTEXTS, &grid.contexts)),
            ("relay", super::cell_json(&RELAY, &grid.relay)),
            (
                "engine_cache_batching",
                super::cell_json(&ENGINE, &grid.engine_batch),
            ),
        ])
    }

    fn layout() -> Layout {
        let caption =
            "Design-choice sweeps (transport family, cap stores, context modes, relay page table)";
        Layout::new("Ablations", caption, &["Variant", "Cost", "", ""])
            .banner("-- transports: 1MiB over 4 hops --")
            .cells("transports", &TRANSPORTS)
            .banner("-- xcall-cap stores (sparse 2^20 IDs) --")
            .cells("caps", &CAPS)
            .banner("-- caller context convention --")
            .cells("contexts", &CONTEXTS)
            .banner("-- 512B guest read through the window --")
            .cells("relay", &RELAY)
            .banner("-- engine cache under batching (64B bursts) --")
            .cells("engine_cache_batching", &ENGINE)
    }
}

/// The columns of each row group (the table's headers are its own).
#[rustfmt::skip]
const TRANSPORTS: [Column<(String, u64, bool, bool)>; 4] = [
    ("", "name", |t| t.0.as_str().into(), "{name}"),
    ("", "cycles", |t| t.1.into(), "{cycles} cycles"),
    ("", "tocttou_safe", |t| t.2.into(), "tocttou-safe: {tocttou_safe}"),
    ("", "handover", |t| t.3.into(), "handover: {handover}"),
];

#[rustfmt::skip]
const CAPS: [Column<(String, u64, usize)>; 3] = [
    ("", "name", |c| c.0.as_str().into(), "{name}"),
    ("", "words_per_probe", |c| c.1.into(), "{words_per_probe} words/probe"),
    ("", "footprint_bytes", |c| c.2.into(), "{footprint_bytes} B footprint"),
];

#[rustfmt::skip]
const CONTEXTS: [Column<(String, u64)>; 2] = [
    ("", "name", |c| c.0.as_str().into(), "{name}"),
    ("", "cycles", |c| c.1.into(), "{cycles} cycles/call"),
];

#[rustfmt::skip]
const RELAY: [Column<(String, u64)>; 2] = [
    ("", "name", |c| c.0.as_str().into(), "{name}"),
    ("", "cycles", |c| c.1.into(), "{cycles} cycles"),
];

#[rustfmt::skip]
const ENGINE: [Column<(u64, f64, EngineCacheStats)>; 4] = [
    ("", "batch", |e| e.0.into(), "batch {batch}"),
    ("", "per_call_cycles", |e| Value::Fixed(e.1, 1), "{per_call_cycles} cycles/call"),
    ("", "prefetches", |e| e.2.prefetches.into(), "prefetches: {prefetches}"),
    ("", "cache_hits", |e| e.2.cache_hits.into(), "cache hits: {cache_hits}"),
];

/// The `"ablations"` section of `BENCH_figures.json`.
pub fn json_section() -> String {
    super::section("ablations").render(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_cache_rows_amortize_toward_the_cached_xcall() {
        let rows = engine_batch_rows();
        // Per-call cost strictly drops with batch size...
        assert!(rows[1].1 < rows[0].1);
        assert!(rows[2].1 < rows[1].1);
        // ...toward the repeat cost (cached xcall 6 + TLB refill 40 = 46)
        // and the counters show why: one prefetch per burst, every
        // repeat a hit.
        assert!(rows[2].1 >= 46.0);
        assert_eq!(rows[0].2, EngineCacheStats::default());
        assert_eq!(rows[2].2.prefetches, 1);
        assert_eq!(rows[2].2.cache_hits, 63);
    }

    #[test]
    fn relay_pt_costs_more_but_same_order() {
        let rows = relay_pt_rows();
        let contiguous = rows[0].1;
        let paged = rows[1].1;
        assert!(paged > contiguous);
        assert!(paged < 4 * contiguous);
    }

    #[test]
    fn bitmap_probes_fewer_words_radix_uses_less_memory() {
        let rows = cap_rows();
        let (bw, bb) = (rows[0].1, rows[0].2);
        let (rw, rb) = (rows[1].1, rows[1].2);
        assert!(bw < rw, "bitmap probe is cheaper");
        assert!(rb < bb, "radix footprint is smaller when sparse");
    }

    #[test]
    fn full_context_costs_more_than_partial() {
        let rows = context_rows();
        assert!(rows[0].1 > rows[1].1);
    }
}
