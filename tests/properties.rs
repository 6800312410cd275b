//! Property-based tests on the core data structures and invariants.
//!
//! Gated behind the off-by-default `proptest` feature: enabling it
//! requires adding the external `proptest` crate back to this package's
//! dev-dependencies (kept out of the graph by the offline build policy).
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use xpc_repro::services::aes::Aes128;
use xpc_repro::services::fs::Xv6Fs;
use xpc_repro::simos::ipc::IpcSystem;
use xpc_repro::simos::ledger::{CycleLedger, InvokeOpts, Phase};
use xpc_repro::xpc::handover::shrink_windows;
use xpc_repro::xpc::layout::{RELAY_REGION_LEN, RELAY_REGION_VA};
use xpc_repro::xpc::palloc::FrameAlloc;
use xpc_repro::xpc::seg::{SegOwner, SegRegistry};
use xpc_repro::xpc_engine::{SegMask, SegReg};

struct FreeIpc;
impl IpcSystem for FreeIpc {
    fn name(&self) -> String {
        "free".into()
    }
    fn oneway_into(&mut self, _len: usize, _opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        out.charge(Phase::Trap, 1);
        0
    }
}

fn world() -> xpc_repro::simos::World {
    xpc_repro::simos::World::new(Box::new(FreeIpc))
}

proptest! {
    /// The seg-mask intersection never escapes the parent segment — the
    /// §3.3 safety property behind handover.
    #[test]
    fn masked_segment_stays_inside_parent(
        base in 0u64..1 << 40,
        len in 1u64..1 << 20,
        moff in 0u64..1 << 20,
        mlen in 0u64..1 << 20,
    ) {
        let seg = SegReg { va_base: base, pa_base: 0x8000_0000, len, writable: true, paged: false };
        let mask = SegMask { va_base: base + moff, len: mlen };
        if mask.within(&seg) {
            let m = seg.masked(mask);
            prop_assert!(m.va_base >= seg.va_base);
            prop_assert!(m.va_base + m.len <= seg.va_base + seg.len);
            // Translation consistency: same VA maps to same PA.
            if m.len > 0 {
                let delta = m.va_base - seg.va_base;
                prop_assert_eq!(m.pa_base, seg.pa_base + delta);
            }
        }
    }

    /// Random allocate/transfer/free sequences never violate the
    /// registry invariants (no overlap, window containment).
    #[test]
    fn seg_registry_invariants_hold(ops in prop::collection::vec((0u8..3, 0u64..8, 1u64..20_000), 1..60)) {
        let mut alloc = FrameAlloc::new(0x8002_0000, 1 << 24);
        let mut reg = SegRegistry::new();
        let mut handles = Vec::new();
        for (op, idx, len) in ops {
            match op {
                0 => {
                    if let Ok(h) = reg.alloc(&mut alloc, len, idx, true) {
                        handles.push(h);
                    }
                }
                1 => {
                    if !handles.is_empty() {
                        let h = handles[idx as usize % handles.len()];
                        let _ = reg.transfer(h, SegOwner::ListSlot(idx, len % 128));
                    }
                }
                _ => {
                    if !handles.is_empty() {
                        let h = handles[idx as usize % handles.len()];
                        reg.free(&mut alloc, h);
                    }
                }
            }
            prop_assert!(reg.check_invariants().is_ok(), "{:?}", reg.check_invariants());
        }
    }

    /// Every live segment stays inside the relay window the kernel never
    /// maps — the no-shadowing guarantee.
    #[test]
    fn segments_live_in_the_relay_window(lens in prop::collection::vec(1u64..100_000, 1..20)) {
        let mut alloc = FrameAlloc::new(0x8002_0000, 1 << 26);
        let mut reg = SegRegistry::new();
        for (i, len) in lens.iter().enumerate() {
            if let Ok(h) = reg.alloc(&mut alloc, *len, i as u64, true) {
                let s = reg.seg_reg(h);
                prop_assert!(s.va_base >= RELAY_REGION_VA);
                prop_assert!(s.va_base + s.len <= RELAY_REGION_VA + RELAY_REGION_LEN);
            }
        }
    }

    /// AES-CTR is an involution for any key, nonce and data.
    #[test]
    fn aes_ctr_involution(key in prop::array::uniform16(any::<u8>()),
                          nonce in any::<u64>(),
                          data in prop::collection::vec(any::<u8>(), 0..600)) {
        let aes = Aes128::new(&key);
        let mut buf = data.clone();
        aes.ctr_xor(nonce, &mut buf);
        aes.ctr_xor(nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// The file system agrees with a flat reference model under random
    /// write/read sequences (offsets up to ~3 blocks, so partial-block
    /// read-modify-write paths are exercised).
    #[test]
    fn fs_matches_reference_model(ops in prop::collection::vec(
        (0u64..12_000, prop::collection::vec(any::<u8>(), 1..700)), 1..12)) {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 1 << 13);
        let ino = fs.create(&mut w, "prop");
        let mut model: Vec<u8> = Vec::new();
        for (off, data) in &ops {
            let end = *off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[*off as usize..end].copy_from_slice(data);
            fs.write(&mut w, ino, *off, data);
        }
        let got = fs.read(&mut w, ino, 0, model.len() as u64);
        prop_assert_eq!(got, model);
    }

    /// Shrink windows tile the message exactly: disjoint, ordered,
    /// covering.
    #[test]
    fn shrink_windows_tile_exactly(total in 0u64..1 << 22, piece in 1u64..1 << 16) {
        let w = shrink_windows(total, piece);
        let mut pos = 0;
        for (off, len) in &w {
            prop_assert_eq!(*off, pos);
            prop_assert!(*len > 0 && *len <= piece);
            pos += len;
        }
        prop_assert_eq!(pos, total);
    }

    /// YCSB generation is a pure function of the spec.
    #[test]
    fn ycsb_deterministic(seed in any::<u64>()) {
        use xpc_repro::ycsb::{Workload, WorkloadSpec};
        let spec = WorkloadSpec { seed, ops: 50, ..WorkloadSpec::paper(Workload::A) };
        prop_assert_eq!(spec.generate(), spec.generate());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Assembler/decoder agreement for register-register ALU ops.
    #[test]
    fn assembler_decoder_round_trip(rd in 0u8..32, rs1 in 0u8..32, rs2 in 0u8..32) {
        use xpc_repro::rv64::inst::{decode, AluOp, Inst};
        use xpc_repro::rv64::Assembler;
        let mut a = Assembler::new(0);
        a.add(rd, rs1, rs2);
        a.sub(rd, rs1, rs2);
        a.xor(rd, rs1, rs2);
        let w = a.assemble();
        prop_assert_eq!(decode(w[0]), Some(Inst::Op { op: AluOp::Add, rd, rs1, rs2 }));
        prop_assert_eq!(decode(w[1]), Some(Inst::Op { op: AluOp::Sub, rd, rs1, rs2 }));
        prop_assert_eq!(decode(w[2]), Some(Inst::Op { op: AluOp::Xor, rd, rs1, rs2 }));
    }

    /// `li` followed by execution produces exactly the requested constant.
    #[test]
    fn li_executes_to_value(v in any::<i64>()) {
        use xpc_repro::rv64::{reg, Assembler, Machine, MachineConfig};
        let mut a = Assembler::new(xpc_repro::rv64::mem::DRAM_BASE);
        a.li(reg::A0, v);
        a.ebreak();
        let mut m = Machine::new(MachineConfig::rocket_u500());
        m.load_program(&a.assemble());
        m.run(100).unwrap();
        prop_assert_eq!(m.core.cpu.x(reg::A0) as i64, v);
    }

    /// Immediately re-accessing a cached line always hits.
    #[test]
    fn cache_rereference_hits(pa in 0x8000_0000u64..0x8100_0000) {
        use xpc_repro::rv64::cache::Cache;
        use xpc_repro::rv64::MachineConfig;
        let mut c = Cache::new(MachineConfig::rocket_u500().dcache);
        c.access(pa);
        prop_assert!(c.access(pa).hit);
    }
}
