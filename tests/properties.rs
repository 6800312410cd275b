//! Property-based tests on the core data structures and invariants, on
//! the in-tree harness `ycsb::check` (seeded cases, shrink-by-halving,
//! replayable seeds).

use xpc_repro::services::aes::Aes128;
use xpc_repro::services::fs::Xv6Fs;
use xpc_repro::simos::ipc::IpcSystem;
use xpc_repro::simos::ledger::{CycleLedger, InvokeOpts, Phase};
use xpc_repro::xpc::handover::shrink_windows;
use xpc_repro::xpc::layout::{RELAY_REGION_LEN, RELAY_REGION_VA};
use xpc_repro::xpc::palloc::FrameAlloc;
use xpc_repro::xpc::seg::{SegOwner, SegRegistry};
use xpc_repro::xpc_engine::{SegMask, SegReg};
use xpc_repro::ycsb::{check, Rng};

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

/// A draw from `lo..hi` whose span the harness's `size` caps.
fn range(rng: &mut Rng, size: u64, lo: u64, hi: u64) -> u64 {
    lo + rng.below((hi - lo).min(size))
}

/// `lo..hi` elements (the count capped by `size`), each drawn by `item`.
fn vec_of<T>(
    rng: &mut Rng,
    size: u64,
    (lo, hi): (u64, u64),
    mut item: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    let n = range(rng, size, lo, hi);
    (0..n).map(|_| item(rng)).collect()
}

/// `Ok` when `cond` holds, else `Err` of the message `what` builds.
fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// The seg-mask intersection never escapes the parent segment — the
/// §3.3 safety property behind handover.
#[test]
fn masked_segment_stays_inside_parent() {
    check(
        "masked_segment_stays_inside_parent",
        4000,
        &[],
        |rng, size| {
            let base = range(rng, size, 0, 1 << 40);
            let len = range(rng, size, 1, 1 << 20);
            let moff = range(rng, size, 0, 1 << 20);
            let mlen = range(rng, size, 0, 1 << 20);
            (base, len, moff, mlen)
        },
        |&(base, len, moff, mlen)| {
            let seg = SegReg {
                va_base: base,
                pa_base: 0x8000_0000,
                len,
                writable: true,
                paged: false,
            };
            let mask = SegMask {
                va_base: base + moff,
                len: mlen,
            };
            if !mask.within(&seg) {
                return Ok(());
            }
            let m = seg.masked(mask);
            ensure(m.va_base >= seg.va_base, || {
                format!("{m:?} starts below {seg:?}")
            })?;
            ensure(m.va_base + m.len <= seg.va_base + seg.len, || {
                format!("{m:?} ends past {seg:?}")
            })?;
            // Translation consistency: same VA maps to same PA.
            ensure(
                m.len == 0 || m.pa_base == seg.pa_base + (m.va_base - seg.va_base),
                || format!("{m:?} translates differently from {seg:?}"),
            )
        },
    );
}

/// Random allocate/transfer/free sequences never violate the registry
/// invariants (no overlap, window containment).
#[test]
fn seg_registry_invariants_hold() {
    check(
        "seg_registry_invariants_hold",
        300,
        &[],
        |rng, size| {
            vec_of(rng, size, (1, 60), |rng| {
                (rng.below(3) as u8, rng.below(8), 1 + rng.below(19_999))
            })
        },
        |ops| {
            let mut alloc = FrameAlloc::new(0x8002_0000, 1 << 24);
            let mut reg = SegRegistry::new();
            let mut handles = Vec::new();
            for &(op, idx, len) in ops {
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
                reg.check_invariants().map_err(|e| format!("{e:?}"))?;
            }
            Ok(())
        },
    );
}

/// Every live segment stays inside the relay window the kernel never
/// maps — the no-shadowing guarantee.
#[test]
fn segments_live_in_the_relay_window() {
    check(
        "segments_live_in_the_relay_window",
        300,
        &[],
        |rng, size| vec_of(rng, size, (1, 20), |rng| range(rng, size, 1, 100_000)),
        |lens| {
            let mut alloc = FrameAlloc::new(0x8002_0000, 1 << 26);
            let mut reg = SegRegistry::new();
            for (i, &len) in lens.iter().enumerate() {
                if let Ok(h) = reg.alloc(&mut alloc, len, i as u64, true) {
                    let s = reg.seg_reg(h);
                    ensure(
                        s.va_base >= RELAY_REGION_VA
                            && s.va_base + s.len <= RELAY_REGION_VA + RELAY_REGION_LEN,
                        || format!("segment {i} {s:?} leaves the relay window"),
                    )?;
                }
            }
            Ok(())
        },
    );
}

/// AES-CTR is an involution for any key, nonce and data.
#[test]
fn aes_ctr_involution() {
    check(
        "aes_ctr_involution",
        300,
        &[],
        |rng, size| {
            let key: [u8; 16] = std::array::from_fn(|_| rng.byte());
            let nonce = rng.next_u64();
            let data = vec_of(rng, size, (0, 600), Rng::byte);
            (key, nonce, data)
        },
        |(key, nonce, data)| {
            let aes = Aes128::new(key);
            let mut buf = data.clone();
            aes.ctr_xor(*nonce, &mut buf);
            aes.ctr_xor(*nonce, &mut buf);
            ensure(buf == *data, || "CTR twice is not the identity".into())
        },
    );
}

/// The file system agrees with a flat reference model under random
/// write/read sequences (offsets up to ~3 blocks, so partial-block
/// read-modify-write paths are exercised).
#[test]
fn fs_matches_reference_model() {
    check(
        "fs_matches_reference_model",
        100,
        &[],
        |rng, size| {
            vec_of(rng, size, (1, 12), |rng| {
                let off = range(rng, size, 0, 12_000);
                (off, vec_of(rng, size, (1, 700), Rng::byte))
            })
        },
        |ops| {
            let mut w = world();
            let mut fs = Xv6Fs::mkfs(&mut w, 1 << 13);
            let ino = fs.create(&mut w, "prop");
            let mut model: Vec<u8> = Vec::new();
            for (off, data) in ops {
                let end = *off as usize + data.len();
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[*off as usize..end].copy_from_slice(data);
                fs.write(&mut w, ino, *off, data);
            }
            let got = fs.read(&mut w, ino, 0, model.len() as u64);
            ensure(got == model, || {
                "file contents diverge from the model".into()
            })
        },
    );
}

/// Shrink windows tile the message exactly: disjoint, ordered, covering.
#[test]
fn shrink_windows_tile_exactly() {
    check(
        "shrink_windows_tile_exactly",
        1000,
        &[],
        |rng, size| (range(rng, size, 0, 1 << 22), range(rng, size, 1, 1 << 16)),
        |&(total, piece)| {
            let mut pos = 0;
            for (off, len) in shrink_windows(total, piece) {
                ensure(off == pos, || format!("window at {off}, expected {pos}"))?;
                ensure(len > 0 && len <= piece, || format!("window length {len}"))?;
                pos += len;
            }
            ensure(pos == total, || format!("windows cover {pos} of {total}"))
        },
    );
}

/// YCSB generation is a pure function of the spec.
#[test]
fn ycsb_deterministic() {
    use xpc_repro::ycsb::{Workload, WorkloadSpec};
    check(
        "ycsb_deterministic",
        200,
        &[],
        |rng, _| rng.next_u64(),
        |&seed| {
            let spec = WorkloadSpec {
                seed,
                ops: 50,
                ..WorkloadSpec::paper(Workload::A)
            };
            ensure(spec.generate() == spec.generate(), || {
                "two generations differ".into()
            })
        },
    );
}

/// Assembler/decoder agreement for register-register ALU ops.
#[test]
fn assembler_decoder_round_trip() {
    use xpc_repro::rv64::inst::{decode, AluOp, Inst};
    use xpc_repro::rv64::Assembler;
    check(
        "assembler_decoder_round_trip",
        500,
        &[],
        |rng, size| {
            let mut r = || range(rng, size, 0, 32) as u8;
            (r(), r(), r())
        },
        |&(rd, rs1, rs2)| {
            let mut a = Assembler::new(0);
            a.add(rd, rs1, rs2);
            a.sub(rd, rs1, rs2);
            a.xor(rd, rs1, rs2);
            let w = a.assemble();
            for (word, op) in w.iter().zip([AluOp::Add, AluOp::Sub, AluOp::Xor]) {
                let want = Inst::Op { op, rd, rs1, rs2 };
                ensure(decode(*word) == Some(want), || {
                    format!("{word:#010x} decodes to {:?}, not {want:?}", decode(*word))
                })?;
            }
            Ok(())
        },
    );
}

/// `li` followed by execution produces exactly the requested constant.
#[test]
fn li_executes_to_value() {
    use xpc_repro::rv64::{reg, Assembler, Machine, MachineConfig};
    check(
        "li_executes_to_value",
        300,
        &[],
        |rng, size| {
            // Every i64 but one at full size; small of either sign after
            // halving (`!v` is `-v - 1`).
            let v = rng.below(size) as i64;
            if rng.below(2) == 1 {
                !v
            } else {
                v
            }
        },
        |&v| {
            let mut a = Assembler::new(xpc_repro::rv64::mem::DRAM_BASE);
            a.li(reg::A0, v);
            a.ebreak();
            let mut m = Machine::new(MachineConfig::rocket_u500());
            m.load_program(&a.assemble());
            m.run(100).map_err(|e| format!("{e:?}"))?;
            let got = m.core.cpu.x(reg::A0) as i64;
            ensure(got == v, || format!("a0 = {got}"))
        },
    );
}

/// Immediately re-accessing a cached line always hits.
#[test]
fn cache_rereference_hits() {
    use xpc_repro::rv64::cache::Cache;
    use xpc_repro::rv64::MachineConfig;
    check(
        "cache_rereference_hits",
        2000,
        &[],
        |rng, size| range(rng, size, 0x8000_0000, 0x8100_0000),
        |&pa| {
            let mut c = Cache::new(MachineConfig::rocket_u500().dcache);
            c.access(pa);
            ensure(c.access(pa).hit, || "second access missed".into())
        },
    );
}
