//! Cross-system YCSB sanity: the Figure 8(a)/(b) shape must hold — XPC
//! beats the baselines, most on write-heavy mixes, least on YCSB-C.

use kernels::{Factory, Sel4, Sel4Transfer, XpcIpc, Zircon};
use minidb::{load, run_loaded, run_workload, MiniDb, YcsbResult};
use services::blockdev::BlockDev;
use simos::World;
use std::collections::BTreeMap;
use ycsb::rng::Rng;
use ycsb::{Workload, WorkloadSpec};

fn ops_per_sec(mech: Box<dyn simos::IpcSystem>, wl: Workload) -> f64 {
    let mut world = World::new(mech);
    let spec = WorkloadSpec {
        ops: 300,
        ..WorkloadSpec::paper(wl)
    };
    run_workload(&mut world, &spec).ops_per_sec
}

#[test]
fn xpc_beats_zircon_on_every_workload() {
    for wl in Workload::ALL {
        let z = ops_per_sec(Box::new(Zircon::new()), wl);
        let x = ops_per_sec(Box::new(XpcIpc::zircon_xpc()), wl);
        assert!(
            x > z,
            "{}: Zircon-XPC ({x:.0}) must beat Zircon ({z:.0})",
            wl.name()
        );
    }
}

#[test]
fn xpc_beats_sel4_twocopy_on_write_heavy_mixes() {
    for wl in [Workload::A, Workload::F] {
        let s = ops_per_sec(Box::new(Sel4::new(Sel4Transfer::TwoCopy)), wl);
        let x = ops_per_sec(Box::new(XpcIpc::sel4_xpc()), wl);
        assert!(
            x > 1.2 * s,
            "{}: seL4-XPC ({x:.0}) must clearly beat seL4 ({s:.0})",
            wl.name()
        );
    }
}

#[test]
fn ycsb_c_gains_least() {
    // §5.4: "YCSB-C has minimal improvement since it is a read-only
    // workload and Sqlite3 has an in-memory cache".
    let gain = |wl| {
        let s = ops_per_sec(Box::new(Sel4::new(Sel4Transfer::TwoCopy)), wl);
        let x = ops_per_sec(Box::new(XpcIpc::sel4_xpc()), wl);
        x / s
    };
    let ga = gain(Workload::A);
    let gc = gain(Workload::C);
    let gf = gain(Workload::F);
    assert!(gc < ga, "C ({gc:.2}x) gains less than A ({ga:.2}x)");
    assert!(gc < gf, "C ({gc:.2}x) gains less than F ({gf:.2}x)");
}

#[test]
fn ipc_fraction_is_significant_on_sel4() {
    // Figure 1(a): 18–39% of CPU time in IPC across the YCSB mixes on
    // stock seL4. In our model the read-only YCSB-C is almost fully
    // served from the row cache, so its share falls below the paper's
    // band; every mix that writes must land inside it.
    for wl in Workload::ALL {
        let mut world = World::new(Box::new(Sel4::new(Sel4Transfer::TwoCopy)));
        let spec = WorkloadSpec {
            ops: 300,
            ..WorkloadSpec::paper(wl)
        };
        let r = run_workload(&mut world, &spec);
        let band = if wl == Workload::C {
            0.01..0.75
        } else {
            0.08..0.75
        };
        assert!(
            band.contains(&r.ipc_fraction),
            "{}: IPC fraction {:.2} out of plausible band",
            wl.name(),
            r.ipc_fraction
        );
    }
}

/// Every field of a result, floats by bit pattern.
fn fields(r: &YcsbResult) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        (r.workload, &r.system, r.ops, r.cycles, &r.events),
        (
            r.ipc_fraction.to_bits(),
            r.transfer_fraction.to_bits(),
            r.ops_per_sec.to_bits(),
        ),
        (r.latency_p50, r.latency_p95, r.latency_p99),
    )
}

#[test]
fn forked_load_equals_fresh_load() {
    // Figures 1(a) and 8(a,b) load the table once, against a throw-away
    // world, and run every cell on a fresh world over a fork of it. That
    // reports what a load per cell would only while no mechanism prices
    // a call from the calls before it.
    let systems: [Factory; 5] = [
        || Box::new(Zircon::new()),
        || Box::new(XpcIpc::zircon_xpc()),
        || Box::new(Sel4::new(Sel4Transfer::TwoCopy)),
        || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
        || Box::new(XpcIpc::sel4_xpc()),
    ];
    let grid = systems.map(|mk| (mk, 400)).into_iter();
    let fig1 = std::iter::once((systems[2], 500));
    let loaded = load(
        &mut World::new(systems[0]()),
        &WorkloadSpec::paper(Workload::A),
    );
    for (mk, ops) in grid.chain(fig1) {
        for wl in Workload::ALL {
            let spec = WorkloadSpec {
                ops,
                ..WorkloadSpec::paper(wl)
            };
            let fresh = run_workload(&mut World::new(mk()), &spec);
            let forked = run_loaded(&mut World::new(mk()), loaded.clone(), &spec);
            assert_eq!(
                fields(&forked),
                fields(&fresh),
                "{} on {} at {ops} ops: a run over a forked load must report what \
                 a run over its own load does. A mechanism whose prices depend on \
                 the calls before them needs a load per system, on its own world \
                 (fig8::normalized / fig1::ipc_fractions share one load across all).",
                wl.name(),
                fresh.system,
            );
        }
    }
}

/// The whole-image digest of `services/tests/storage_pin.rs`.
fn image_digest(dev: &BlockDev) -> u64 {
    (0..dev.len() as u64).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        dev.peek(b).iter().fold(h, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// A database next to the map it must behave as.
#[derive(Clone)]
struct Checked {
    db: MiniDb,
    oracle: BTreeMap<String, Vec<u8>>,
}

impl Checked {
    /// One random operation, its result checked against the oracle.
    fn step(&mut self, w: &mut World, rng: &mut Rng) {
        let Checked { db, oracle } = self;
        let key = format!("k{:02}", rng.below(48));
        let bytes = |rng: &mut Rng, max| -> Vec<u8> {
            (0..1 + rng.below(max)).map(|_| rng.byte()).collect()
        };
        // What `update` / `read_modify_write` leave in the row.
        let overlay = |row: &mut Vec<u8>, field: &[u8]| {
            let n = field.len().min(row.len());
            row[..n].copy_from_slice(&field[..n]);
        };
        match rng.below(6) {
            0 => {
                let row = bytes(rng, 400);
                db.insert(w, &key, &row);
                oracle.insert(key, row);
            }
            1 => {
                let field = bytes(rng, 60);
                let row = oracle.get_mut(&key);
                assert_eq!(db.update(w, &key, &field), row.is_some(), "update {key}");
                if let Some(row) = row {
                    overlay(row, &field);
                }
            }
            2 => {
                let field = bytes(rng, 60);
                let row = oracle.get_mut(&key);
                let hit = db.read_modify_write(w, &key, &field);
                assert_eq!(hit, row.is_some(), "rmw {key}");
                if let Some(row) = row {
                    row[0] = row[0].wrapping_add(1);
                    overlay(row, &field);
                }
            }
            3 => {
                let had = oracle.remove(&key).is_some();
                assert_eq!(db.delete(w, &key), had, "delete {key}");
            }
            4 => assert_eq!(db.read(w, &key).as_ref(), oracle.get(&key), "read {key}"),
            _ => {
                let n = 1 + rng.below(12) as usize;
                let want: Vec<_> = oracle
                    .range(key.clone()..)
                    .take(n)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(db.scan(w, &key, n).iter().collect::<Vec<_>>(), want);
            }
        }
    }

    /// Every key, through the live database and through a reopen of (a
    /// clone of) its device.
    fn verify(&mut self, w: &mut World, who: &str) {
        let mut reopened = MiniDb::reopen(w, self.db.fs.dev.clone());
        for db in [&mut self.db, &mut reopened] {
            assert_eq!(db.len(), self.oracle.len(), "{who}: live keys");
            let all = db.scan(w, "", usize::MAX);
            assert!(all.iter().eq(self.oracle.values()), "{who}: full scan");
        }
    }
}

#[test]
fn fork_is_isolated_under_churn() {
    for seed in [0x5eed, 0xf02c, 0xc4a5] {
        let mut w = World::new(Box::new(XpcIpc::sel4_xpc()));
        let mut rng = Rng::seed_from_u64(seed);
        // 768 blocks: the 2 MiB + 48 KiB a table file can reach, plus
        // metadata, and a whole-image digest that stays cheap.
        let mut db = MiniDb::create(&mut w, 768);
        db.set_cache_rows(8);
        let mut parent = Checked {
            db,
            oracle: BTreeMap::new(),
        };
        // (fork, its image digest when the parent took over again).
        let mut forks: Vec<(Checked, u64)> = Vec::new();
        for op in 0..2_000 {
            parent.step(&mut w, &mut rng);
            if rng.below(400) != 0 {
                continue;
            }
            // Fork here, then write only the fork: other ops than the
            // parent will see, from a stream of its own.
            let before = (image_digest(&parent.db.fs.dev), parent.db.fs.dev.writes);
            let mut fork = parent.clone();
            let mut fork_rng = Rng::split(seed, op);
            for _ in 0..150 {
                fork.step(&mut w, &mut fork_rng);
            }
            let after = (image_digest(&parent.db.fs.dev), parent.db.fs.dev.writes);
            assert_eq!(
                after, before,
                "seed {seed:#x} op {op}: fork wrote the parent"
            );
            assert!(fork.db.fs.dev.writes > before.1, "the fork did write");
            let digest = image_digest(&fork.db.fs.dev);
            forks.push((fork, digest));
        }
        assert!(forks.len() >= 2, "seed {seed:#x} forked {}x", forks.len());
        parent.verify(&mut w, "parent");
        for (i, (fork, digest)) in forks.iter_mut().enumerate() {
            let who = format!("seed {seed:#x} fork {i}");
            assert_eq!(
                image_digest(&fork.db.fs.dev),
                *digest,
                "{who}: parent wrote it"
            );
            fork.verify(&mut w, &who);
        }
    }
}
