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
        self.step_by(w, rng, false);
    }

    /// [`Checked::step`], reading through `read_with` / `scan_each` when
    /// `visiting` and through `read` / `scan` otherwise.
    fn step_by(&mut self, w: &mut World, rng: &mut Rng, visiting: bool) {
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
            4 if visiting => {
                let want = oracle.get(&key).map(Vec::as_slice);
                let seen = db.read_with(w, &key, |row| assert_eq!(Some(row), want, "read {key}"));
                assert_eq!(seen.is_some(), want.is_some(), "read {key}");
            }
            4 => assert_eq!(db.read(w, &key).as_ref(), oracle.get(&key), "read {key}"),
            _ => {
                let n = 1 + rng.below(12) as usize;
                let mut want = oracle.range(key.clone()..).take(n).map(|(_, v)| v);
                if visiting {
                    db.scan_each(w, &key, n, |row| {
                        assert_eq!(Some(row), want.next().map(Vec::as_slice), "scan {key}");
                    });
                    assert_eq!(want.next(), None, "scan {key} stopped early");
                } else {
                    assert!(db.scan(w, &key, n).iter().eq(want), "scan {key}");
                }
            }
        }
    }

    /// Every key, through the live database and through a reopen of (a
    /// clone of) its device.
    fn verify(&mut self, w: &mut World, who: &str) {
        let mut reopened = MiniDb::reopen(w, self.db.fs.dev.clone()).expect("a minidb image");
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

/// Everything a row access may move, next to the same run done the other
/// way; `events` from `since` on (the earlier ones were compared before).
fn observed<'a>(
    c: &'a Checked,
    w: &'a World,
    since: usize,
) -> impl PartialEq + std::fmt::Debug + 'a {
    let (db, stats) = (&c.db, &w.stats);
    (
        (
            w.cycles,
            stats.ipc_count,
            stats.payload_bytes,
            stats.other_cycles,
        ),
        (stats.events.len(), &stats.events[since..]),
        (
            db.cache_hits,
            db.cache_misses,
            db.fs.dev.reads,
            db.fs.dev.writes,
        ),
    )
}

#[test]
fn visiting_equals_materialising() {
    // `read` / `scan` copy rows out of the visits `read_with` / `scan_each`
    // make; nothing else about a run may tell the two apart. Capacity 0
    // evicts every row by its own insert: the visitor must still see it.
    for cache_rows in [0, 8, minidb::db::DEFAULT_CACHE_ROWS] {
        for seed in [0x5eed, 0xf02c, 0xc4a5] {
            let mk = || World::new(Box::new(XpcIpc::sel4_xpc()));
            let mut db = MiniDb::create(&mut mk(), 256);
            db.set_cache_rows(cache_rows);
            let origin = Checked {
                db,
                oracle: BTreeMap::new(),
            };
            // Two forks of one database, a world and an op stream each.
            let mut sides = [false, true]
                .map(|visiting| (origin.clone(), mk(), Rng::seed_from_u64(seed), visiting));
            for op in 0..2_000 {
                let since = sides[0].1.stats.events.len();
                for (side, w, rng, visiting) in &mut sides {
                    side.step_by(w, rng, *visiting);
                }
                let [(a, wa, ..), (b, wb, ..)] = &sides;
                let who = format!("{cache_rows} cached rows, seed {seed:#x}, op {op}");
                assert_eq!(observed(b, wb, since), observed(a, wa, since), "{who}");
                let (dev_a, dev_b) = (&a.db.fs.dev, &b.db.fs.dev);
                assert!(
                    (0..dev_a.len() as u64).all(|blk| dev_a.peek(blk) == dev_b.peek(blk)),
                    "{who}: device images differ"
                );
            }
            for (side, w, ..) in &mut sides {
                // Past the last key, and no rows asked for: nothing is
                // visited and nothing is charged.
                let before = w.cycles;
                side.db
                    .scan_each(w, "l", 5, |_| panic!("no key follows k47"));
                side.db
                    .scan_each(w, "", 0, |_| panic!("no row was asked for"));
                assert!(side.db.scan(w, "l", 5).is_empty() && side.db.scan(w, "", 0).is_empty());
                assert_eq!(w.cycles, before);
            }
            let [(a, ..), (b, ..)] = &sides;
            assert!(!a.oracle.is_empty() && a.oracle == b.oracle);
        }
    }
}

#[test]
fn an_empty_run_reports_zero_not_nan() {
    // No op, no cycle: throughput is 0 / 0 unless the driver says otherwise.
    let spec = WorkloadSpec {
        ops: 0,
        ..WorkloadSpec::paper(Workload::E)
    };
    let mut world = World::new(Box::new(XpcIpc::sel4_xpc()));
    let db = MiniDb::create(&mut world, 1 << 10);
    let r = run_loaded(&mut world, db, &spec);
    assert_eq!((r.ops, r.cycles), (0, 0));
    assert_eq!(r.ops_per_sec.to_bits(), 0.0f64.to_bits());
    assert_eq!((r.ipc_fraction, r.transfer_fraction), (0.0, 0.0));
    assert_eq!((r.latency_p50, r.latency_p95, r.latency_p99), (0, 0, 0));
    assert!(r.events.is_empty());
}
