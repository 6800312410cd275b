//! The YCSB-on-minidb driver: loads the table ([`load`]), replays an
//! operation stream against it ([`run_loaded`]), and reports throughput
//! plus the IPC accounting Figures 1 and 8 are built from.

use crate::db::MiniDb;
use simos::World;
use ycsb::rng::Rng;
use ycsb::{Op, WorkloadSpec};

/// Result of one YCSB run.
#[derive(Debug, Clone)]
pub struct YcsbResult {
    /// Workload name.
    pub workload: &'static str,
    /// IPC mechanism name.
    pub system: String,
    /// Operations executed.
    pub ops: u64,
    /// Cycles for the run phase (excludes loading).
    pub cycles: u64,
    /// Fraction of run-phase cycles spent in IPC (Figure 1a).
    pub ipc_fraction: f64,
    /// Fraction of IPC cycles spent on data transfer (§2.1's 58.7%).
    pub transfer_fraction: f64,
    /// `(message_bytes, ipc_cycles)` events for the Figure 1b CDF.
    pub events: Vec<(u64, u64)>,
    /// Throughput in operations per second at the model clock; `0.0`,
    /// not `0 / 0`, for a run that charged no cycle (an empty op stream).
    pub ops_per_sec: f64,
    /// Per-operation latency percentiles in cycles (p50, p95, p99) —
    /// YCSB's standard latency report.
    pub latency_p50: u64,
    /// 95th percentile latency.
    pub latency_p95: u64,
    /// 99th percentile latency.
    pub latency_p99: u64,
}

/// Load `spec`'s table into a fresh database: `spec.records` journaled
/// inserts of `spec.row_bytes` rows, charged to `world`.
///
/// The result depends on `spec.{records, fields, field_len, seed}` only —
/// not on the workload mix, the op count or `world`'s IPC mechanism — so
/// one load serves every run over that table: clone it per run (a
/// [`MiniDb`] clone shares keys, cached rows and ramdisk blocks with its
/// origin instead of copying them) and hand each clone to [`run_loaded`],
/// as §5.4 loads one table and then runs the six mixes.
pub fn load(world: &mut World, spec: &WorkloadSpec) -> MiniDb {
    let mut db = MiniDb::create(world, 1 << 15);
    let mut rng = Rng::seed_from_u64(spec.seed ^ 0x10ad);
    for n in 0..spec.records {
        let row = spec.row_bytes(&mut rng);
        db.insert(world, &spec.key(n), &row);
    }
    db
}

/// Load the table and run `spec` against it in `world`:
/// [`run_loaded`] on a fresh [`load`].
pub fn run_workload(world: &mut World, spec: &WorkloadSpec) -> YcsbResult {
    let db = load(world, spec);
    run_loaded(world, db, spec)
}

/// Run `spec`'s operation stream against `db`, a table [`load`]ed for
/// `spec` (by this `world` or any other), and report the run phase only:
/// `world`'s accounting is reset first and cycles count from here, so
/// whatever `world` was charged before — a load, or nothing — is not in
/// the result. No roster mechanism prices from its history, which is why
/// a fresh `World` over a forked load reports exactly what
/// [`run_workload`] does (pinned by `forked_load_equals_fresh_load`).
pub fn run_loaded(world: &mut World, mut db: MiniDb, spec: &WorkloadSpec) -> YcsbResult {
    // Measurement starts here: drop whatever the load charged.
    world.stats = simos::WorldStats::default();
    let start = world.cycles;

    let ops = spec.generate();
    let mut latencies = Vec::with_capacity(ops.len());
    for op in &ops {
        let op_start = world.cycles;
        match op {
            Op::Read(k) => {
                let _ = db.read_with(world, k, |_| ());
            }
            Op::Update(k, f) => {
                let _ = db.update(world, k, f);
            }
            Op::Insert(k, row) => db.insert(world, k, row),
            Op::Scan(k, n) => db.scan_each(world, k, *n, |_| ()),
            Op::ReadModifyWrite(k, f) => {
                let _ = db.read_modify_write(world, k, f);
            }
        }
        latencies.push(world.cycles - op_start);
    }
    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[(latencies.len() - 1) * p / 100]
        }
    };

    let cycles = world.cycles - start;
    let secs = cycles as f64 / world.cost.clock_hz as f64;
    YcsbResult {
        workload: spec.workload.name(),
        system: world.ipc_name(),
        ops: ops.len() as u64,
        cycles,
        ipc_fraction: world.stats.ipc_fraction(),
        transfer_fraction: world.stats.transfer_fraction_of_ipc(),
        events: world.stats.events.clone(),
        ops_per_sec: if cycles == 0 {
            0.0
        } else {
            ops.len() as f64 / secs
        },
        latency_p50: pct(50),
        latency_p95: pct(95),
        latency_p99: pct(99),
    }
}
