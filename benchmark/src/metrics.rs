//! The benchmark's metric tables: every name the benchmark prints, with
//! its unit and direction. `BENCHMARK.json` at the repository root lists
//! the same names; a unit test keeps the two in step.

use crate::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: `bound` is the share of the parent's median by
/// which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// What a user of the simulator sees: host speed and memory at fixed
/// simulated work. Failures are reported beside them as
/// `failed`/`attempted` (`failed_frac`), which has no bound because any
/// failure at all fails the run.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        // Run-to-run spread is under 1 % on a quiet box, but a busy
        // neighbour slows whole runs by 5 to 10 % for minutes at a time.
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        // Four of the workloads peak at 3 to 6 MiB, where the kernel's
        // batched RSS accounting alone jitters by a few per cent.
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// A per-layer metric. `sim` marks simulated statistics, which repeat
/// exactly for a given seed; everything else is host time.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub sim: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        sim: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        sim: true,
    }
}

/// Every per-layer metric of a traced run, grouped by layer.
pub const PER_LAYER: [PerLayer; 99] = [
    // rv64 -> ops_per_s on guest_alu / guest_xcall
    host("rv64.alu_mips", "Minst/s", Higher),
    host("rv64.mem_hit_mips", "Minst/s", Higher),
    host("rv64.mem_miss_mips", "Minst/s", Higher),
    host("rv64.paged_mips", "Minst/s", Higher),
    host("rv64.tlb_thrash_mips", "Minst/s", Higher),
    host("rv64.step_ns", "ns", Lower),
    sim("rv64.icache_hit_ratio", "ratio", Higher),
    sim("rv64.dcache_hit_ratio", "ratio", Higher),
    sim("rv64.tlb_hit_ratio", "ratio", Higher),
    sim("rv64.tlb_flushes_per_kinst", "1/kinst", Lower),
    sim("rv64.alu_cpi", "cycles/inst", Lower),
    sim("rv64.mem_miss_cpi", "cycles/inst", Lower),
    sim("rv64.tlb_thrash_cpi", "cycles/inst", Lower),
    // xpc-engine -> ops_per_s on guest_xcall
    host("xpc-engine.roundtrips_per_s", "1/s", Higher),
    host("xpc-engine.cached_roundtrips_per_s", "1/s", Higher),
    host("xpc-engine.swapseg_per_s", "1/s", Higher),
    sim("xpc-engine.cache_hit_ratio", "ratio", Higher),
    sim("xpc-engine.exceptions", "count", Lower),
    sim("xpc-engine.xcall_cycles", "cycles", Lower),
    sim("xpc-engine.xret_cycles", "cycles", Lower),
    sim("xpc-engine.swapseg_cycles", "cycles", Lower),
    sim("xpc-engine.roundtrip_cycles", "cycles", Lower),
    // xpc (XpcKernel) -> setup_s and ops_per_s on guest_xcall
    host("xpc.boot_ms", "ms", Lower),
    host("xpc.create_process_per_s", "1/s", Higher),
    host("xpc.register_grant_per_s", "1/s", Higher),
    host("xpc.seg_alloc_free_per_s", "1/s", Higher),
    host("xpc.handover_per_s", "1/s", Higher),
    host("xpc.seg_rw_mib_per_s", "MiB/s", Higher),
    host("xpc.enter_resume_per_s", "1/s", Higher),
    sim("xpc.errors", "ratio", Lower),
    // kernels -> ops_per_s on closed_sweep / open_serve
    host("kernels.zircon_oneway_ns", "ns", Lower),
    host("kernels.zircon_xpc_oneway_ns", "ns", Lower),
    host("kernels.sel4_onecopy_oneway_ns", "ns", Lower),
    host("kernels.sel4_twocopy_oneway_ns", "ns", Lower),
    host("kernels.sel4_xpc_oneway_ns", "ns", Lower),
    host("kernels.mach_oneway_ns", "ns", Lower),
    host("kernels.lrpc_oneway_ns", "ns", Lower),
    host("kernels.l4_tempmap_oneway_ns", "ns", Lower),
    host("kernels.ppc_remap_oneway_ns", "ns", Lower),
    host("kernels.binder_oneway_ns", "ns", Lower),
    host("kernels.binder_xpc_oneway_ns", "ns", Lower),
    host("kernels.ashmem_xpc_oneway_ns", "ns", Lower),
    host("kernels.batch_into_ns", "ns", Lower),
    host("kernels.fused_hop_into_ns", "ns", Lower),
    host("kernels.hardened_oneway_ns", "ns", Lower),
    // simos -> ops_per_s on closed_sweep / open_serve / figures_all
    host("simos.exec_oneway_ns", "ns", Lower),
    host("simos.exec_roundtrip_ns", "ns", Lower),
    host("simos.exec_batch_ns", "ns", Lower),
    host("simos.exec_compute_ns", "ns", Lower),
    host("simos.exec_data_pass_ns", "ns", Lower),
    host("simos.exec_fused_ns", "ns", Lower),
    host("simos.world_ipc_roundtrip_ns", "ns", Lower),
    host("simos.load_full_req_per_s", "1/s", Higher),
    host("simos.load_sampled_req_per_s", "1/s", Higher),
    host("simos.load_w8_req_per_s", "1/s", Higher),
    host("simos.trace_gen_arrivals_per_s", "1/s", Higher),
    host("simos.serve_poisson_arrivals_per_s", "1/s", Higher),
    host("simos.serve_onoff_arrivals_per_s", "1/s", Higher),
    host("simos.serve_autoscale_arrivals_per_s", "1/s", Higher),
    sim("simos.arena_growth_after_warmup", "count", Lower),
    host("simos.par_speedup", "ratio", Higher),
    host("simos.par_workers", "count", Higher),
    host("simos.par_hw_threads", "count", Higher),
    sim("simos.load_p50_cycles", "cycles", Lower),
    sim("simos.load_p99_cycles", "cycles", Lower),
    sim("simos.serve_p99_cycles_rho50", "cycles", Lower),
    sim("simos.serve_p99_cycles_rho90", "cycles", Lower),
    sim("simos.serve_shed_frac_rho90", "ratio", Lower),
    sim("simos.cycles_per_req", "cycles", Lower),
    // services / minidb / ycsb -> ops_per_s on figures_all
    host("services.aes_mib_per_s", "MiB/s", Higher),
    host("services.fs_write_mib_per_s", "MiB/s", Higher),
    host("services.fs_read_mib_per_s", "MiB/s", Higher),
    host("services.http_req_per_s", "1/s", Higher),
    host("services.tcp_mib_per_s", "MiB/s", Higher),
    host("minidb.load_rows_per_s", "1/s", Higher),
    host("minidb.ycsb_a_ops_per_s", "1/s", Higher),
    host("minidb.ycsb_c_ops_per_s", "1/s", Higher),
    host("minidb.ycsb_e_ops_per_s", "1/s", Higher),
    host("ycsb.gen_ops_per_s", "1/s", Higher),
    // xpc-verify -> ops_per_s on figures_all (small)
    host("xpc-verify.verify_plans_per_s", "1/s", Higher),
    host("xpc-verify.check_program_per_s", "1/s", Higher),
    host("xpc-verify.lint_system_per_s", "1/s", Higher),
    // bench (figures tail) -> ops_per_s on figures_all
    host("bench.fig1a_ms", "ms", Lower),
    host("bench.fig1b_ms", "ms", Lower),
    host("bench.fig7ab_ms", "ms", Lower),
    host("bench.fig8ab_ms", "ms", Lower),
    host("bench.serve_ms", "ms", Lower),
    host("bench.fuse_ms", "ms", Lower),
    host("bench.rest_ms", "ms", Lower),
    host("bench.render_ms", "ms", Lower),
    host("bench.json_tail_ms", "ms", Lower),
    host("bench.pass_ms", "ms", Lower),
    sim("bench.golden_bytes", "B", Lower),
    sim("bench.paper_mape_pct", "%", Lower),
    // harness: the traced workload's own run
    host("harness.chunks", "count", Higher),
    host("harness.chunk_ms_p50", "ms", Lower),
    host("harness.chunk_ms_p95", "ms", Lower),
    host("harness.timer_ns", "ns", Lower),
    host("harness.trace_overhead_pct", "%", Lower),
];

/// Measured values by metric name, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `value` under `name`; a name is recorded once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// One `{"value": .., "unit": ..}` member per `(name, unit)` in `table`.
/// A metric that is missing or not finite is listed in the error.
pub fn to_json<'a>(
    m: &Metrics,
    table: impl Iterator<Item = (&'a str, &'a str)>,
) -> Result<Value, Vec<String>> {
    let mut members = Vec::new();
    let mut bad = Vec::new();
    for (name, unit) in table {
        match m.get(name) {
            Some(v) if v.is_finite() => members.push((
                name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(v)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )),
            other => bad.push(format!("{name} = {other:?}")),
        }
    }
    if bad.is_empty() {
        Ok(Value::Obj(members))
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_stay_in_their_charsets() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(name_ok(name), "metric name {name:?}");
            assert!(unit_ok(unit), "unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(!name_ok("bad name") && !name_ok(".dot") && !name_ok("a/b"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` must list exactly these metrics, spelled and
    /// bounded identically.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|v| {
                (
                    field(v, "name"),
                    field(v, "unit"),
                    field(v, "better"),
                    v.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    Some(m.name.to_string()),
                    Some(m.unit.to_string()),
                    Some(m.better.key().to_string()),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<_> = list("per_layer")
            .iter()
            .map(|v| (field(v, "name"), field(v, "unit"), field(v, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    Some(m.name.to_string()),
                    Some(m.unit.to_string()),
                    Some(m.better.key().to_string()),
                )
            })
            .collect();
        assert_eq!(layers, want);
        let workloads: Vec<_> = list("workloads").iter().map(|v| field(v, "name")).collect();
        let want: Vec<_> = crate::workloads::ALL
            .iter()
            .map(|w| Some(w.name.to_string()))
            .collect();
        assert_eq!(workloads, want);
    }
}
