//! **Figure 8** — applications: Sqlite3/YCSB normalized throughput on
//! Zircon (a) and seL4 (b), and HTTP server throughput (c).

use super::{Column, Experiment, Layout};
use crate::json::Value;
use kernels::{Factory, Sel4, Sel4Transfer, XpcIpc, Zircon};
use minidb::{load, run_loaded};
use services::aes::AesServer;
use services::filecache::FileCache;
use services::http::{http_throughput_ops, HttpServer};
use simos::World;
use ycsb::{Workload, WorkloadSpec};

fn spec(wl: Workload) -> WorkloadSpec {
    WorkloadSpec {
        ops: 400,
        ..WorkloadSpec::paper(wl)
    }
}

/// Figure 8(a,b)'s columns over (workload, Zircon-XPC/Zircon,
/// seL4-onecopy/seL4-twocopy, seL4-XPC/seL4-twocopy) cells.
#[rustfmt::skip]
const COLUMNS: [Column<(&str, f64, f64, f64)>; 4] = [
    ("Workload", "workload", |&(w, ..)| w.into(), "{workload}"),
    ("Zircon-XPC / Zircon", "zircon_xpc_vs_zircon", |&(_, r, ..)| Value::Fixed(r, 3),
     "{zircon_xpc_vs_zircon:.2}x"),
    ("seL4-onecopy / twocopy", "sel4_onecopy_vs_twocopy", |&(_, _, r, _)| Value::Fixed(r, 3),
     "{sel4_onecopy_vs_twocopy:.2}x"),
    ("seL4-XPC / twocopy", "sel4_xpc_vs_twocopy", |&(.., r)| Value::Fixed(r, 3),
     "{sel4_xpc_vs_twocopy:.2}x"),
];

/// Figure 8(a,b): normalized YCSB throughput per mix.
pub struct Fig8ab;

impl Experiment for Fig8ab {
    type Grid = Vec<(&'static str, f64, f64, f64)>;

    fn compute() -> Self::Grid {
        let systems: [Factory; 5] = [
            || Box::new(Zircon::new()),
            || Box::new(XpcIpc::zircon_xpc()),
            || Box::new(Sel4::new(Sel4Transfer::TwoCopy)),
            || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
            || Box::new(XpcIpc::sel4_xpc()),
        ];
        // §5.4 loads one 1 000-record table and runs the six mixes
        // against it. The table does not depend on the mix or on who
        // priced the load (`run_loaded` discards those charges), so load
        // it once, here, and give each cell its own world and its own
        // fork.
        let loaded = load(&mut World::new(systems[0]()), &spec(Workload::A));
        // 30 independent (workload, system) worlds through the pool.
        let cells: Vec<(Workload, Factory)> = Workload::ALL
            .iter()
            .flat_map(|&wl| systems.map(|mk| (wl, mk)))
            .collect();
        let ops = simos::par::map_cells(cells, |_, (wl, mk), _| {
            run_loaded(&mut World::new(mk()), loaded.clone(), &spec(wl)).ops_per_sec
        });
        Workload::ALL
            .iter()
            .zip(ops.chunks_exact(systems.len()))
            .map(|(wl, o)| {
                let &[z, zx, s2, s1, sx] = o else {
                    unreachable!("one chunk per workload, one cell per system")
                };
                (wl.name(), zx / z, s1 / s2, sx / s2)
            })
            .collect()
    }

    fn json(grid: &Self::Grid) -> Value {
        let paper = [("zircon_xpc_avg", 2.08), ("sel4_xpc_avg", 1.6)];
        let cells = super::cell_json(&COLUMNS, grid);
        super::with_paper(vec![("workloads", cells)], &paper)
    }

    fn layout() -> Layout {
        let caption = "Sqlite3 YCSB throughput normalized to the baseline (paper: avg 2.08x Zircon, 1.6x seL4)";
        Layout::columns("Figure 8(a,b)", caption, "workloads", &COLUMNS)
    }
}

/// File sizes of Figure 8(c) in bytes.
const HTTP_SIZES: [u64; 4] = [512, 1024, 2048, 4096];

/// Figure 8(c)'s columns over (file size, [ops/s per curve]) cells.
#[rustfmt::skip]
const HTTP_COLUMNS: [Column<(u64, [f64; 4])>; 5] = [
    ("File size", "file_bytes", |&(s, _)| s.into(), "{file_bytes}B"),
    ("encry-Zircon", "encrypted_zircon_ops_per_s", |(_, v)| Value::Fixed(v[0], 1),
     "{encrypted_zircon_ops_per_s:.0}"),
    ("encry-Zircon-XPC", "encrypted_zircon_xpc_ops_per_s", |(_, v)| Value::Fixed(v[1], 1),
     "{encrypted_zircon_xpc_ops_per_s:.0}"),
    ("Zircon", "zircon_ops_per_s", |(_, v)| Value::Fixed(v[2], 1), "{zircon_ops_per_s:.0}"),
    ("Zircon-XPC", "zircon_xpc_ops_per_s", |(_, v)| Value::Fixed(v[3], 1),
     "{zircon_xpc_ops_per_s:.0}"),
];

/// Figure 8(c): HTTP throughput in ops/s, one curve per (encryption,
/// system), per file size.
pub struct Fig8c;

impl Experiment for Fig8c {
    type Grid = Vec<(u64, [f64; 4])>;

    fn compute() -> Self::Grid {
        let zircon: Factory = || Box::new(Zircon::new());
        let zircon_xpc: Factory = || Box::new(XpcIpc::zircon_xpc());
        // (encrypted, system) per curve, in column order.
        let curves = [
            (true, zircon),
            (true, zircon_xpc),
            (false, zircon),
            (false, zircon_xpc),
        ];
        // 16 independent (encryption, system, size) worlds through the
        // pool, reduced in cell order.
        let cells: Vec<(bool, Factory, u64)> = curves
            .iter()
            .flat_map(|&(encrypt, mk)| HTTP_SIZES.map(|s| (encrypt, mk, s)))
            .collect();
        let ops = simos::par::map_cells(cells, |_, (encrypt, mk, s), _| {
            let mut w = World::new(mk());
            let mut cache = FileCache::new();
            cache.put("/index.html", vec![b'x'; s as usize]);
            let aes = encrypt.then(|| AesServer::new(b"0123456789abcdef"));
            let mut srv = HttpServer::new(cache, aes);
            http_throughput_ops(&mut w, &mut srv, "/index.html", 50).expect("the cache holds it")
        });
        let n = HTTP_SIZES.len();
        let cell = |(i, &s): (usize, &u64)| (s, std::array::from_fn(|k| ops[k * n + i]));
        HTTP_SIZES.iter().enumerate().map(cell).collect()
    }

    fn json(grid: &Self::Grid) -> Value {
        let paper = [("encrypted_speedup", 10.0), ("plain_speedup", 12.0)];
        let cells = super::cell_json(&HTTP_COLUMNS, grid);
        super::with_paper(vec![("sizes", cells)], &paper)
    }

    fn layout() -> Layout {
        let caption = "HTTP server throughput, ops/s (paper: ~10x with encryption, ~12x without)";
        Layout::columns("Figure 8(c)", caption, "sizes", &HTTP_COLUMNS)
    }
}

#[cfg(test)]
mod tests {
    crate::experiments::claims_tests! {
        fig8: fig8ab_average_gains_in_band, a_and_f_gain_most_on_sel4, http_speedup_bands
    }
}
