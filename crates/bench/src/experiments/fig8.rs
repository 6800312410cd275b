//! **Figure 8** — applications: Sqlite3/YCSB normalized throughput on
//! Zircon (a) and seL4 (b), and HTTP server throughput (c).

use super::Report;
use kernels::{Factory, Sel4, Sel4Transfer, XpcIpc, Zircon};
use minidb::{load, run_loaded};
use services::aes::AesServer;
use services::filecache::FileCache;
use services::http::{http_throughput_ops, HttpServer};
use simos::{IpcSystem, World};
use ycsb::{Workload, WorkloadSpec};

fn spec(wl: Workload) -> WorkloadSpec {
    WorkloadSpec {
        ops: 400,
        ..WorkloadSpec::paper(wl)
    }
}

/// Normalized YCSB throughput: (workload, Zircon-XPC/Zircon,
/// seL4-onecopy/seL4-twocopy, seL4-XPC/seL4-twocopy).
pub(crate) fn normalized() -> Vec<(&'static str, f64, f64, f64)> {
    let systems: [Factory; 5] = [
        || Box::new(Zircon::new()),
        || Box::new(XpcIpc::zircon_xpc()),
        || Box::new(Sel4::new(Sel4Transfer::TwoCopy)),
        || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
        || Box::new(XpcIpc::sel4_xpc()),
    ];
    // §5.4 loads one 1 000-record table and runs the six mixes against
    // it. The table does not depend on the mix or on who priced the load
    // (`run_loaded` discards those charges), so load it once, here, and
    // give each cell its own world and its own fork.
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

/// Regenerate Figure 8(a)+(b).
pub(crate) fn fig8ab() -> Report {
    let rows = normalized()
        .into_iter()
        .map(|(n, zx, s1, sx)| {
            vec![
                n.to_string(),
                format!("{zx:.2}x"),
                format!("{s1:.2}x"),
                format!("{sx:.2}x"),
            ]
        })
        .collect();
    Report {
        id: "Figure 8(a,b)",
        caption: "Sqlite3 YCSB throughput normalized to the baseline (paper: avg 2.08x Zircon, 1.6x seL4)",
        headers: vec![
            "Workload".into(),
            "Zircon-XPC / Zircon".into(),
            "seL4-onecopy / twocopy".into(),
            "seL4-XPC / twocopy".into(),
        ],
        rows,
    }
}

/// File sizes of Figure 8(c) in bytes.
const HTTP_SIZES: [usize; 4] = [512, 1024, 2048, 4096];

/// HTTP throughput in ops/s: (label, file size -> ops/s).
pub(crate) fn http_curves() -> Vec<(String, Vec<f64>)> {
    let zircon: Factory = || Box::new(Zircon::new());
    let zircon_xpc: Factory = || Box::new(XpcIpc::zircon_xpc());
    // (encrypted, system) per curve, in column order.
    let curves = [
        (true, zircon),
        (true, zircon_xpc),
        (false, zircon),
        (false, zircon_xpc),
    ];
    // 16 independent (encryption, system, size) worlds through the pool,
    // reduced in cell order.
    let cells: Vec<(bool, Factory, usize)> = curves
        .iter()
        .flat_map(|&(encrypt, mk)| HTTP_SIZES.map(|s| (encrypt, mk, s)))
        .collect();
    let ops = simos::par::map_cells(cells, |_, (encrypt, mk, s), _| {
        let mut w = World::new(mk());
        let mut cache = FileCache::new();
        cache.put("/index.html", vec![b'x'; s]);
        let aes = encrypt.then(|| AesServer::new(b"0123456789abcdef"));
        let mut srv = HttpServer::new(cache, aes);
        http_throughput_ops(&mut w, &mut srv, "/index.html", 50)
    });
    curves
        .iter()
        .zip(ops.chunks_exact(HTTP_SIZES.len()))
        .map(|(&(encrypt, mk), v)| {
            let label = format!("{}{}", if encrypt { "encry-" } else { "" }, mk().name());
            (label, v.to_vec())
        })
        .collect()
}

/// Regenerate Figure 8(c).
pub(crate) fn fig8c() -> Report {
    let curves = http_curves();
    let mut headers = vec!["File size".to_string()];
    headers.extend(curves.iter().map(|(n, _)| n.clone()));
    let rows = HTTP_SIZES
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut row = vec![format!("{s}B")];
            row.extend(curves.iter().map(|(_, v)| format!("{:.0}", v[i])));
            row
        })
        .collect();
    Report {
        id: "Figure 8(c)",
        caption: "HTTP server throughput, ops/s (paper: ~10x with encryption, ~12x without)",
        headers,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8ab_average_gains_in_band() {
        let n = normalized();
        let avg_z: f64 = n.iter().map(|r| r.1).sum::<f64>() / n.len() as f64;
        let avg_s: f64 = n.iter().map(|r| r.3).sum::<f64>() / n.len() as f64;
        // Paper: 108% (2.08x) on Zircon, 60% (1.6x) on seL4.
        assert!((1.3..4.0).contains(&avg_z), "Zircon avg {avg_z:.2}");
        assert!((1.2..3.5).contains(&avg_s), "seL4 avg {avg_s:.2}");
    }

    #[test]
    fn a_and_f_gain_most_on_sel4() {
        // Paper: "YCSB-A and YCSB-F gain the most improvement".
        let n = normalized();
        let gain = |name: &str| n.iter().find(|r| r.0 == name).unwrap().3;
        let gc = gain("YCSB-C");
        assert!(gain("YCSB-A") > gc, "A > C");
        assert!(gain("YCSB-F") > gc, "F > C");
    }

    #[test]
    fn http_speedup_bands() {
        let c = http_curves();
        let get = |n: &str| c.iter().find(|(l, _)| l == n).unwrap().1.clone();
        let enc = get("encry-Zircon");
        let enc_x = get("encry-Zircon-XPC");
        let plain = get("Zircon");
        let plain_x = get("Zircon-XPC");
        let enc_speedup = enc_x[2] / enc[2];
        let plain_speedup = plain_x[2] / plain[2];
        // Paper: ~10x with encryption, ~12x without.
        assert!(
            (5.0..20.0).contains(&plain_speedup),
            "plain {plain_speedup:.1}"
        );
        assert!(
            (4.0..16.0).contains(&enc_speedup),
            "encrypted {enc_speedup:.1}"
        );
        assert!(
            plain_speedup > enc_speedup,
            "encryption compute dilutes the IPC win: {plain_speedup:.1} vs {enc_speedup:.1}"
        );
    }
}
