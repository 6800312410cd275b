//! **Figure 7** — OS services: file-system read/write throughput (a, b)
//! and TCP throughput (c) across the five systems.

use super::{Column, Experiment, Layout};
use crate::json::Value;
use kernels::{Factory, Sel4, Sel4Transfer, XpcIpc, Zircon};
use services::fs::{FsClient, Xv6Fs};
use services::net::tcp_throughput_mb_s;
use simos::{IpcSystem, World};

/// Buffer sizes of Figure 7(a)/(b) in bytes.
pub const FS_BUFS: [u64; 4] = [2048, 4096, 8192, 16384];

/// Buffer sizes of Figure 7(c) in bytes.
pub const TCP_BUFS: [u64; 6] = [128, 256, 512, 1024, 2048, 4096];

/// The five systems of Figure 7(a)/(b); (c) compares the first two.
const SYSTEMS: [Factory; 5] = [
    || Box::new(Zircon::new()),
    || Box::new(XpcIpc::zircon_xpc()),
    || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
    || Box::new(Sel4::new(Sel4Transfer::TwoCopy)),
    || Box::new(XpcIpc::sel4_xpc()),
];

/// One curve per system over `bufs`: the independent (system, buffer)
/// cells go through the sweep pool, each building its own mechanism and
/// world, and are reduced in cell order.
fn curves(
    systems: &[Factory],
    bufs: &[u64],
    mb_s: impl Fn(Box<dyn IpcSystem>, u64) -> f64 + Sync,
) -> Vec<(String, Vec<f64>)> {
    let cells: Vec<(Factory, u64)> = systems
        .iter()
        .flat_map(|&mk| bufs.iter().map(move |&b| (mk, b)))
        .collect();
    let vals = simos::par::map_cells(cells, |_, (mk, b), _| mb_s(mk(), b));
    systems
        .iter()
        .zip(vals.chunks_exact(bufs.len()))
        .map(|(mk, v)| (mk().name(), v.to_vec()))
        .collect()
}

/// FS throughput in MB/s for one system and buffer size.
pub(crate) fn fs_throughput(mech: Box<dyn IpcSystem>, buf: u64, write: bool) -> f64 {
    let mut w = World::new(mech);
    let mut fs = Xv6Fs::mkfs(&mut w, 1 << 14);
    let ino = fs.create(&mut w, "bench");
    let data = vec![0xa5u8; buf as usize];
    // Pre-populate so reads hit allocated blocks.
    fs.write(&mut w, ino, 0, &vec![1u8; (buf * 4) as usize]);
    let start = w.cycles;
    let mut moved = 0u64;
    for i in 0..16u64 {
        let off = (i % 4) * buf;
        if write {
            FsClient::write(&mut fs, &mut w, ino, off, &data);
        } else {
            let got = FsClient::read(&mut fs, &mut w, ino, off, buf);
            assert_eq!(got.len() as u64, buf);
        }
        moved += buf;
    }
    w.cost.throughput_mb_s(moved, w.cycles - start)
}

/// All Figure 7(a)/(b) curves: (system, buf -> MB/s).
pub(crate) fn fs_curves(write: bool) -> Vec<(String, Vec<f64>)> {
    curves(&SYSTEMS, &FS_BUFS, |mech, b| fs_throughput(mech, b, write))
}

/// Figure 7(a,b)'s columns over (buffer, [MB/s per system]) cells,
/// systems in [`SYSTEMS`] order.
#[rustfmt::skip]
const FS_COLUMNS: [Column<(u64, [f64; 5])>; 6] = [
    ("Buffer", "buffer_bytes", |&(b, _)| b.into(), "{buffer_bytes:/1024}KB"),
    ("Zircon", "zircon_mb_s", |(_, v)| Value::Fixed(v[0], 3), "{zircon_mb_s:.1}"),
    ("Zircon-XPC", "zircon_xpc_mb_s", |(_, v)| Value::Fixed(v[1], 3), "{zircon_xpc_mb_s:.1}"),
    ("seL4-onecopy", "sel4_onecopy_mb_s", |(_, v)| Value::Fixed(v[2], 3), "{sel4_onecopy_mb_s:.1}"),
    ("seL4-twocopy", "sel4_twocopy_mb_s", |(_, v)| Value::Fixed(v[3], 3), "{sel4_twocopy_mb_s:.1}"),
    ("seL4-XPC", "sel4_xpc_mb_s", |(_, v)| Value::Fixed(v[4], 3), "{sel4_xpc_mb_s:.1}"),
];

/// Figure 7(a,b): read and write throughput per buffer size.
pub struct Fig7ab;

impl Experiment for Fig7ab {
    type Grid = [Vec<(u64, [f64; 5])>; 2];

    fn compute() -> Self::Grid {
        [false, true].map(|write| super::by_axis(&FS_BUFS, &fs_curves(write)))
    }

    fn json([read, write]: &Self::Grid) -> Value {
        let cells = |c| super::cell_json(&FS_COLUMNS, c);
        Value::Object(vec![("read", cells(read)), ("write", cells(write))])
    }

    fn layout() -> Layout {
        let caption = "FS read/write throughput (MB/s); read rows first, then write rows";
        Layout::columns("Figure 7(a,b)", caption, "read", &FS_COLUMNS)
            .banner("-- write --")
            .cells("write", &FS_COLUMNS)
    }
}

/// Figure 7(c)'s columns over (buffer, [Zircon, Zircon-XPC MB/s]) cells.
#[rustfmt::skip]
const TCP_COLUMNS: [Column<(u64, [f64; 2])>; 4] = [
    ("Buffer", "buffer_bytes", |&(b, _)| b.into(), "{buffer_bytes}B"),
    ("Zircon", "zircon_mb_s", |(_, v)| Value::Fixed(v[0], 3), "{zircon_mb_s:.2}"),
    ("Zircon-XPC", "zircon_xpc_mb_s", |(_, v)| Value::Fixed(v[1], 3), "{zircon_xpc_mb_s:.2}"),
    ("speedup", "speedup", |&(_, [z, x])| Value::Fixed(x / z, 2), "{speedup:.1}x"),
];

/// Figure 7(c): TCP throughput of Zircon and Zircon-XPC per
/// [`TCP_BUFS`].
pub struct Fig7c;

impl Experiment for Fig7c {
    type Grid = Vec<(u64, [f64; 2])>;

    fn compute() -> Self::Grid {
        let c = curves(&SYSTEMS[..2], &TCP_BUFS, |mech, b| {
            tcp_throughput_mb_s(&mut World::new(mech), b as usize, 1 << 20)
        });
        super::by_axis(&TCP_BUFS, &c)
    }

    fn json(grid: &Self::Grid) -> Value {
        let paper = [("avg_speedup", 6.0), ("max_speedup", 8.0)];
        let cells = super::cell_json(&TCP_COLUMNS, grid);
        super::with_paper(vec![("buffers", cells)], &paper)
    }

    fn layout() -> Layout {
        let caption =
            "TCP throughput vs buffer size (paper: ~6x average, up to 8x at small buffers)";
        Layout::columns("Figure 7(c)", caption, "buffers", &TCP_COLUMNS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve<'a>(curves: &'a [(String, Vec<f64>)], name: &str) -> &'a [f64] {
        &curves.iter().find(|(n, _)| n == name).unwrap().1
    }

    #[test]
    fn fig7a_read_speedups_in_band() {
        // Paper: XPC read speedups avg 7.8x vs Zircon, 3.8x vs seL4.
        let c = fs_curves(false);
        let zircon = curve(&c, "Zircon");
        let sel4 = curve(&c, "seL4-twocopy");
        let xpc = curve(&c, "seL4-XPC");
        let vs_zircon: f64 =
            xpc.iter().zip(zircon).map(|(x, z)| x / z).sum::<f64>() / xpc.len() as f64;
        let vs_sel4: f64 = xpc.iter().zip(sel4).map(|(x, s)| x / s).sum::<f64>() / xpc.len() as f64;
        assert!((3.0..15.0).contains(&vs_zircon), "vs Zircon {vs_zircon:.1}");
        assert!((1.5..8.0).contains(&vs_sel4), "vs seL4 {vs_sel4:.1}");
    }

    #[test]
    fn fig7b_write_gains_exceed_read_gains_vs_zircon() {
        // Paper: 7.8x read vs 13.2x write against Zircon — journaling
        // multiplies IPCs, so writes benefit more.
        let rd = fs_curves(false);
        let wr = fs_curves(true);
        let gain = |c: &[(String, Vec<f64>)]| {
            let z = curve(c, "Zircon");
            let x = curve(c, "Zircon-XPC");
            x.iter().zip(z).map(|(a, b)| a / b).sum::<f64>() / x.len() as f64
        };
        assert!(
            gain(&wr) > gain(&rd),
            "write gain {:.1} should exceed read gain {:.1}",
            gain(&wr),
            gain(&rd)
        );
    }

    #[test]
    fn fig7c_speedup_shrinks_with_buffer() {
        let c = Fig7c::compute();
        let speedup = |&(_, [z, x]): &(u64, [f64; 2])| x / z;
        let first = speedup(&c[0]);
        let last = speedup(c.last().unwrap());
        assert!(
            first > last,
            "batching helps Zircon: {first:.1} -> {last:.1}"
        );
        assert!(
            (3.0..12.0).contains(&first),
            "small-buffer speedup {first:.1}"
        );
    }

    #[test]
    fn onecopy_beats_twocopy() {
        let c = fs_curves(false);
        let one = curve(&c, "seL4-onecopy");
        let two = curve(&c, "seL4-twocopy");
        for (a, b) in one.iter().zip(two) {
            assert!(a > b);
        }
    }
}
