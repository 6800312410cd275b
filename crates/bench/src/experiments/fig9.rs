//! **Figure 9** — Android Binder: window-manager/surface-compositor
//! transaction latency via the transaction buffer (a) and ashmem (b).

use super::{Column, Experiment, Layout};
use crate::json::Value;
use kernels::binder_latency_us;
use kernels::BinderSystem::{AshmemXpc, Binder, BinderXpc};

/// Figure 9(a) argument sizes.
pub const BUF_SIZES: [u64; 5] = [1024, 2048, 4096, 8192, 16384];

/// Figure 9(b) argument sizes.
pub const ASHMEM_SIZES: [u64; 8] = [
    4096,
    16384,
    65536,
    262144,
    1 << 20,
    4 << 20,
    16 << 20,
    32 << 20,
];

/// Figure 9(a)'s columns over (size, Binder us, Binder-XPC us) cells.
#[rustfmt::skip]
const BUF_COLUMNS: [Column<(u64, f64, f64)>; 4] = [
    ("Size", "size_bytes", |&(s, ..)| s.into(), "{size_bytes}B"),
    ("Binder", "binder_us", |&(_, b, _)| Value::Fixed(b, 2), "{binder_us:.1}us"),
    ("Binder-XPC", "binder_xpc_us", |&(.., x)| Value::Fixed(x, 2), "{binder_xpc_us:.1}us"),
    ("Speedup", "speedup", |&(_, b, x)| Value::Fixed(b / x, 2), "{speedup:.1}x"),
];

/// Figure 9(a): Binder and Binder-XPC latency per [`BUF_SIZES`].
pub struct Fig9a;

impl Experiment for Fig9a {
    type Grid = Vec<(u64, f64, f64)>;

    fn compute() -> Self::Grid {
        let us = |system, s| binder_latency_us(system, false, s);
        BUF_SIZES
            .iter()
            .map(|&s| (s, us(Binder, s), us(BinderXpc, s)))
            .collect()
    }

    fn json(grid: &Self::Grid) -> Value {
        let paper = [
            ("size_bytes", 2048.0),
            ("binder_us", 378.0),
            ("binder_xpc_us", 8.2),
            ("speedup", 46.2),
        ];
        let cells = super::cell_json(&BUF_COLUMNS, grid);
        super::with_paper(vec![("sizes", cells)], &paper)
    }

    fn layout() -> Layout {
        let caption = "Binder transaction latency via buffer (paper: 378us->8.2us at 2KB, 46.2x)";
        Layout::columns("Figure 9(a)", caption, "sizes", &BUF_COLUMNS)
    }
}

/// Figure 9(b)'s columns over (size, Binder us, Binder-XPC us,
/// Ashmem-XPC us) cells.
#[rustfmt::skip]
const ASHMEM_COLUMNS: [Column<(u64, f64, f64, f64)>; 4] = [
    ("Size", "size_bytes", |&(s, ..)| s.into(), "{size_bytes:/1024}KB"),
    ("Binder", "binder_us", |&(_, b, ..)| Value::Fixed(b, 2), "{binder_us:/1000.2}ms"),
    ("Binder-XPC", "binder_xpc_us", |&(_, _, x, _)| Value::Fixed(x, 2), "{binder_xpc_us:/1000.2}ms"),
    ("Ashmem-XPC", "ashmem_xpc_us", |&(.., a)| Value::Fixed(a, 2), "{ashmem_xpc_us:/1000.2}ms"),
];

/// Figure 9(b): Binder, Binder-XPC and Ashmem-XPC latency per
/// [`ASHMEM_SIZES`].
pub struct Fig9b;

impl Experiment for Fig9b {
    type Grid = Vec<(u64, f64, f64, f64)>;

    fn compute() -> Self::Grid {
        let us = |system, s| binder_latency_us(system, true, s);
        let at = |&s: &u64| (s, us(Binder, s), us(BinderXpc, s), us(AshmemXpc, s));
        ASHMEM_SIZES.iter().map(at).collect()
    }

    fn json(grid: &Self::Grid) -> Value {
        let paper = [("speedup_at_4kb", 54.2), ("speedup_at_32mb", 2.8)];
        let cells = super::cell_json(&ASHMEM_COLUMNS, grid);
        super::with_paper(vec![("sizes", cells)], &paper)
    }

    fn layout() -> Layout {
        let caption = "Binder latency via ashmem (paper: 54.2x at 4KB down to 2.8x at 32MB)";
        Layout::columns("Figure 9(b)", caption, "sizes", &ASHMEM_COLUMNS)
    }
}

#[cfg(test)]
mod tests {
    crate::experiments::claims_tests! {
        fig9: buffer_speedup_shrinks_with_size, ashmem_speedup_shrinks_toward_2_8x
    }
}
