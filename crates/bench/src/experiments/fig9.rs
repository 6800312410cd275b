//! **Figure 9** — Android Binder: window-manager/surface-compositor
//! transaction latency via the transaction buffer (a) and ashmem (b).

use super::Report;
use kernels::{binder_latency_us, BinderSystem};

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

/// Regenerate Figure 9(a).
pub(crate) fn fig9a() -> Report {
    let rows = BUF_SIZES
        .iter()
        .map(|&s| {
            let b = binder_latency_us(BinderSystem::Binder, false, s);
            let x = binder_latency_us(BinderSystem::BinderXpc, false, s);
            vec![
                format!("{s}B"),
                format!("{b:.1}us"),
                format!("{x:.1}us"),
                format!("{:.1}x", b / x),
            ]
        })
        .collect();
    Report {
        id: "Figure 9(a)",
        caption: "Binder transaction latency via buffer (paper: 378us->8.2us at 2KB, 46.2x)",
        headers: vec![
            "Size".into(),
            "Binder".into(),
            "Binder-XPC".into(),
            "Speedup".into(),
        ],
        rows,
    }
}

/// Regenerate Figure 9(b).
pub(crate) fn fig9b() -> Report {
    let rows = ASHMEM_SIZES
        .iter()
        .map(|&s| {
            let b = binder_latency_us(BinderSystem::Binder, true, s);
            let bx = binder_latency_us(BinderSystem::BinderXpc, true, s);
            let ax = binder_latency_us(BinderSystem::AshmemXpc, true, s);
            vec![
                format!("{}KB", s / 1024),
                format!("{:.2}ms", b / 1000.0),
                format!("{:.2}ms", bx / 1000.0),
                format!("{:.2}ms", ax / 1000.0),
            ]
        })
        .collect();
    Report {
        id: "Figure 9(b)",
        caption: "Binder latency via ashmem (paper: 54.2x at 4KB down to 2.8x at 32MB)",
        headers: vec![
            "Size".into(),
            "Binder".into(),
            "Binder-XPC".into(),
            "Ashmem-XPC".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_speedup_shrinks_with_size() {
        let s2k = binder_latency_us(BinderSystem::Binder, false, 2048)
            / binder_latency_us(BinderSystem::BinderXpc, false, 2048);
        let s16k = binder_latency_us(BinderSystem::Binder, false, 16384)
            / binder_latency_us(BinderSystem::BinderXpc, false, 16384);
        assert!(s2k > s16k);
        assert!((25.0..60.0).contains(&s2k), "2KB {s2k:.1}x (paper 46.2x)");
    }

    #[test]
    fn ashmem_speedup_shrinks_toward_2_8x() {
        let small = binder_latency_us(BinderSystem::Binder, true, 4096)
            / binder_latency_us(BinderSystem::BinderXpc, true, 4096);
        let large = binder_latency_us(BinderSystem::Binder, true, 32 << 20)
            / binder_latency_us(BinderSystem::BinderXpc, true, 32 << 20);
        assert!(small > 10.0, "4KB {small:.1}x (paper 54.2x)");
        assert!((2.0..4.5).contains(&large), "32MB {large:.1}x (paper 2.8x)");
    }
}
