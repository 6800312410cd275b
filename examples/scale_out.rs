//! §5.2 multi-core scale-out: the HTTP→cache→AES chain under a
//! closed-loop load generator on a 4-core world, swept over placement
//! policies. Baseline kernels pay IPI + remote wakeup + cache-line
//! transfer on every cross-core hop; XPC's migrating threads cross for
//! free, so only XPC turns extra cores into throughput.
//!
//! ```text
//! cargo run --release --example scale_out
//! ```

use xpc_repro::kernels::paired_roster_factories;
use xpc_repro::services::http::{chain_steps, ChainSpec, CHAIN_SERVICES};
use xpc_repro::simos::{load, LoadGen, MultiWorld, Placement};

fn main() {
    let mechanisms = paired_roster_factories();
    let policies = [
        Placement::SameCore,
        Placement::Pinned(vec![0, 1, 2, 3]),
        Placement::RoundRobin,
        Placement::LeastLoaded,
    ];
    let spec = LoadGen::default();

    println!(
        "{} clients x {} encrypted GETs on 4 cores (virtual time)\n",
        spec.clients, spec.requests
    );
    println!(
        "{:12} {:12} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "system", "placement", "req/s", "p50 us", "p95 us", "p99 us", "x-core"
    );
    for mk in mechanisms {
        let recipes: Vec<_> = [1024u64, 4096, 16384]
            .iter()
            .map(|&len| {
                chain_steps(
                    "/index.html",
                    len,
                    ChainSpec::default().with_handover(mk().supports_handover()),
                )
            })
            .collect();
        for policy in &policies {
            let mut mw = MultiWorld::builder().cores(4).build(mk);
            let r = load::run_windowed(&mut mw, policy, CHAIN_SERVICES, &recipes, &spec, 1);
            println!(
                "{:12} {:12} {:>9.0} {:>9.1} {:>9.1} {:>9.1} {:>6.0}%",
                r.system,
                r.policy,
                r.throughput_rps,
                r.p50_us,
                r.p95_us,
                r.p99_us,
                r.cross_core_fraction() * 100.0
            );
        }
        println!();
    }
    println!("note how spreading the Zircon chain can *lose* to one core,");
    println!("while the XPC variant scales out with zero cross-core cycles.");
}
