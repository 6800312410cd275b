//! NUMA-aware scale-out: the HTTP chain on a dual-socket machine.
//!
//! First the hop view: every cross-core surcharge component (IPI, remote
//! wakeup, cache-line transfer) scales with socket distance, so a
//! trap-based kernel's remote-socket call costs 2x its local-socket one
//! — while XPC's migrating threads keep the intra-socket crossing free
//! and pay only the relay-segment line-distance term plus one remote
//! x-entry *shard* fetch across the interconnect.
//!
//! Then the load view: under windowed load, blind round robin ships half
//! the chains to the far socket; the NUMA-aware least-loaded policy only
//! jumps sockets once the local queue outgrows the distance penalty.
//!
//! ```text
//! cargo run --release --example numa
//! ```

use xpc_repro::kernels::paired_roster_factories;
use xpc_repro::services::http::{chain_steps, ChainSpec, CHAIN_SERVICES};
use xpc_repro::simos::{load, LoadGen, MultiWorld, Phase, Placement, Step, Topology};

fn main() {
    let mechanisms = paired_roster_factories();

    println!("one 4KiB call on a dual-socket box (2x4 cores, distance 2)\n");
    println!(
        "{:14} {:>10} {:>10} {:>10} {:>11}",
        "system", "local cyc", "remote cyc", "x-core", "shard miss"
    );
    for &mk in &mechanisms {
        let hop = |to: usize| {
            let mut mw = MultiWorld::builder()
                .topology(Topology::dual_socket())
                .build(mk);
            let step = Step::Oneway {
                from: 0,
                to,
                bytes: 4096,
            };
            mw.exec(0, step, 0).inv
        };
        let local = hop(1);
        let remote = hop(4);
        println!(
            "{:14} {:>10} {:>10} {:>10} {:>11}",
            mk().name(),
            local.total(),
            remote.total(),
            remote.ledger.get(Phase::CrossCore),
            remote.ledger.get(Phase::ShardMiss),
        );
    }

    let spec = LoadGen::default();
    println!(
        "\nHTTP chain, {} windowed clients (W=4) x {} encrypted GETs\n",
        spec.clients, spec.requests
    );
    println!(
        "{:14} {:12} {:12} {:>6} {:>8} {:>9} {:>7} {:>6}",
        "system", "topology", "placement", "cores", "req/s", "p99 us", "x-core", "queue"
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
        for (label, topo) in [
            ("u500", Topology::u500()),
            ("dual-socket", Topology::dual_socket()),
        ] {
            for policy in [Placement::RoundRobin, Placement::LeastLoaded] {
                let mut mw = MultiWorld::builder().topology(topo.clone()).build(mk);
                let r = load::run_windowed(&mut mw, &policy, CHAIN_SERVICES, &recipes, &spec, 4);
                println!(
                    "{:14} {:12} {:12} {:>6} {:>8.0} {:>9.1} {:>6.0}% {:>5.0}%",
                    r.system,
                    label,
                    r.policy,
                    r.cores,
                    r.throughput_rps,
                    r.p99_us,
                    r.cross_core_fraction() * 100.0,
                    r.queue_fraction() * 100.0,
                );
            }
        }
        println!();
    }
    println!("trap-based kernels pay the doubled surcharge on every remote hop;");
    println!("XPC pays only cache-line distance + one x-entry shard fetch, so the");
    println!("second socket is nearly free capacity under the least-loaded policy.");
}
