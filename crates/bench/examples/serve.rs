//! Quickstart for the open-loop serving layer: generate a seeded
//! Poisson trace, replay it against one mechanism at three offered
//! loads, and watch the tail walk off past the knee.
//!
//! ```text
//! cargo run -p xpc-bench --example serve
//! ```

use kernels::XpcIpc;
use services::http::{chain_steps, ChainSpec, CHAIN_SERVICES};
use simos::{
    ArrivalProcess, MultiWorld, OpenLoopGen, Placement, ServePolicy, ServeSpec, Step, TenantClass,
    Topology,
};

fn roster(_: &mut MultiWorld) -> Vec<Vec<Step>> {
    [1024u64, 4096, 16384]
        .iter()
        .map(|&len| chain_steps("/index.html", len, ChainSpec::default().with_handover(true)))
        .collect()
}

fn main() {
    let mk = || Box::new(XpcIpc::sel4_xpc()) as Box<dyn simos::IpcSystem>;

    // Measure this (mechanism, topology, recipe mix)'s saturation
    // period, then express offered load as a fraction of it.
    let topo = Topology::u500();
    let period =
        xpc_bench::experiments::serve::calibrate_capacity_period(&topo, mk, CHAIN_SERVICES, roster);
    println!("calibrated capacity: one request per {period} cycles at saturation\n");

    let spec = ServeSpec {
        tenants: 2,
        classes: vec![TenantClass {
            queue_cap: 1 << 20,
            slo_p99_us: 500.0,
        }],
        backlog_cap_cycles: 0,
    };
    println!("rho    offered/s   goodput/s   p50 us      p99 us      queue%");
    for rho_x10 in [5u64, 10, 15] {
        let gen = OpenLoopGen {
            process: ArrivalProcess::Poisson,
            mean_interarrival_cycles: (period * 10 / rho_x10).max(1),
            tenants: 2,
            users: 1_000_000,
            seed: 7,
        };
        let trace = gen.trace(4_000, 3).expect("valid trace spec");
        let mut mw = MultiWorld::builder().topology(topo.clone()).build(mk);
        let recipes = roster(&mut mw);
        let r = simos::serve::serve(
            &mut mw,
            &ServePolicy::Static(Placement::RoundRobin),
            CHAIN_SERVICES,
            &recipes,
            &trace,
            &spec,
        )
        .expect("serve");
        println!(
            "{}.{}    {:<11.0} {:<11.0} {:<11.1} {:<11.1} {:.0}%",
            rho_x10 / 10,
            rho_x10 % 10,
            r.offered_rps,
            r.goodput_rps,
            r.p50_us,
            r.p99_us,
            r.queue_fraction() * 100.0,
        );
    }
    println!("\nThe p50 barely moves until rho reaches 1.0; past it the queues never");
    println!("drain and both percentiles grow without bound — the knee a closed-loop");
    println!("generator (which self-throttles at capacity) can never produce.");
}
