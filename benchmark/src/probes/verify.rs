//! `xpc-verify` probes: the static checks `figures_all` runs before it
//! prices a recipe, and the ledger lint over the roster.

use super::per_second;
use crate::metrics::Metrics;
use crate::workloads::{chain, CHAIN_SERVICES};
use std::hint::black_box;
use xpc_verify::{check_program, crafted, lint, verify, Plan};

const PLAN_ROUNDS: u64 = 200;
const PROGRAM_CHECKS: u64 = 5_000;

pub fn run(m: &mut Metrics) {
    let plans = crafted::all_crafted();
    let rate = per_second(PLAN_ROUNDS * plans.len() as u64, || {
        for _ in 0..PLAN_ROUNDS {
            for c in &plans {
                black_box(verify(&c.plan, &c.recipes));
            }
        }
    });
    m.set("xpc-verify.verify_plans_per_s", rate);

    let program = chain(1024, 500, 256, true);
    let plan = Plan::for_program(CHAIN_SERVICES, &program);
    let rate = per_second(PROGRAM_CHECKS, || {
        for _ in 0..PROGRAM_CHECKS {
            black_box(check_program(&plan, "probe", black_box(&program)));
        }
    });
    m.set("xpc-verify.check_program_per_s", rate);

    let mut roster = ::kernels::full_roster();
    let rate = per_second(roster.len() as u64, || {
        for sys in &mut roster {
            black_box(lint::lint_system(sys.as_mut()));
        }
    });
    m.set("xpc-verify.lint_system_per_s", rate);
}
