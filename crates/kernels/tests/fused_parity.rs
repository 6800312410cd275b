//! Depth-1 parity: a one-hop fused [`CallProgram`] with no compute and
//! no handover must price **byte-identically** — same phase ledger,
//! same completion time, same copied bytes — to the equivalent
//! [`Step::Roundtrip`], for every mechanism in the full 12-system
//! roster. The fused path is a generalization, not a re-model: at
//! depth 1 the AnyCall submit-once shape degenerates to exactly one
//! call leg plus one reply leg.

use kernels::full_roster_factories;
use simos::{MultiWorld, Recipe, Step};

const REQUEST: u64 = 4096;
const RESPONSE: u64 = 512;

#[test]
fn depth_one_program_prices_identically_to_roundtrip_across_the_roster() {
    for mk in full_roster_factories() {
        let name = mk().name();
        let program = Recipe::new(0)
            .hop(1, REQUEST)
            .reply(RESPONSE)
            .build()
            .expect("one hop is a valid program");

        let mut fused_world = MultiWorld::builder().cores(2).build(mk);
        let pid = fused_world.register_program(program);
        let fused = fused_world.exec(0, Step::Fused(pid), 0);

        let mut rt_world = MultiWorld::builder().cores(2).build(mk);
        let rt = rt_world.exec(
            0,
            Step::Roundtrip {
                from: 0,
                to: 1,
                request: REQUEST,
                response: RESPONSE,
            },
            0,
        );

        assert_eq!(
            fused.inv.ledger, rt.inv.ledger,
            "{name}: fused depth-1 ledger diverges from the roundtrip"
        );
        assert_eq!(fused.inv.total(), rt.inv.total(), "{name}: total");
        assert_eq!(
            fused.inv.copied_bytes, rt.inv.copied_bytes,
            "{name}: copied bytes"
        );
        assert_eq!(fused.done, rt.done, "{name}: completion time");
    }
}
