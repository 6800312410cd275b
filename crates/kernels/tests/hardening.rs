//! Temporal-mitigation pricing invariants over the full 12-system
//! roster: all-off is byte-identical to the unhardened model, every
//! mitigation costs something on the leg it guards, and XPC-engine
//! systems pay the hardware rate while trap baselines pay their
//! software equivalent.

use kernels::full_roster_factories;
use simos::{CostModel, Hardening, Invocation, InvokeOpts, IpcSystem, Phase};

fn oneway(sys: &mut dyn IpcSystem, len: usize, opts: &InvokeOpts) -> Invocation {
    Invocation::priced(|l| sys.oneway_into(len, opts, l))
}

fn tax(sys: &mut dyn IpcSystem, len: usize, h: Hardening) -> u64 {
    let base = oneway(sys, len, &InvokeOpts::call()).total();
    let hard = oneway(sys, len, &InvokeOpts::call().hardened(h)).total();
    hard - base
}

#[test]
fn all_off_is_byte_identical_to_the_unhardened_model() {
    for factory in full_roster_factories() {
        let mut sys = factory();
        for len in [0usize, 64, 4096, 16384] {
            for opts in [InvokeOpts::call(), InvokeOpts::reply_leg()] {
                let plain = oneway(sys.as_mut(), len, &opts);
                let off = oneway(sys.as_mut(), len, &opts.clone().hardened(Hardening::NONE));
                assert_eq!(plain, off, "{}: NONE must change nothing", sys.name());
            }
        }
    }
}

#[test]
fn every_mitigation_prices_its_leg() {
    let epochs = Hardening {
        revocation_epochs: true,
        ..Hardening::NONE
    };
    let scrub = Hardening {
        zero_on_handover: true,
        ..Hardening::NONE
    };
    let flow = Hardening {
        flow_tags: true,
        ..Hardening::NONE
    };
    for factory in full_roster_factories() {
        let mut sys = factory();
        let name = sys.name();
        assert!(
            tax(sys.as_mut(), 0, epochs) > 0,
            "{name}: epoch check must cost on the call leg"
        );
        assert!(
            tax(sys.as_mut(), 0, flow) > 0,
            "{name}: flow tag must cost on the call leg"
        );
        assert_eq!(
            tax(sys.as_mut(), 0, scrub),
            0,
            "{name}: nothing to scrub at 0 B"
        );
        let c = CostModel::u500();
        assert_eq!(
            tax(sys.as_mut(), 4096, scrub),
            c.scrub_cycles(4096),
            "{name}: scrub is the same per-byte store pass for everyone"
        );
        // The scrub lands in its own phase so the tax curve can see it.
        let inv = oneway(sys.as_mut(), 4096, &InvokeOpts::call().hardened(scrub));
        assert_eq!(inv.ledger.get(Phase::Scrub), c.scrub_cycles(4096));
    }
}

#[test]
fn engine_systems_pay_hardware_rates_and_baselines_software() {
    let c = CostModel::u500();
    let epochs = Hardening {
        revocation_epochs: true,
        ..Hardening::NONE
    };
    for factory in full_roster_factories() {
        let mut sys = factory();
        let name = sys.name();
        let got = tax(sys.as_mut(), 0, epochs);
        if name.contains("XPC") {
            assert_eq!(got, c.epoch_check, "{name}: engine-rate epoch check");
        } else {
            assert_eq!(got, c.epoch_check_sw, "{name}: software-rate epoch check");
        }
    }
}

#[test]
fn reply_legs_reverify_flow_tags_but_not_epochs() {
    let c = CostModel::u500();
    for factory in full_roster_factories() {
        let mut sys = factory();
        let name = sys.name();
        let base = oneway(sys.as_mut(), 0, &InvokeOpts::reply_leg()).total();
        let epochs = oneway(
            sys.as_mut(),
            0,
            &InvokeOpts::reply_leg().hardened(Hardening {
                revocation_epochs: true,
                ..Hardening::NONE
            }),
        )
        .total();
        assert_eq!(epochs, base, "{name}: the cap was checked on the call leg");
        let flow = oneway(
            sys.as_mut(),
            0,
            &InvokeOpts::reply_leg().hardened(Hardening {
                flow_tags: true,
                ..Hardening::NONE
            }),
        )
        .total();
        let want = if name.contains("XPC") {
            c.flow_tag
        } else {
            c.flow_tag_sw
        };
        assert_eq!(flow - base, want, "{name}: the return pops a tagged record");
    }
}
