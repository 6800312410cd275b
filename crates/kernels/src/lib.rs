//! Kernel IPC models: seL4, Zircon, Android Binder, the historical
//! designs of Table 7, and their XPC-accelerated variants, calibrated
//! against the paper's measurements (Table 1, §2.2, §5.2, §5.5).
//!
//! Each model implements [`IpcSystem`] — the unified invocation pipeline
//! defined in `simos` — so the service stack (file system, network,
//! database, web server) runs unmodified on any of them, and every
//! invocation charges a phase-attributed [`CycleLedger`]. That is
//! exactly how the paper ports one workload across six systems and then
//! reports per-phase breakdowns (Table 1, Figure 5).

#![forbid(unsafe_code)]

pub mod binder;
pub mod historical;
pub mod parcel;
pub mod sel4;
pub mod xpc_ipc;
pub mod zircon;

pub use binder::{binder_latency_us, BinderConfig, BinderIpc, BinderSystem};
pub use historical::{table7, L4TempMap, Lrpc, Mach, PpcRemap, Table7Row};
pub use parcel::{surface_transaction, Parcel, ParcelError, Value};
pub use sel4::{Sel4, Sel4Transfer};
pub use xpc_ipc::XpcIpc;
pub use zircon::Zircon;

// The invocation pipeline itself, re-exported so downstream code can say
// `kernels::IpcSystem` without also depending on `simos`.
pub use simos::ipc::IpcSystem;
pub use simos::ledger::{CycleLedger, Invocation, InvokeOpts, Phase};
pub use simos::multicore::{CrossCore, XCoreCost};

/// A constructor for one system. For anything that needs *fresh*
/// instances — a [`simos::MultiWorld`] builds one system per core, a
/// sweep starts every cell cold — a boxed-roster walk cannot help.
pub type Factory = fn() -> Box<dyn IpcSystem>;

/// The paired roster of the scenario grids: each trap-based baseline
/// next to its XPC variant (Zircon, Zircon-XPC, seL4-onecopy, seL4-XPC).
pub fn paired_roster_factories() -> Vec<Factory> {
    vec![
        || Box::new(Zircon::new()),
        || Box::new(XpcIpc::zircon_xpc()),
        || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
        || Box::new(XpcIpc::sel4_xpc()),
    ]
}

/// Factories for the full roster, one per system, in [`full_roster`]
/// order.
pub fn full_roster_factories() -> Vec<Factory> {
    vec![
        || Box::new(Zircon::new()),
        || Box::new(XpcIpc::zircon_xpc()),
        || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
        || Box::new(Sel4::new(Sel4Transfer::TwoCopy)),
        || Box::new(XpcIpc::sel4_xpc()),
        || Box::new(Mach::new()),
        || Box::new(Lrpc::new()),
        || Box::new(L4TempMap::new()),
        || Box::new(PpcRemap::new()),
        || Box::new(BinderIpc::new(BinderSystem::Binder, false)),
        || Box::new(BinderIpc::new(BinderSystem::BinderXpc, false)),
        || Box::new(BinderIpc::new(BinderSystem::AshmemXpc, true)),
    ]
}

/// The full roster: the core evaluation systems plus the historical
/// designs of Table 7 and the Binder stack of Figure 9 — every model in
/// the repository, behind the one `IpcSystem` pipeline (the `figures
/// --json` dump walks this list).
pub fn full_roster() -> Vec<Box<dyn IpcSystem>> {
    full_roster_factories().into_iter().map(|mk| mk()).collect()
}

/// The full roster priced as *cross-core* calls: every system wrapped in
/// the §5.2 [`CrossCore`] adapter (IPI + remote wakeup + cache-line
/// transfer; zero for thread-migrating designs). This is what makes the
/// 81–141× / ~60× ratio bands testable over all 12 systems instead of
/// two hand-rolled variants.
pub fn full_roster_cross_core() -> Vec<Box<dyn IpcSystem>> {
    full_roster()
        .into_iter()
        .map(|s| Box::new(CrossCore::new(s)) as Box<dyn IpcSystem>)
        .collect()
}

/// Owned-[`Invocation`] shorthands for the unit tests: the sink methods
/// wrapped in [`Invocation::priced`].
#[cfg(test)]
pub(crate) mod testing {
    use super::{Invocation, InvokeOpts, IpcSystem};

    pub(crate) fn oneway<S: IpcSystem + ?Sized>(
        sys: &mut S,
        msg_len: usize,
        opts: &InvokeOpts,
    ) -> Invocation {
        Invocation::priced(|l| sys.oneway_into(msg_len, opts, l))
    }

    pub(crate) fn batch<S: IpcSystem + ?Sized>(
        sys: &mut S,
        calls: u64,
        bytes_each: usize,
        opts: &InvokeOpts,
    ) -> Invocation {
        Invocation::priced(|l| sys.invoke_batch_into(calls, bytes_each, opts, l))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_systems_have_distinct_names() {
        let names: Vec<String> = super::full_roster().iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
