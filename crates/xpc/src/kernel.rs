//! The prototype kernel: XPC's control plane (§3, §4.2).
//!
//! The kernel runs host-side (it is the machine's firmware/supervisor, not
//! emulated instruction-by-instruction) and manages the four XPC object
//! classes of §4.1: the global x-entry table, per-thread link stacks,
//! per-thread capability bitmaps and per-address-space seg-lists. User
//! code — clients, trampolines, handlers — executes for real on the
//! emulator, and every trap bounces through an M-mode stub back to this
//! control plane.

use crate::error::XpcError;
use crate::layout::{
    CAP_BITMAP_BYTES, C_STACK_BYTES, KSTUB_PA, PALLOC_BASE, SEG_LIST_SLOTS, USER_CODE_VA,
    USER_DATA_VA, USER_STACK_PAGES, USER_STACK_TOP, XENTRY_TABLE_ENTRIES, XENTRY_TABLE_PA,
};
use crate::pagetable::{AddressSpace, PagePerms};
use crate::palloc::{FrameAlloc, FRAME_BYTES};
use crate::seg::{SegHandle, SegOwner, SegRegistry};
use crate::thread::{RuntimeState, SchedState};
use crate::trampoline::{emit_callee_trampoline, TrampolineSpec};
use rv64::cpu::Mode;
use rv64::machine::{Core, Exit};
use rv64::mem::DRAM_BASE;
use rv64::trap::Cause;
use rv64::{reg, Assembler, Machine, MachineConfig};
use xpc_engine::layout::{LinkageRecord, SegDescriptor, LINK_RECORD_BYTES, LINK_STACK_BYTES};
use xpc_engine::{SegMask, SegReg, XEntry, XpcEngine, XpcEngineConfig};

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub u64);

/// Thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub u64);

/// x-entry identifier (index into the global table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct XEntryId(pub u64);

/// Error value delivered in `a0` when the kernel unwinds a call whose
/// callee/caller terminated (§4.2 returns "a timeout error").
pub const ERR_TIMEOUT: u64 = (-110i64) as u64;

/// Syscall numbers (in `a7`) understood by the kernel stub.
pub mod syscall {
    /// Exit the current thread; `a0` = exit value.
    pub const EXIT: u64 = 0;
    /// No-op/yield (resumes immediately; scheduling is modelled elsewhere).
    pub const YIELD: u64 = 1;
}

/// What happened when the kernel ran the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelEvent {
    /// Thread exited via the exit syscall; carries `a0`.
    ThreadExit(u64),
    /// User code hit `ebreak` (scenario checkpoint).
    Break,
    /// An XPC or other exception the kernel does not auto-handle.
    Fault {
        /// Trap cause.
        cause: Cause,
        /// Trap value.
        tval: u64,
        /// Faulting PC.
        epc: u64,
    },
    /// Instruction budget exhausted.
    Timeout,
    /// Machine timer fired (preemption point); the interrupted thread is
    /// left resumable via [`XpcKernel::resume_thread`].
    TimerFired,
}

/// Kernel-side hardening switches: the runtime twins of the three
/// temporal rules `xpc-verify` checks statically. Each switch prices a
/// mitigation the static rule proves unnecessary for verified plans:
///
/// * **revocation epochs** — [`XpcKernel::revoke_entry`] opens a new
///   epoch for an x-entry and clears the cap bit in *every* thread's
///   bitmap, so no stale capability from before the revocation
///   survives (a later `xcall` traps `InvalidXcallCap`);
/// * **zero-on-handover** — [`XpcKernel::handover_seg`] scrubs every
///   byte of the relay segment *outside* the masked message window
///   before the receiver can see it, closing the residue leak the
///   static taint automaton flags;
/// * **flow tags** — [`XpcKernel::grant_xcall`] refuses to mint a
///   capability across tenant boundaries ([`XpcKernel::set_tenant`]),
///   so no return can ever pop another tenant's linkage record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelHardening {
    /// Bulk-revoke x-entries with per-entry epochs.
    pub revocation_epochs: bool,
    /// Scrub relay-segment residue on cross-process handover.
    pub zero_on_handover: bool,
    /// Refuse cross-tenant capability grants.
    pub flow_tags: bool,
}

impl KernelHardening {
    /// Every mitigation off (the paper's baseline kernel).
    pub const NONE: KernelHardening = KernelHardening {
        revocation_epochs: false,
        zero_on_handover: false,
        flow_tags: false,
    };
    /// Every mitigation on.
    pub const ALL: KernelHardening = KernelHardening {
        revocation_epochs: true,
        zero_on_handover: true,
        flow_tags: true,
    };
}

#[derive(Debug)]
struct Process {
    space: AddressSpace,
    seg_list_pa: u64,
    code_cursor: u64,
    data_cursor: u64,
    alive: bool,
    /// Tenant label for the flow-tag mitigation (default 0).
    tenant: u64,
}

#[derive(Debug)]
struct Thread {
    process: ProcessId,
    #[allow(dead_code)]
    sched: SchedState,
    runtime: RuntimeState,
    /// x-entries this thread may grant (grant-cap, §4.2).
    grant_caps: Vec<u64>,
}

#[derive(Debug, Clone)]
struct EntryInfo {
    #[allow(dead_code)]
    handler_va: u64,
    /// Physical address of the §6.1 credit table, when enabled.
    credit_table_pa: Option<u64>,
    /// Credit slots in use: (slot, thread), for uniqueness checks.
    credit_slots: Vec<(u64, u64)>,
    /// Revocation epoch: bumped by [`XpcKernel::revoke_entry`]; a cap
    /// granted before the bump no longer exists in any bitmap.
    epoch: u64,
}

/// Boot configuration of the prototype kernel.
#[derive(Debug, Clone)]
pub struct XpcKernelConfig {
    /// Machine timing model.
    pub machine: MachineConfig,
    /// Engine feature configuration.
    pub engine: XpcEngineConfig,
}

impl Default for XpcKernelConfig {
    fn default() -> Self {
        XpcKernelConfig {
            machine: MachineConfig::rocket_u500(),
            engine: XpcEngineConfig::paper_default(),
        }
    }
}

/// The kernel: machine + control-plane state. See the module docs.
///
/// # Example
///
/// Register an x-entry in one process and call it from another (compare
/// the paper's Listing 1):
///
/// ```
/// use rv64::{reg, Assembler};
/// use xpc::kernel::{syscall, KernelEvent, XpcKernel, XpcKernelConfig};
/// use xpc::layout::USER_CODE_VA;
/// use xpc_engine::XpcAsm;
///
/// # fn main() -> Result<(), xpc::XpcError> {
/// let mut k = XpcKernel::boot(XpcKernelConfig::default());
/// let server_proc = k.create_process()?;
/// let server = k.create_thread(server_proc)?;
/// let mut h = Assembler::new(USER_CODE_VA);
/// h.addi(reg::A0, reg::A0, 1); // handler: a0 += 1
/// h.ret();
/// let handler = k.load_code(server_proc, &h.assemble())?;
/// let entry = k.register_entry(server, server, handler, 1)?;
///
/// let client_proc = k.create_process()?;
/// let client = k.create_thread(client_proc)?;
/// k.grant_xcall(server, client, entry)?;
/// let mut c = Assembler::new(USER_CODE_VA);
/// c.li(reg::T6, entry.0 as i64);
/// c.xcall(reg::T6);
/// c.li(reg::A7, syscall::EXIT as i64);
/// c.ecall();
/// let main = k.load_code(client_proc, &c.assemble())?;
/// k.enter_thread(client, main, &[41])?;
/// assert_eq!(k.run(1_000_000)?, KernelEvent::ThreadExit(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct XpcKernel {
    /// The emulated machine (public for measurement: cycles, caches...).
    pub machine: Machine,
    alloc: FrameAlloc,
    processes: Vec<Process>,
    threads: Vec<Thread>,
    entries: Vec<Option<EntryInfo>>,
    /// Relay segment registry (public for invariant checks in tests).
    pub segs: SegRegistry,
    current: Option<ThreadId>,
    next_asid: u16,
    hardening: KernelHardening,
}

impl XpcKernel {
    /// Boot: install the engine, the M-mode trap stub and the global
    /// x-entry table.
    ///
    /// # Panics
    ///
    /// If `cfg.machine`'s DRAM ends before the kernel's frame pool
    /// (`layout::PALLOC_BASE`), which also holds the x-entry table.
    pub fn boot(cfg: XpcKernelConfig) -> Self {
        let mut machine =
            Machine::with_extension(cfg.machine.clone(), Box::new(XpcEngine::new(cfg.engine)));
        // M-mode stub: a single ebreak; every trap surfaces to the host.
        machine.load_program_at(KSTUB_PA, &[0x0010_0073]);
        machine.core.cpu.csr.mtvec = KSTUB_PA;
        let dram_len = machine.core.cfg.dram_size as u64;
        let alloc = FrameAlloc::new(PALLOC_BASE, DRAM_BASE + dram_len - PALLOC_BASE);
        let mut kernel = XpcKernel {
            machine,
            alloc,
            processes: Vec::new(),
            threads: Vec::new(),
            entries: {
                // Entry 0 stays reserved: the engine-cache prefetch
                // encoding (negative ID in xcall) cannot express it.
                let mut v: Vec<Option<EntryInfo>> = vec![None; XENTRY_TABLE_ENTRIES as usize];
                v[0] = Some(EntryInfo {
                    handler_va: 0,
                    credit_table_pa: None,
                    credit_slots: Vec::new(),
                    epoch: 0,
                });
                v
            },
            segs: SegRegistry::new(),
            current: None,
            next_asid: 1,
            hardening: KernelHardening::NONE,
        };
        // Zero the x-entry table and point the engine at it; the base is
        // colored off the page boundary (see create_thread on coloring).
        let table_pa = XENTRY_TABLE_PA + 192;
        for i in 0..XENTRY_TABLE_ENTRIES {
            let e = XEntry {
                page_table: 0,
                cap_ptr: 0,
                entry_pc: 0,
                valid: false,
            };
            e.store(&mut kernel.machine.core, table_pa, i)
                .expect("table in DRAM");
        }
        kernel.machine.core.cycles = 0; // boot-time writes are not charged
        kernel.machine.core.dcache.flush();
        {
            let (_, ext) = kernel.machine.split();
            let eng = ext
                .as_any_mut()
                .downcast_mut::<XpcEngine>()
                .expect("xpc engine installed");
            eng.regs.x_entry_table = table_pa;
            eng.regs.x_entry_table_size = XENTRY_TABLE_ENTRIES;
        }
        kernel
    }

    /// Typed access to the engine.
    ///
    /// # Panics
    ///
    /// If [`XpcKernel::machine`] was replaced by a machine without the
    /// XPC engine that [`XpcKernel::boot`] installs.
    pub fn engine(&mut self) -> &mut XpcEngine {
        self.machine
            .extension()
            .as_any_mut()
            .downcast_mut::<XpcEngine>()
            .expect("xpc engine installed")
    }

    fn engine_and_core(&mut self) -> (&mut Core, &mut XpcEngine) {
        let (core, ext) = self.machine.split();
        let eng = ext
            .as_any_mut()
            .downcast_mut::<XpcEngine>()
            .expect("xpc engine installed");
        (core, eng)
    }

    // ---- processes & threads -------------------------------------------

    /// Create a process: fresh address space, stack pages, seg-list page.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn create_process(&mut self) -> Result<ProcessId, XpcError> {
        let asid = self.next_asid;
        self.next_asid += 1;
        let mem = &mut self.machine.core.mem;
        let mut space = AddressSpace::new(mem, &mut self.alloc, asid)?;
        space.map_fresh(
            mem,
            &mut self.alloc,
            USER_STACK_TOP - USER_STACK_PAGES * FRAME_BYTES,
            USER_STACK_PAGES,
            PagePerms::UserData,
        )?;
        let seg_list_pa = self.alloc.alloc()?;
        crate::pagetable::zero_frame(mem, seg_list_pa);
        self.processes.push(Process {
            space,
            seg_list_pa,
            code_cursor: USER_CODE_VA,
            data_cursor: USER_DATA_VA,
            alive: true,
            tenant: 0,
        });
        Ok(ProcessId(self.processes.len() as u64 - 1))
    }

    fn process(&self, pid: ProcessId) -> Result<&Process, XpcError> {
        self.processes
            .get(pid.0 as usize)
            .ok_or(XpcError::NoSuchProcess(pid.0))
    }

    fn process_mut(&mut self, pid: ProcessId) -> Result<&mut Process, XpcError> {
        self.processes
            .get_mut(pid.0 as usize)
            .ok_or(XpcError::NoSuchProcess(pid.0))
    }

    /// Load `words` as code into `pid`'s next code slot; returns its VA.
    ///
    /// # Errors
    ///
    /// Out-of-memory or unknown process.
    pub fn load_code(&mut self, pid: ProcessId, words: &[u32]) -> Result<u64, XpcError> {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let pages = (bytes.len() as u64).div_ceil(FRAME_BYTES).max(1);
        let va = {
            let proc = self.process(pid)?;
            proc.code_cursor
        };
        let pa = {
            let (mem, alloc) = (&mut self.machine.core.mem, &mut self.alloc);
            let proc = self
                .processes
                .get_mut(pid.0 as usize)
                .ok_or(XpcError::NoSuchProcess(pid.0))?;
            let pa = proc
                .space
                .map_fresh(mem, alloc, va, pages, PagePerms::UserCode)?;
            proc.code_cursor += pages * FRAME_BYTES;
            pa
        };
        self.machine.core.mem.load_bytes(pa, &bytes);
        Ok(va)
    }

    /// Map `pages` fresh data pages into `pid`; returns `(va, pa)`.
    ///
    /// # Errors
    ///
    /// Out-of-memory or unknown process.
    pub fn alloc_data(&mut self, pid: ProcessId, pages: u64) -> Result<(u64, u64), XpcError> {
        let (mem, alloc) = (&mut self.machine.core.mem, &mut self.alloc);
        let proc = self
            .processes
            .get_mut(pid.0 as usize)
            .ok_or(XpcError::NoSuchProcess(pid.0))?;
        let va = proc.data_cursor;
        let pa = proc
            .space
            .map_fresh(mem, alloc, va, pages, PagePerms::UserData)?;
        proc.data_cursor += pages * FRAME_BYTES;
        Ok((va, pa))
    }

    /// Create a thread in `pid` with fresh capability bitmap + link stack.
    ///
    /// The small per-thread objects are *cache-colored*: the L1 D-cache is
    /// virtually indexed with a 4 KiB way, so page-aligned hot structures
    /// would all land in cache set 0 and thrash; a real kernel allocator
    /// staggers them, and so do we.
    ///
    /// # Errors
    ///
    /// Out-of-memory or unknown process.
    pub fn create_thread(&mut self, pid: ProcessId) -> Result<ThreadId, XpcError> {
        let satp = self.process(pid)?.space.satp_raw();
        let seg_list_pa = self.process(pid)?.seg_list_pa;
        let tid = self.threads.len() as u64;
        let cap_frame = self.alloc.alloc()?;
        crate::pagetable::zero_frame(&mut self.machine.core.mem, cap_frame);
        let cap_pa = cap_frame + ((tid * 5 + 3) % 13) * 256;
        debug_assert!(cap_pa + CAP_BITMAP_BYTES <= cap_frame + FRAME_BYTES);
        // One extra frame leaves room for the coloring offset.
        let link_frames = LINK_STACK_BYTES / FRAME_BYTES + 1;
        let link_frame = self.alloc.alloc_contig(link_frames)?;
        for i in 0..link_frames {
            crate::pagetable::zero_frame(&mut self.machine.core.mem, link_frame + i * FRAME_BYTES);
        }
        let link_pa = link_frame + ((tid * 3 + 1) % 8) * 448;
        let kstack = self.alloc.alloc()?;
        self.threads.push(Thread {
            process: pid,
            sched: SchedState::new(kstack),
            runtime: RuntimeState::new(cap_pa, link_pa, seg_list_pa, satp),
            grant_caps: Vec::new(),
        });
        Ok(ThreadId(self.threads.len() as u64 - 1))
    }

    fn thread(&self, tid: ThreadId) -> Result<&Thread, XpcError> {
        self.threads
            .get(tid.0 as usize)
            .ok_or(XpcError::NoSuchThread(tid.0))
    }

    fn thread_mut(&mut self, tid: ThreadId) -> Result<&mut Thread, XpcError> {
        self.threads
            .get_mut(tid.0 as usize)
            .ok_or(XpcError::NoSuchThread(tid.0))
    }

    /// The process a thread belongs to.
    ///
    /// # Errors
    ///
    /// Unknown thread.
    pub fn thread_process(&self, tid: ThreadId) -> Result<ProcessId, XpcError> {
        Ok(self.thread(tid)?.process)
    }

    // ---- x-entries & capabilities --------------------------------------

    /// Register an x-entry (Listing 1's `xpc_register_entry`): installs the
    /// library trampoline with `max_contexts` C-stacks in front of
    /// `handler_va` and grants the registering `owner` thread the
    /// grant-cap.
    ///
    /// # Errors
    ///
    /// Table full / out-of-memory / unknown ids.
    pub fn register_entry(
        &mut self,
        owner: ThreadId,
        handler_thread: ThreadId,
        handler_va: u64,
        max_contexts: u64,
    ) -> Result<XEntryId, XpcError> {
        self.register_entry_impl(owner, handler_thread, handler_va, max_contexts, false)
    }

    /// Like [`XpcKernel::register_entry`], but the trampoline enforces the
    /// §6.1 credit system: callers must be funded with
    /// [`XpcKernel::grant_xcall_with_credits`] and each invocation charges
    /// one credit; at zero the call fails fast with
    /// [`crate::trampoline::ERR_NO_CREDIT`].
    ///
    /// # Errors
    ///
    /// Table full / out-of-memory / unknown ids.
    pub fn register_entry_with_credits(
        &mut self,
        owner: ThreadId,
        handler_thread: ThreadId,
        handler_va: u64,
        max_contexts: u64,
    ) -> Result<XEntryId, XpcError> {
        self.register_entry_impl(owner, handler_thread, handler_va, max_contexts, true)
    }

    fn register_entry_impl(
        &mut self,
        owner: ThreadId,
        handler_thread: ThreadId,
        handler_va: u64,
        max_contexts: u64,
        credits: bool,
    ) -> Result<XEntryId, XpcError> {
        let pid = self.thread(owner)?.process;
        let handler_cap = self.thread(handler_thread)?.runtime.cap_bitmap_pa;
        let id = self
            .entries
            .iter()
            .position(|e| e.is_none())
            .ok_or(XpcError::TableFull)? as u64;

        // Context flags page + C-stacks, in the owner process's space.
        let flag_pages = (max_contexts * 8).div_ceil(FRAME_BYTES).max(1);
        let (flags_va, _) = self.alloc_data(pid, flag_pages)?;
        let stack_pages = max_contexts * C_STACK_BYTES.div_ceil(FRAME_BYTES);
        let (cstacks_va, _) = self.alloc_data(pid, stack_pages)?;
        let (credit_table_va, credit_table_pa) = if credits {
            let pages = (crate::trampoline::CREDIT_SLOTS * 8).div_ceil(FRAME_BYTES);
            let (va, pa) = self.alloc_data(pid, pages)?;
            (Some(va), Some(pa))
        } else {
            (None, None)
        };

        // Trampoline code.
        let tramp_base = self.process(pid)?.code_cursor;
        let mut a = Assembler::new(tramp_base);
        emit_callee_trampoline(
            &mut a,
            &TrampolineSpec {
                flags_va,
                cstacks_va,
                c_stack_bytes: C_STACK_BYTES,
                max_contexts,
                handler_va,
                credit_table_va,
            },
        );
        let trampoline_va = self.load_code(pid, &a.assemble())?;
        debug_assert_eq!(trampoline_va, tramp_base);

        // Hardware entry.
        let satp = self.process(pid)?.space.satp_raw();
        let entry = XEntry {
            page_table: satp,
            cap_ptr: handler_cap,
            entry_pc: trampoline_va,
            valid: true,
        };
        let table_pa = self.engine().regs.x_entry_table;
        entry
            .store(&mut self.machine.core, table_pa, id)
            .expect("table in DRAM");
        self.engine().invalidate_cache();

        self.entries[id as usize] = Some(EntryInfo {
            handler_va,
            credit_table_pa,
            credit_slots: Vec::new(),
            epoch: 0,
        });
        self.thread_mut(owner)?.grant_caps.push(id);
        Ok(XEntryId(id))
    }

    /// Register a *raw* x-entry with no trampoline (used by benches that
    /// measure the bare hardware path).
    ///
    /// # Errors
    ///
    /// Table full / unknown ids.
    ///
    /// # Panics
    ///
    /// If the x-entry table [`XpcKernel::boot`] placed is not in DRAM
    /// (a kernel bug).
    pub fn register_raw_entry(
        &mut self,
        owner: ThreadId,
        handler_thread: ThreadId,
        entry_pc: u64,
    ) -> Result<XEntryId, XpcError> {
        let pid = self.thread(owner)?.process;
        let handler_cap = self.thread(handler_thread)?.runtime.cap_bitmap_pa;
        let id = self
            .entries
            .iter()
            .position(|e| e.is_none())
            .ok_or(XpcError::TableFull)? as u64;
        let satp = self.process(pid)?.space.satp_raw();
        let entry = XEntry {
            page_table: satp,
            cap_ptr: handler_cap,
            entry_pc,
            valid: true,
        };
        let table_pa = self.engine().regs.x_entry_table;
        entry
            .store(&mut self.machine.core, table_pa, id)
            .expect("table in DRAM");
        self.engine().invalidate_cache();
        self.entries[id as usize] = Some(EntryInfo {
            handler_va: entry_pc,
            credit_table_pa: None,
            credit_slots: Vec::new(),
            epoch: 0,
        });
        self.thread_mut(owner)?.grant_caps.push(id);
        Ok(XEntryId(id))
    }

    /// Grant `grantee` the xcall capability for `entry`. The granter must
    /// hold the grant-cap (§4.2). With
    /// [`KernelHardening::flow_tags`] enabled the grant is additionally
    /// refused when granter and grantee live in different tenants — the
    /// runtime twin of the static tenant-flow rule.
    ///
    /// # Errors
    ///
    /// Missing grant-cap, cross-tenant grant under flow tags, or
    /// unknown ids.
    ///
    /// # Panics
    ///
    /// If the grantee's capability bitmap is not in DRAM (a kernel bug:
    /// a held grant-cap names a registered entry, whose bit lies in it).
    pub fn grant_xcall(
        &mut self,
        granter: ThreadId,
        grantee: ThreadId,
        entry: XEntryId,
    ) -> Result<(), XpcError> {
        if !self.thread(granter)?.grant_caps.contains(&entry.0) {
            return Err(XpcError::NoGrantCap {
                thread: granter.0,
                entry: entry.0,
            });
        }
        if self.hardening.flow_tags {
            let granter_tenant = self.process(self.thread(granter)?.process)?.tenant;
            let grantee_tenant = self.process(self.thread(grantee)?.process)?.tenant;
            if granter_tenant != grantee_tenant {
                return Err(XpcError::CrossTenantGrant {
                    granter_tenant,
                    grantee_tenant,
                    entry: entry.0,
                });
            }
        }
        let cap_pa = self.thread(grantee)?.runtime.cap_bitmap_pa;
        debug_assert!(entry.0 / 8 < CAP_BITMAP_BYTES);
        let byte_pa = cap_pa + entry.0 / 8;
        let old = self
            .machine
            .core
            .mem
            .read(byte_pa, 1)
            .expect("bitmap in DRAM");
        self.machine
            .core
            .mem
            .write(byte_pa, 1, old | (1 << (entry.0 % 8)))
            .expect("bitmap in DRAM");
        Ok(())
    }

    /// Pass the grant-cap itself to another thread (§4.2: a thread may
    /// grant either xcall or grant capabilities onward).
    ///
    /// # Errors
    ///
    /// Missing grant-cap or unknown ids.
    pub fn grant_grant(
        &mut self,
        granter: ThreadId,
        grantee: ThreadId,
        entry: XEntryId,
    ) -> Result<(), XpcError> {
        if !self.thread(granter)?.grant_caps.contains(&entry.0) {
            return Err(XpcError::NoGrantCap {
                thread: granter.0,
                entry: entry.0,
            });
        }
        let g = self.thread_mut(grantee)?;
        if !g.grant_caps.contains(&entry.0) {
            g.grant_caps.push(entry.0);
        }
        Ok(())
    }

    /// Grant the xcall capability *and* fund the caller with `credits`
    /// invocations of a credit-enforcing entry (§6.1).
    ///
    /// # Errors
    ///
    /// Missing grant-cap, unknown ids, entry without a credit table, or a
    /// credit-slot collision (two callers whose identities alias — the
    /// kernel refuses rather than letting one drain the other).
    ///
    /// # Panics
    ///
    /// If the entry's credit table is not in DRAM (a kernel bug).
    pub fn grant_xcall_with_credits(
        &mut self,
        granter: ThreadId,
        grantee: ThreadId,
        entry: XEntryId,
        credits: u64,
    ) -> Result<(), XpcError> {
        self.grant_xcall(granter, grantee, entry)?;
        let cap_pa = self.thread(grantee)?.runtime.cap_bitmap_pa;
        let slot = crate::trampoline::credit_slot_for_cap(cap_pa);
        let info = self.entries[entry.0 as usize]
            .as_mut()
            .ok_or(XpcError::NoSuchEntry(entry.0))?;
        let table_pa = info.credit_table_pa.ok_or(XpcError::NoSuchEntry(entry.0))?;
        if info
            .credit_slots
            .iter()
            .any(|&(s, t)| s == slot && t != grantee.0)
        {
            // Credit-slot collision: two callers whose identities alias.
            return Err(XpcError::SegListFull);
        }
        if !info.credit_slots.contains(&(slot, grantee.0)) {
            info.credit_slots.push((slot, grantee.0));
        }
        self.machine
            .core
            .mem
            .write(table_pa + slot * 8, 8, credits)
            .expect("credit table in DRAM");
        Ok(())
    }

    /// Refill a caller's credits for `entry` (the server-side policy of
    /// §6.1 deciding to keep serving a client).
    ///
    /// # Errors
    ///
    /// Unknown ids or entry without credits.
    ///
    /// # Panics
    ///
    /// If the entry's credit table is not in DRAM (a kernel bug).
    pub fn refill_credits(
        &mut self,
        entry: XEntryId,
        thread: ThreadId,
        credits: u64,
    ) -> Result<(), XpcError> {
        let table_pa = self.credit_table(entry)?;
        let cap_pa = self.thread(thread)?.runtime.cap_bitmap_pa;
        let slot = crate::trampoline::credit_slot_for_cap(cap_pa);
        self.machine
            .core
            .mem
            .write(table_pa + slot * 8, 8, credits)
            .expect("credit table in DRAM");
        Ok(())
    }

    /// Remaining credits of `thread` at `entry`.
    ///
    /// # Errors
    ///
    /// Unknown ids or entry without credits.
    ///
    /// # Panics
    ///
    /// If the entry's credit table is not in DRAM (a kernel bug).
    pub fn credits_of(&mut self, entry: XEntryId, thread: ThreadId) -> Result<u64, XpcError> {
        let table_pa = self.credit_table(entry)?;
        let cap_pa = self.thread(thread)?.runtime.cap_bitmap_pa;
        let slot = crate::trampoline::credit_slot_for_cap(cap_pa);
        Ok(self
            .machine
            .core
            .mem
            .read(table_pa + slot * 8, 8)
            .expect("credit table in DRAM"))
    }

    /// The registration of `entry`.
    fn entry_info(&self, entry: XEntryId) -> Result<&EntryInfo, XpcError> {
        self.entries
            .get(entry.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(XpcError::NoSuchEntry(entry.0))
    }

    fn credit_table(&self, entry: XEntryId) -> Result<u64, XpcError> {
        self.entry_info(entry)?
            .credit_table_pa
            .ok_or(XpcError::NoSuchEntry(entry.0))
    }

    /// Revoke `thread`'s xcall capability for `entry`.
    ///
    /// # Errors
    ///
    /// Unknown ids: a thread that does not exist, or an entry that is
    /// not registered (its bit would lie outside the capability bitmap).
    ///
    /// # Panics
    ///
    /// If the thread's capability bitmap is not in DRAM (a kernel bug).
    pub fn revoke_xcall(&mut self, thread: ThreadId, entry: XEntryId) -> Result<(), XpcError> {
        let cap_pa = self.thread(thread)?.runtime.cap_bitmap_pa;
        self.entry_info(entry)?;
        let byte_pa = cap_pa + entry.0 / 8;
        let old = self
            .machine
            .core
            .mem
            .read(byte_pa, 1)
            .expect("bitmap in DRAM");
        self.machine
            .core
            .mem
            .write(byte_pa, 1, old & !(1 << (entry.0 % 8)))
            .expect("bitmap in DRAM");
        Ok(())
    }

    // ---- hardening (runtime twins of the xpc-verify temporal rules) ----

    /// Switch the hardening mitigations on or off.
    pub fn set_hardening(&mut self, h: KernelHardening) {
        self.hardening = h;
    }

    /// Label `pid` with a tenant for the flow-tag mitigation. Processes
    /// default to tenant 0.
    ///
    /// # Errors
    ///
    /// Unknown process.
    pub fn set_tenant(&mut self, pid: ProcessId, tenant: u64) -> Result<(), XpcError> {
        self.process_mut(pid)?.tenant = tenant;
        Ok(())
    }

    /// The tenant label of a process.
    ///
    /// # Errors
    ///
    /// Unknown process.
    pub fn process_tenant(&self, pid: ProcessId) -> Result<u64, XpcError> {
        Ok(self.process(pid)?.tenant)
    }

    /// Revoke `entry` from **every** thread and open a new revocation
    /// epoch: with [`KernelHardening::revocation_epochs`] the epoch
    /// counter bumps (so [`XpcKernel::entry_epoch`] dates outstanding
    /// grants), and in either case the cap bit is cleared from every
    /// bitmap — a later `xcall` through a pre-revocation grant traps
    /// `InvalidXcallCap`.
    ///
    /// # Errors
    ///
    /// Unknown entry.
    pub fn revoke_entry(&mut self, entry: XEntryId) -> Result<(), XpcError> {
        self.entry_info(entry)?;
        for tid in 0..self.threads.len() as u64 {
            self.revoke_xcall(ThreadId(tid), entry)?;
        }
        if self.hardening.revocation_epochs {
            if let Some(Some(info)) = self.entries.get_mut(entry.0 as usize) {
                info.epoch += 1;
            }
        }
        Ok(())
    }

    /// The revocation epoch of an entry (0 until the first
    /// epoch-enabled [`XpcKernel::revoke_entry`]).
    ///
    /// # Errors
    ///
    /// Unknown entry.
    pub fn entry_epoch(&self, entry: XEntryId) -> Result<u64, XpcError> {
        Ok(self.entry_info(entry)?.epoch)
    }

    // ---- relay segments -------------------------------------------------

    /// Allocate a relay segment of `len` bytes owned by `owner`
    /// (Listing 1's `alloc_relay_mem`).
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn alloc_relay_seg(&mut self, owner: ThreadId, len: u64) -> Result<SegHandle, XpcError> {
        self.thread(owner)?;
        let h = self.segs.alloc(&mut self.alloc, len, owner.0, true)?;
        debug_assert!(self.segs.check_invariants().is_ok());
        Ok(h)
    }

    /// Allocate a §6.2 *relay-page-table* segment of `pages` pages with
    /// scattered backing frames, owned by `owner`. Unlike
    /// [`XpcKernel::alloc_relay_seg`] the memory need not be physically
    /// contiguous — the fragmentation concern of §6.1 — at the cost of
    /// one extra walk access per translation and page-granular masks.
    ///
    /// # Errors
    ///
    /// Out-of-memory, which includes a `pages` of 0 or of more than the
    /// 512 that the segment's one-frame relay page table maps.
    ///
    /// # Panics
    ///
    /// If a frame the allocator returned is not in DRAM (a kernel bug).
    pub fn alloc_relay_pt_seg(
        &mut self,
        owner: ThreadId,
        pages: u64,
    ) -> Result<SegHandle, XpcError> {
        self.thread(owner)?;
        let (h, table_pa, frames) = self
            .segs
            .alloc_paged(&mut self.alloc, pages, owner.0, true)?;
        crate::pagetable::zero_frame(&mut self.machine.core.mem, table_pa);
        for (i, f) in frames.iter().enumerate() {
            crate::pagetable::zero_frame(&mut self.machine.core.mem, *f);
            self.machine
                .core
                .mem
                .write(table_pa + 8 * i as u64, 8, f >> 12)
                .expect("relay page table in DRAM");
        }
        debug_assert!(self.segs.check_invariants().is_ok());
        Ok(h)
    }

    /// Free a relay segment, returning its frames to the allocator (the
    /// single-owner rule means the caller must currently own it).
    ///
    /// # Errors
    ///
    /// Ownership violation, an unknown handle included.
    ///
    /// # Panics
    ///
    /// If a paged segment's relay page table is not in DRAM (a kernel
    /// bug).
    pub fn free_relay_seg(&mut self, owner: ThreadId, h: SegHandle) -> Result<(), XpcError> {
        match self.segs.owner(h) {
            SegOwner::Thread(t) if t == owner.0 => {}
            other => {
                return Err(XpcError::SegNotOwned {
                    seg: h.0,
                    owner: match other {
                        SegOwner::Thread(t) => Some(t),
                        _ => None,
                    },
                })
            }
        }
        // Paged segments: return the data frames first (read the table).
        let seg = self.segs.seg_reg(h);
        if seg.paged {
            for i in 0..seg.len / FRAME_BYTES {
                let ppn = self
                    .machine
                    .core
                    .mem
                    .read(seg.pa_base + 8 * i, 8)
                    .expect("relay page table in DRAM");
                if ppn != 0 {
                    self.alloc.free(ppn << 12);
                }
            }
        }
        self.segs.free(&mut self.alloc, h);
        Ok(())
    }

    /// Resolve a byte offset inside segment `h` to a physical address
    /// (host-side; follows the relay page table for paged segments).
    fn seg_offset_pa(&mut self, h: SegHandle, offset: u64) -> u64 {
        let seg = self.segs.seg_reg(h);
        assert!(offset < seg.len, "offset escapes segment");
        if !seg.paged {
            return seg.pa_base + offset;
        }
        let slot = seg.pa_base + (offset >> 12) * 8;
        let ppn = self.machine.core.mem.read(slot, 8).expect("table in DRAM");
        (ppn << 12) | (offset & 0xfff)
    }

    /// Make `h` the live seg-reg of `thread` (must be the owner).
    ///
    /// # Errors
    ///
    /// Ownership violation or unknown thread.
    pub fn install_seg(&mut self, thread: ThreadId, h: SegHandle) -> Result<(), XpcError> {
        match self.segs.owner(h) {
            SegOwner::Thread(t) if t == thread.0 => {}
            other => {
                return Err(XpcError::SegNotOwned {
                    seg: h.0,
                    owner: match other {
                        SegOwner::Thread(t) => Some(t),
                        _ => None,
                    },
                })
            }
        }
        let seg = self.segs.seg_reg(h);
        if self.current == Some(thread) {
            let (core, eng) = self.engine_and_core();
            eng.regs.seg = seg;
            eng.regs.mask = SegMask::none();
            eng.sync_seg_window(core);
        } else {
            let rt = &mut self.thread_mut(thread)?.runtime;
            rt.seg = seg;
            rt.mask = SegMask::none();
        }
        Ok(())
    }

    /// Hand the relay segment `h` — currently live in `from`'s seg-reg —
    /// over to `to`: registry ownership and the (possibly shrunk) mask
    /// window move together, exactly like the engine's handover
    /// transition along a calling chain (§4.4: the window never widens
    /// across the transfer). With [`KernelHardening::zero_on_handover`]
    /// enabled and a **cross-process** handover, every byte of the
    /// segment *outside* the masked window is zeroed first — the residue
    /// a previous holder left behind is exactly what the static taint
    /// automaton flags as a leak. Returns the number of bytes scrubbed
    /// (0 when the mitigation is off, the handover stays in-process, or
    /// the mask covers the whole segment).
    ///
    /// # Errors
    ///
    /// Ownership violation (including a segment the sender owns but has
    /// not installed in its seg-reg) or unknown thread.
    pub fn handover_seg(
        &mut self,
        from: ThreadId,
        to: ThreadId,
        h: SegHandle,
    ) -> Result<u64, XpcError> {
        match self.segs.owner(h) {
            SegOwner::Thread(t) if t == from.0 => {}
            other => {
                return Err(XpcError::SegNotOwned {
                    seg: h.0,
                    owner: match other {
                        SegOwner::Thread(t) => Some(t),
                        _ => None,
                    },
                })
            }
        }
        let from_pid = self.thread(from)?.process;
        let to_pid = self.thread(to)?.process;
        self.save_current();
        let (seg, mask) = {
            let rt = &self.thread(from)?.runtime;
            (rt.seg, rt.mask)
        };
        if seg != self.segs.seg_reg(h) {
            return Err(XpcError::SegNotOwned {
                seg: h.0,
                owner: Some(from.0),
            });
        }
        let mut scrubbed = 0u64;
        if self.hardening.zero_on_handover && from_pid != to_pid {
            // The receiver's view is the masked window; everything
            // outside it is residue from earlier holders. An unset mask
            // means the whole segment is the message — nothing to scrub.
            let (win_start, win_end) = if mask.is_set() {
                let s = mask.va_base.saturating_sub(seg.va_base).min(seg.len);
                let e = (mask.va_base + mask.len)
                    .saturating_sub(seg.va_base)
                    .min(seg.len);
                (s, e.max(s))
            } else {
                (0, seg.len)
            };
            scrubbed = win_start + (seg.len - win_end);
            if win_start > 0 {
                self.zero_seg_range(h, 0, win_start)?;
            }
            if win_end < seg.len {
                self.zero_seg_range(h, win_end, seg.len - win_end)?;
            }
        }
        {
            let rt = &mut self.thread_mut(from)?.runtime;
            rt.seg = SegReg::invalid();
            rt.mask = SegMask::none();
        }
        {
            // Same transition the engine applies on `xcall`: the
            // receiver's segment *is* the masked window (so any later
            // mask write that would widen past it traps), mask cleared.
            let rt = &mut self.thread_mut(to)?.runtime;
            rt.seg = seg.masked(mask);
            rt.mask = SegMask::none();
        }
        self.segs.transfer(h, SegOwner::Thread(to.0))?;
        debug_assert!(self.segs.check_invariants().is_ok());
        // Either end may be the running thread: push the moved window
        // into the live engine registers.
        if let Some(cur) = self.current.filter(|&c| c == from || c == to) {
            let rt = self.thread(cur)?.runtime;
            let (core, eng) = self.engine_and_core();
            eng.regs.seg = rt.seg;
            eng.regs.mask = rt.mask;
            eng.sync_seg_window(core);
        }
        Ok(scrubbed)
    }

    /// Zero `[offset, offset + len)` of segment `h`, page-sized chunks.
    fn zero_seg_range(&mut self, h: SegHandle, offset: u64, len: u64) -> Result<(), XpcError> {
        const ZEROS: [u8; 4096] = [0; 4096];
        let mut pos = 0u64;
        while pos < len {
            let take = usize::try_from((len - pos).min(4096)).expect("chunk fits usize");
            self.write_seg(h, offset + pos, &ZEROS[..take])?;
            pos += take as u64;
        }
        Ok(())
    }

    /// Stash `h` into `pid`'s seg-list at `slot` (for `swapseg`).
    ///
    /// # Errors
    ///
    /// Bad slot, unknown ids, or a handle that is unknown or freed
    /// (checked before the seg-list is written).
    ///
    /// # Panics
    ///
    /// If the process's seg-list is not in DRAM (a kernel bug).
    pub fn stash_seg(&mut self, pid: ProcessId, slot: u64, h: SegHandle) -> Result<(), XpcError> {
        if slot >= SEG_LIST_SLOTS {
            return Err(XpcError::SegListFull);
        }
        let list_pa = self.process(pid)?.seg_list_pa;
        if self.segs.owner(h) == SegOwner::Freed {
            let (seg, owner) = (h.0, None);
            return Err(XpcError::SegNotOwned { seg, owner });
        }
        let seg = self.segs.seg_reg(h);
        SegDescriptor { seg, valid: true }
            .store(&mut self.machine.core, list_pa, slot)
            .expect("seg list in DRAM");
        self.segs.transfer(h, SegOwner::ListSlot(pid.0, slot))?;
        Ok(())
    }

    /// Write guest-visible bytes into a segment (host-side convenience;
    /// handles both contiguous and paged segments).
    ///
    /// # Errors
    ///
    /// [`XpcError::SegOutOfBounds`] when the range escapes the segment —
    /// including `offset + len` values that would wrap 64-bit arithmetic
    /// (the sum is checked, so a huge `offset` cannot sneak past the
    /// bound by overflowing).
    pub fn write_seg(&mut self, h: SegHandle, offset: u64, bytes: &[u8]) -> Result<(), XpcError> {
        let seg = self.segs.seg_reg(h);
        let in_bounds = offset
            .checked_add(bytes.len() as u64)
            .is_some_and(|end| end <= seg.len);
        if !in_bounds {
            return Err(XpcError::SegOutOfBounds {
                seg: h.0,
                offset,
                len: bytes.len() as u64,
            });
        }
        let mut pos = 0usize;
        while pos < bytes.len() {
            let off = offset + pos as u64;
            let in_page = (4096 - (off & 0xfff)) as usize;
            let take = in_page.min(bytes.len() - pos);
            let pa = self.seg_offset_pa(h, off);
            self.machine
                .core
                .mem
                .load_bytes(pa, &bytes[pos..pos + take]);
            pos += take;
        }
        Ok(())
    }

    /// Read bytes back out of a segment (host-side convenience; handles
    /// both contiguous and paged segments).
    ///
    /// # Errors
    ///
    /// [`XpcError::SegOutOfBounds`] when the range escapes the segment
    /// (checked addition — a wrapping `offset + len` cannot bypass it).
    pub fn read_seg(&mut self, h: SegHandle, offset: u64, len: usize) -> Result<Vec<u8>, XpcError> {
        let seg = self.segs.seg_reg(h);
        let in_bounds = offset
            .checked_add(len as u64)
            .is_some_and(|end| end <= seg.len);
        if !in_bounds {
            return Err(XpcError::SegOutOfBounds {
                seg: h.0,
                offset,
                len: len as u64,
            });
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = 0usize;
        while pos < len {
            let off = offset + pos as u64;
            let in_page = (4096 - (off & 0xfff)) as usize;
            let take = in_page.min(len - pos);
            let pa = self.seg_offset_pa(h, off);
            out.extend(self.machine.core.mem.read_bytes(pa, take));
            pos += take;
        }
        Ok(out)
    }

    // ---- running ---------------------------------------------------------

    /// Save the engine per-thread registers into `current`'s runtime state.
    fn save_current(&mut self) {
        if let Some(cur) = self.current {
            let (core, eng) = self.engine_and_core();
            let regs = eng.regs;
            let pc = core.cpu.pc;
            let sp = core.cpu.x(reg::SP);
            let satp = core.cpu.csr.satp;
            let mut gprs = [0u64; 32];
            for (i, g) in gprs.iter_mut().enumerate() {
                *g = core.cpu.x(i as u8);
            }
            let rt = &mut self.threads[cur.0 as usize].runtime;
            rt.gprs = gprs;
            rt.cap_bitmap_pa = regs.xcall_cap;
            rt.link_stack_pa = regs.link;
            rt.link_sp = regs.link_sp;
            rt.seg = regs.seg;
            rt.mask = regs.mask;
            rt.seg_list_pa = regs.seg_list;
            rt.satp = satp;
            rt.pc = pc;
            rt.sp = sp;
        }
    }

    /// Context-switch to `tid` and start it at `pc_va` with `args` in
    /// `a0..`. Saves the engine per-thread registers of the previous
    /// thread first (§4.1's context-switch rule).
    ///
    /// # Errors
    ///
    /// Unknown thread.
    pub fn enter_thread(
        &mut self,
        tid: ThreadId,
        pc_va: u64,
        args: &[u64],
    ) -> Result<(), XpcError> {
        self.save_current();
        let rt = self.thread(tid)?.runtime;
        let (core, eng) = self.engine_and_core();
        eng.regs.xcall_cap = rt.cap_bitmap_pa;
        eng.regs.link = rt.link_stack_pa;
        eng.regs.link_sp = rt.link_sp;
        eng.regs.seg = rt.seg;
        eng.regs.mask = rt.mask;
        eng.regs.seg_list = rt.seg_list_pa;
        eng.regs.seg_list_size = SEG_LIST_SLOTS;
        eng.sync_seg_window(core);
        core.cpu.csr.satp = rt.satp;
        if !core.mmu.tlb.tagged() {
            core.mmu.tlb.flush_all();
        }
        core.cpu.mode = Mode::User;
        core.cpu.pc = pc_va;
        core.cpu.set_x(reg::SP, USER_STACK_TOP - 16);
        for (i, v) in args.iter().enumerate().take(8) {
            core.cpu.set_x(reg::A0 + i as u8, *v);
        }
        self.current = Some(tid);
        Ok(())
    }

    /// Resume a previously preempted (or descheduled) thread exactly where
    /// it stopped: full register file, engine per-thread state, address
    /// space.
    ///
    /// # Errors
    ///
    /// Unknown thread.
    pub fn resume_thread(&mut self, tid: ThreadId) -> Result<(), XpcError> {
        self.save_current();
        let rt = self.thread(tid)?.runtime;
        let (core, eng) = self.engine_and_core();
        eng.regs.xcall_cap = rt.cap_bitmap_pa;
        eng.regs.link = rt.link_stack_pa;
        eng.regs.link_sp = rt.link_sp;
        eng.regs.seg = rt.seg;
        eng.regs.mask = rt.mask;
        eng.regs.seg_list = rt.seg_list_pa;
        eng.regs.seg_list_size = SEG_LIST_SLOTS;
        eng.sync_seg_window(core);
        core.cpu.csr.satp = rt.satp;
        if !core.mmu.tlb.tagged() {
            core.mmu.tlb.flush_all();
        }
        core.cpu.mode = Mode::User;
        core.cpu.pc = rt.pc;
        for (i, g) in rt.gprs.iter().enumerate() {
            core.cpu.set_x(i as u8, *g);
        }
        self.current = Some(tid);
        Ok(())
    }

    /// Arm the machine timer to fire `delta` cycles from now (preemptive
    /// scheduling tick). Pass 0 to disarm.
    pub fn set_timer(&mut self, delta: u64) {
        let core = &mut self.machine.core;
        core.cpu.csr.mtimecmp = if delta == 0 { 0 } else { core.cycles + delta };
        core.cpu.csr.mie |= rv64::machine::MTIE;
    }

    /// Run until a kernel-visible event, handling recoverable traps
    /// (syscalls, termination unwinding) internally.
    ///
    /// # Errors
    ///
    /// [`XpcError::GuestFault`] on unrecoverable simulator errors.
    pub fn run(&mut self, max_instr: u64) -> Result<KernelEvent, XpcError> {
        let mut budget = max_instr;
        loop {
            // `RunResult::instret` is the machine's cumulative counter;
            // this call's budget pays only for what it retired itself.
            let before = self.machine.core.instret;
            let r = self
                .machine
                .run(budget)
                .map_err(|e| XpcError::GuestFault(e.to_string()))?;
            budget = budget.saturating_sub(r.instret - before);
            match r.exit {
                Exit::LimitReached => return Ok(KernelEvent::Timeout),
                Exit::Exited(code) => return Ok(KernelEvent::ThreadExit(code)),
                Exit::Break => {
                    if self.machine.core.cpu.pc != KSTUB_PA {
                        return Ok(KernelEvent::Break);
                    }
                    // Trap bounced off the M-mode stub: dispatch.
                    match self.handle_trap()? {
                        Some(ev) => return Ok(ev),
                        None => {
                            if budget == 0 {
                                return Ok(KernelEvent::Timeout);
                            }
                            continue;
                        }
                    }
                }
            }
        }
    }

    /// Handle the trap recorded in the M-mode CSRs. `Ok(None)` means the
    /// kernel resolved it and execution should resume.
    fn handle_trap(&mut self) -> Result<Option<KernelEvent>, XpcError> {
        let (mcause, mtval, mepc) = {
            let c = &self.machine.core.cpu.csr;
            (c.mcause, c.mtval, c.mepc)
        };
        if mcause == rv64::machine::MCAUSE_TIMER {
            // Preemption tick: disarm, make the interrupted thread
            // resumable (PC back to the interrupted instruction) and let
            // the scheduler (the host caller) decide who runs next.
            self.machine.core.cpu.csr.mtimecmp = 0;
            self.machine.core.cpu.pc = mepc;
            self.machine.core.cpu.mode = Mode::User;
            return Ok(Some(KernelEvent::TimerFired));
        }
        let cause = Cause::from_code(mcause).unwrap_or(Cause::IllegalInst);
        match cause {
            Cause::EcallFromU => {
                let a7 = self.machine.core.cpu.x(reg::A7);
                let a0 = self.machine.core.cpu.x(reg::A0);
                match a7 {
                    syscall::EXIT => Ok(Some(KernelEvent::ThreadExit(a0))),
                    syscall::YIELD => {
                        self.resume_user(mepc + 4);
                        Ok(None)
                    }
                    _ => Ok(Some(KernelEvent::ThreadExit(a0))),
                }
            }
            // §4.2 Application Termination: an xret hit a dead linkage
            // record — unwind past the dead frames to the closest live
            // caller.
            Cause::InvalidLinkage => self.unwind_dead_chain(),
            // Execution faulted inside a zeroed (terminated) address
            // space: the *current* domain is dead, so return control to
            // its (live) caller directly.
            Cause::InstPageFault | Cause::LoadPageFault | Cause::StorePageFault
                if !self.satp_alive(self.machine.core.cpu.csr.satp) =>
            {
                if self.force_timeout_unwind()? {
                    Ok(None)
                } else {
                    Ok(Some(KernelEvent::Fault {
                        cause,
                        tval: mtval,
                        epc: mepc,
                    }))
                }
            }
            _ => Ok(Some(KernelEvent::Fault {
                cause,
                tval: mtval,
                epc: mepc,
            })),
        }
    }

    fn resume_user(&mut self, pc: u64) {
        let core = &mut self.machine.core;
        core.cpu.mode = Mode::User;
        core.cpu.pc = pc;
    }

    fn satp_alive(&self, satp: u64) -> bool {
        self.processes
            .iter()
            .any(|p| p.alive && p.space.satp_raw() == satp)
    }

    /// Pop linkage records until one belonging to a live process is found;
    /// restore it and deliver `ERR_TIMEOUT` in `a0` (§4.2's behaviour for
    /// chains whose middle died). Returns a Fault event if nothing on the
    /// stack is live.
    /// §6.1 timeout mechanism: forcibly return control to the most recent
    /// caller with [`ERR_TIMEOUT`] in `a0`, abandoning the running callee.
    /// The kernel (policy) decides *when*; this is the mechanism. Returns
    /// `false` when the current thread has no outstanding call to unwind.
    ///
    /// # Errors
    ///
    /// Guest faults while reading the link stack.
    pub fn force_timeout_unwind(&mut self) -> Result<bool, XpcError> {
        let (link, link_sp) = {
            let eng = self.engine();
            (eng.regs.link, eng.regs.link_sp)
        };
        if link_sp < LINK_RECORD_BYTES {
            return Ok(false);
        }
        let off = link_sp - LINK_RECORD_BYTES;
        let rec = LinkageRecord::load(&mut self.machine.core, link, off)
            .map_err(|t| XpcError::GuestFault(t.to_string()))?;
        if !rec.valid || !self.satp_alive(rec.satp) {
            // Dead frame: let the ordinary unwinder walk further.
            return match self.unwind_dead_chain()? {
                None => Ok(true),
                Some(_) => Ok(false),
            };
        }
        let (core, eng) = self.engine_and_core();
        eng.regs.link_sp = off;
        eng.regs.xcall_cap = rec.xcall_cap;
        eng.regs.seg_list = rec.seg_list;
        eng.regs.seg = rec.seg;
        eng.regs.mask = rec.mask;
        eng.sync_seg_window(core);
        core.cpu.csr.satp = rec.satp;
        if !core.mmu.tlb.tagged() {
            core.mmu.tlb.flush_all();
        }
        core.cpu.mode = Mode::User;
        core.cpu.pc = rec.ret_pc;
        core.cpu.set_x(reg::A0, ERR_TIMEOUT);
        Ok(true)
    }

    /// Pop linkage records until one belonging to a live process is
    /// found; restore it and deliver `ERR_TIMEOUT` (§4.2). If the *top*
    /// record is healthy the trap was not a termination (e.g. link-stack
    /// overflow on `xcall`): surface a Fault instead of corrupting a
    /// live chain.
    fn unwind_dead_chain(&mut self) -> Result<Option<KernelEvent>, XpcError> {
        {
            let (link, link_sp) = {
                let eng = self.engine();
                (eng.regs.link, eng.regs.link_sp)
            };
            if link_sp >= LINK_RECORD_BYTES {
                let off = link_sp - LINK_RECORD_BYTES;
                let rec = LinkageRecord::load(&mut self.machine.core, link, off)
                    .map_err(|t| XpcError::GuestFault(t.to_string()))?;
                if rec.valid && self.satp_alive(rec.satp) {
                    return Ok(Some(KernelEvent::Fault {
                        cause: Cause::InvalidLinkage,
                        tval: self.machine.core.cpu.csr.mtval,
                        epc: self.machine.core.cpu.csr.mepc,
                    }));
                }
            }
        }
        loop {
            let (link, link_sp) = {
                let eng = self.engine();
                (eng.regs.link, eng.regs.link_sp)
            };
            if link_sp < LINK_RECORD_BYTES {
                return Ok(Some(KernelEvent::Fault {
                    cause: Cause::InvalidLinkage,
                    tval: 0,
                    epc: self.machine.core.cpu.csr.mepc,
                }));
            }
            let off = link_sp - LINK_RECORD_BYTES;
            let rec = LinkageRecord::load(&mut self.machine.core, link, off)
                .map_err(|t| XpcError::GuestFault(t.to_string()))?;
            {
                let eng = self.engine();
                eng.regs.link_sp = off;
            }
            if rec.valid && self.satp_alive(rec.satp) {
                let (core, eng) = self.engine_and_core();
                eng.regs.xcall_cap = rec.xcall_cap;
                eng.regs.seg_list = rec.seg_list;
                eng.regs.seg = rec.seg;
                eng.regs.mask = rec.mask;
                eng.sync_seg_window(core);
                core.cpu.csr.satp = rec.satp;
                if !core.mmu.tlb.tagged() {
                    core.mmu.tlb.flush_all();
                }
                core.cpu.mode = Mode::User;
                core.cpu.pc = rec.ret_pc;
                core.cpu.set_x(reg::A0, ERR_TIMEOUT);
                return Ok(None);
            }
        }
    }

    // ---- termination (§4.2, §4.4) ---------------------------------------

    /// Terminate a process: invalidate its linkage records on every link
    /// stack, zero its top-level page table, revoke its segments.
    ///
    /// # Errors
    ///
    /// Unknown process.
    pub fn terminate_process(&mut self, pid: ProcessId) -> Result<(), XpcError> {
        let satp = self.process(pid)?.space.satp_raw();
        self.process_mut(pid)?.alive = false;

        // Make the engine view consistent before scanning.
        self.save_current();

        // Scan all link stacks and invalidate records pointing into the
        // dead process (compare by page-table pointer, as §4.2 does).
        let snapshots: Vec<(u64, u64)> = self
            .threads
            .iter()
            .map(|t| (t.runtime.link_stack_pa, t.runtime.link_sp))
            .collect();
        for (link, sp) in snapshots {
            let mut off = 0;
            while off + LINK_RECORD_BYTES <= sp {
                let rec = LinkageRecord::load(&mut self.machine.core, link, off)
                    .map_err(|t| XpcError::GuestFault(t.to_string()))?;
                if rec.satp == satp && rec.valid {
                    let invalid = LinkageRecord {
                        valid: false,
                        ..rec
                    };
                    invalid
                        .store(&mut self.machine.core, link, off, false)
                        .map_err(|t| XpcError::GuestFault(t.to_string()))?;
                }
                off += LINK_RECORD_BYTES;
            }
        }
        // The current thread's live engine registers were saved above and
        // its link stack scanned; if the current thread belongs to the
        // dead process the next trap unwinds it.

        // Zero the top-level page table (fast-path termination trick).
        let mem = &mut self.machine.core.mem;
        self.processes[pid.0 as usize].space.zero_root(mem);
        if !self.machine.core.mmu.tlb.tagged() {
            self.machine.core.mmu.tlb.flush_all();
        } else {
            let asid = self.processes[pid.0 as usize].space.asid();
            self.machine.core.mmu.tlb.flush_asid(asid);
        }

        // Segment revocation (§4.4): segments owned by the dead process's
        // threads or stashed in its seg-list go back to the allocator.
        let dead_threads: Vec<u64> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.process == pid)
            .map(|(i, _)| i as u64)
            .collect();
        let mut to_free = Vec::new();
        for t in dead_threads {
            to_free.extend(self.segs.owned_by_thread(t));
        }
        to_free.extend(self.segs.stashed_in_process(pid.0));
        for h in to_free {
            self.segs.free(&mut self.alloc, h);
        }
        Ok(())
    }

    /// Whether a process is alive.
    ///
    /// # Errors
    ///
    /// Unknown process.
    pub fn is_alive(&self, pid: ProcessId) -> Result<bool, XpcError> {
        Ok(self.process(pid)?.alive)
    }
}
