//! Sv39 page-table construction for process address spaces.
//!
//! The kernel writes page tables as ordinary physical memory; the
//! emulator's MMU then walks them exactly as hardware would. Each process
//! gets its own root and an ASID, so the tagged-TLB configurations of
//! Figure 5 behave as on real hardware.

use crate::error::XpcError;
use crate::palloc::{FrameAlloc, FRAME_BYTES};
use rv64::mem::Memory;
use rv64::mmu::Satp;
use rv64::tlb::pte;

/// Page permission sets used by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePerms {
    /// User read+execute (code).
    UserCode,
    /// User read+write (data/stack).
    UserData,
    /// User read-only.
    UserRo,
    /// Supervisor read+write (kernel data).
    KernelData,
}

impl PagePerms {
    fn bits(self) -> u64 {
        match self {
            PagePerms::UserCode => pte::R | pte::X | pte::U,
            PagePerms::UserData => pte::R | pte::W | pte::U,
            PagePerms::UserRo => pte::R | pte::U,
            PagePerms::KernelData => pte::R | pte::W,
        }
    }
}

/// A process address space under construction / in use.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    root_pa: u64,
    asid: u16,
}

impl AddressSpace {
    /// Allocate an empty address space with `asid` (root table zeroed).
    ///
    /// # Errors
    ///
    /// [`XpcError::OutOfMemory`] if no frame is available for the root.
    pub(crate) fn new(
        mem: &mut Memory,
        alloc: &mut FrameAlloc,
        asid: u16,
    ) -> Result<Self, XpcError> {
        let root_pa = alloc.alloc()?;
        zero_frame(mem, root_pa);
        Ok(AddressSpace { root_pa, asid })
    }

    /// ASID of this space.
    pub(crate) fn asid(&self) -> u16 {
        self.asid
    }

    /// The `satp` value activating this space.
    pub(crate) fn satp(&self) -> Satp {
        Satp {
            enabled: true,
            asid: self.asid,
            root_ppn: self.root_pa >> 12,
        }
    }

    /// Raw `satp` CSR value.
    pub(crate) fn satp_raw(&self) -> u64 {
        self.satp().to_raw()
    }

    /// Map one 4 KiB page `va -> pa`.
    ///
    /// # Errors
    ///
    /// Out-of-memory for intermediate tables.
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses (kernel bug, not guest input).
    pub(crate) fn map_page(
        &mut self,
        mem: &mut Memory,
        alloc: &mut FrameAlloc,
        va: u64,
        pa: u64,
        perms: PagePerms,
    ) -> Result<(), XpcError> {
        assert_eq!(va % FRAME_BYTES, 0, "va unaligned");
        assert_eq!(pa % FRAME_BYTES, 0, "pa unaligned");
        let vpn = [(va >> 30) & 0x1ff, (va >> 21) & 0x1ff, (va >> 12) & 0x1ff];
        let mut table = self.root_pa;
        for idx in vpn.iter().take(2) {
            let slot = table + idx * 8;
            let entry = mem.read(slot, 8).expect("page table in DRAM");
            if entry & pte::V == 0 {
                let next = alloc.alloc()?;
                zero_frame(mem, next);
                mem.write(slot, 8, ((next >> 12) << 10) | pte::V)
                    .expect("page table in DRAM");
                table = next;
            } else {
                table = ((entry >> 10) & ((1 << 44) - 1)) << 12;
            }
        }
        let leaf = table + vpn[2] * 8;
        mem.write(leaf, 8, ((pa >> 12) << 10) | perms.bits() | pte::V)
            .expect("page table in DRAM");
        Ok(())
    }

    /// Map `n` fresh frames at `va`, returning the first frame's PA.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub(crate) fn map_fresh(
        &mut self,
        mem: &mut Memory,
        alloc: &mut FrameAlloc,
        va: u64,
        n: u64,
        perms: PagePerms,
    ) -> Result<u64, XpcError> {
        let base = alloc.alloc_contig(n)?;
        for i in 0..n {
            self.map_page(
                mem,
                alloc,
                va + i * FRAME_BYTES,
                base + i * FRAME_BYTES,
                perms,
            )?;
        }
        Ok(base)
    }

    /// Zero the top-level table — the §4.2 fast-termination trick: every
    /// future access in this space page-faults, giving the kernel a hook
    /// without scanning all link stacks eagerly.
    pub(crate) fn zero_root(&mut self, mem: &mut Memory) {
        zero_frame(mem, self.root_pa);
    }
}

/// Zero one physical frame (loader-path, not cycle-charged).
pub(crate) fn zero_frame(mem: &mut Memory, pa: u64) {
    for off in (0..FRAME_BYTES).step_by(8) {
        mem.write(pa + off, 8, 0).expect("frame in DRAM");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PALLOC_BASE;
    use rv64::cpu::Mode;
    use rv64::mmu::{Access, Mmu};
    use rv64::{cache::Cache, MachineConfig};

    fn setup() -> (Memory, FrameAlloc, Mmu, Cache, MachineConfig) {
        let cfg = MachineConfig::rocket_u500();
        (
            Memory::new(cfg.dram_size),
            FrameAlloc::new(PALLOC_BASE, 1 << 20),
            Mmu::new(&cfg),
            Cache::new(cfg.dcache),
            cfg,
        )
    }

    #[test]
    fn map_then_translate() {
        let (mut mem, mut alloc, mut mmu, mut dc, cfg) = setup();
        let mut space = AddressSpace::new(&mut mem, &mut alloc, 7).unwrap();
        let pa = alloc.alloc().unwrap();
        space
            .map_page(&mut mem, &mut alloc, 0x1_0000, pa, PagePerms::UserData)
            .unwrap();
        let t = mmu
            .translate(
                0x1_0008,
                8,
                Access::Store,
                Mode::User,
                space.satp(),
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg,
            )
            .unwrap();
        assert_eq!(t.pa, pa + 8);
    }

    #[test]
    fn code_pages_not_writable() {
        let (mut mem, mut alloc, mut mmu, mut dc, cfg) = setup();
        let mut space = AddressSpace::new(&mut mem, &mut alloc, 1).unwrap();
        let pa = alloc.alloc().unwrap();
        space
            .map_page(&mut mem, &mut alloc, 0x1_0000, pa, PagePerms::UserCode)
            .unwrap();
        assert!(mmu
            .translate(
                0x1_0000,
                8,
                Access::Store,
                Mode::User,
                space.satp(),
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg
            )
            .is_err());
        assert!(mmu
            .translate(
                0x1_0000,
                4,
                Access::Fetch,
                Mode::User,
                space.satp(),
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg
            )
            .is_ok());
    }

    #[test]
    fn zero_root_unmaps_everything() {
        let (mut mem, mut alloc, mut mmu, mut dc, cfg) = setup();
        let mut space = AddressSpace::new(&mut mem, &mut alloc, 1).unwrap();
        let pa = alloc.alloc().unwrap();
        space
            .map_page(&mut mem, &mut alloc, 0x1_0000, pa, PagePerms::UserData)
            .unwrap();
        space.zero_root(&mut mem);
        assert!(mmu
            .translate(
                0x1_0000,
                8,
                Access::Load,
                Mode::User,
                space.satp(),
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg
            )
            .is_err());
    }

    #[test]
    fn distinct_asids() {
        let (mut mem, mut alloc, _, _, _) = setup();
        let a = AddressSpace::new(&mut mem, &mut alloc, 1).unwrap();
        let b = AddressSpace::new(&mut mem, &mut alloc, 2).unwrap();
        assert_ne!(a.satp_raw(), b.satp_raw());
        assert_ne!(a.root_pa, b.root_pa);
    }
}
