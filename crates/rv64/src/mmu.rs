//! Sv39 address translation: seg-window override, TLB, and page walker.
//!
//! Translation priority follows §3.3 of the paper exactly: the relay
//! segment window ([`SegWindow`], programmed by the XPC engine through
//! `seg-reg`) is checked *before* the page table, maps a contiguous virtual
//! range to contiguous physical memory, and needs no TLB entries — hence no
//! shootdown when its ownership moves between address spaces.
//!
//! [`Mmu::translate`] is the single source of truth and the only slow
//! path. `Core::translate` puts a page memo in front of it — a cache
//! keyed by value on everything the hit path reads, plus `Tlb::gen` —
//! that can only answer what this function would have answered; a hit
//! here reports its TLB slot so the memo can replay it (`Tlb::touch`).

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::cpu::Mode;
use crate::mem::Memory;
use crate::tlb::{pte, Tlb};
use crate::trap::{Cause, Trap};

/// Kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store (or AMO).
    Store,
}

impl Access {
    fn page_fault(self) -> Cause {
        match self {
            Access::Fetch => Cause::InstPageFault,
            Access::Load => Cause::LoadPageFault,
            Access::Store => Cause::StorePageFault,
        }
    }
}

/// The relay-segment translation window (`seg-reg` of Table 2).
///
/// Contiguous virtual range `va_base..va_base+len` maps to physical
/// `pa_base..pa_base+len`. The XPC engine installs/clears this on `xcall`,
/// `xret` and `swapseg`; user code can only *shrink* it via `seg-mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegWindow {
    /// Virtual base address.
    pub va_base: u64,
    /// Physical base address — of the data for a contiguous segment, or
    /// of the one-level *relay page table* for a paged one.
    pub pa_base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Whether stores are permitted.
    pub writable: bool,
    /// §6.2 "Relay Page Table": when set, `pa_base` points at a table of
    /// 64-bit PPN entries (entry i maps window page i) and the walker
    /// performs one extra memory access per translation. Supports
    /// non-contiguous backing memory at page granularity.
    pub paged: bool,
}

impl SegWindow {
    /// Does `va..va+size` fall inside the window? (Compared as offsets
    /// from `va_base`, so no address near the top of the space can wrap.)
    #[inline]
    pub(crate) fn contains(&self, va: u64, size: u64) -> bool {
        self.len > 0
            && va >= self.va_base
            && (va - self.va_base)
                .checked_add(size)
                .is_some_and(|end| end <= self.len)
    }

    /// Translate an address inside a *contiguous* window. `pa_base` is
    /// guest-writable, so the sum wraps and `Memory` faults the access.
    ///
    /// # Panics
    ///
    /// Debug-asserts the window is not paged (paged translation needs
    /// memory access and lives in [`Mmu::translate`]).
    #[inline]
    pub(crate) fn translate(&self, va: u64) -> u64 {
        debug_assert!(!self.paged);
        self.pa_base.wrapping_add(va - self.va_base)
    }
}

/// Result of a translation: physical address plus cycles charged for any
/// page walk performed.
#[derive(Debug, Clone, Copy)]
pub struct Translation {
    /// Physical address.
    pub pa: u64,
    /// Extra cycles spent (TLB-miss walk; 0 on hit or bare mode).
    pub cycles: u64,
    /// TLB slot that hit (`None` for the window, bare mode and a walk).
    pub(crate) tlb_slot: Option<usize>,
}

impl Translation {
    fn untimed(pa: u64) -> Self {
        Translation {
            pa,
            cycles: 0,
            tlb_slot: None,
        }
    }
}

/// MMU: seg window slot + TLB + Sv39 walker state/statistics.
#[derive(Debug)]
pub struct Mmu {
    /// Relay-segment window; checked before the page table.
    pub seg_window: Option<SegWindow>,
    /// The TLB model.
    pub tlb: Tlb,
    /// Completed page walks.
    pub walks: u64,
}

/// Fields of `satp` relevant to translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Satp {
    /// Translation enabled (mode = Sv39)?
    pub enabled: bool,
    /// Address-space ID.
    pub asid: u16,
    /// Root page-table physical page number.
    pub root_ppn: u64,
}

impl Satp {
    /// Decode a raw `satp` CSR value.
    pub fn from_raw(raw: u64) -> Self {
        Satp {
            enabled: raw >> 60 == 8,
            asid: ((raw >> 44) & 0xffff) as u16,
            root_ppn: raw & ((1 << 44) - 1),
        }
    }

    /// Encode back to the raw CSR value.
    pub fn to_raw(self) -> u64 {
        let mode = if self.enabled { 8u64 } else { 0 };
        (mode << 60) | ((self.asid as u64) << 44) | self.root_ppn
    }
}

impl Mmu {
    /// Build an MMU with a TLB of `cfg.tlb_entries` entries.
    pub fn new(cfg: &MachineConfig) -> Self {
        Mmu {
            seg_window: None,
            tlb: Tlb::new(cfg.tlb_entries, cfg.tagged_tlb),
            walks: 0,
        }
    }

    /// Translate `va` for `access` in privilege `mode`.
    ///
    /// Order: seg window (any mode, user-reachable — it is the relay-seg),
    /// then bare mode (M-mode or satp off), then TLB, then an Sv39 walk
    /// charged through the D-cache model.
    ///
    /// # Errors
    ///
    /// Returns the architectural page fault for the access kind on a missing
    /// or permission-violating mapping, or a seg-window permission error as
    /// a store page fault.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn translate(
        &mut self,
        va: u64,
        size: u64,
        access: Access,
        mode: Mode,
        satp: Satp,
        sum: bool,
        mxr: bool,
        mem: &mut Memory,
        dcache: &mut Cache,
        cfg: &MachineConfig,
    ) -> Result<Translation, Trap> {
        // 1. Relay segment window: higher priority than the page table.
        if let Some(seg) = &self.seg_window {
            if seg.contains(va, size) {
                return Self::window(seg, va, access, mem, dcache, cfg);
            }
        }

        // 2. Bare translation.
        if mode == Mode::Machine || !satp.enabled {
            return Ok(Translation::untimed(va));
        }

        // Sv39 requires bits 63..39 to be sign-extension of bit 38.
        let hi = va >> 38;
        if hi != 0 && hi != 0x3ff_ffff {
            return Err(Trap::new(access.page_fault(), va));
        }

        let vpn = (va >> 12) & ((1 << 27) - 1);

        // 3. TLB.
        if let Some((slot, e)) = self.tlb.lookup_slot(vpn, satp.asid) {
            Self::check_perms(e.perms, access, mode, sum, mxr, va)?;
            let off_bits = 12 + 9 * e.level as u64;
            // e.ppn is superpage-aligned, so adding the in-superpage offset
            // is exact for 4K, 2M and 1G leaves alike.
            return Ok(Translation {
                pa: (e.ppn << 12) + (va & ((1 << off_bits) - 1)),
                cycles: 0,
                tlb_slot: Some(slot),
            });
        }

        // 4. Page walk.
        self.walk(va, access, mode, satp, sum, mxr, mem, dcache, cfg)
    }

    /// An access inside the relay window.
    #[inline(never)]
    fn window(
        seg: &SegWindow,
        va: u64,
        access: Access,
        mem: &Memory,
        dcache: &mut Cache,
        cfg: &MachineConfig,
    ) -> Result<Translation, Trap> {
        if access == Access::Store && !seg.writable {
            return Err(Trap::new(Cause::StorePageFault, va));
        }
        if access == Access::Fetch {
            // The relay segment carries data, never code.
            return Err(Trap::new(Cause::InstPageFault, va));
        }
        if !seg.paged {
            return Ok(Translation::untimed(seg.translate(va)));
        }
        // Relay page table (§6.2): one extra walk level through the
        // D-cache; the window never spans page boundaries mid-access
        // because accesses are <= 8 B aligned. The slot address wraps
        // like the contiguous sum does.
        let off = va - seg.va_base;
        let slot_pa = seg.pa_base.wrapping_add((off >> 12) * 8);
        let walk = dcache.access(slot_pa).cycles + cfg.ptw_level_cycles;
        let ppn = mem
            .read(slot_pa, 8)
            .map_err(|_| Trap::new(access.page_fault(), va))?;
        if ppn == 0 {
            return Err(Trap::new(access.page_fault(), va));
        }
        Ok(Translation {
            pa: (ppn << 12) | (off & 0xfff),
            cycles: walk,
            tlb_slot: None,
        })
    }

    /// The Sv39 walk after a TLB miss, charged through the D-cache.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn walk(
        &mut self,
        va: u64,
        access: Access,
        mode: Mode,
        satp: Satp,
        sum: bool,
        mxr: bool,
        mem: &mut Memory,
        dcache: &mut Cache,
        cfg: &MachineConfig,
    ) -> Result<Translation, Trap> {
        let vpn = (va >> 12) & ((1 << 27) - 1);
        let (mut cycles, mut table_ppn) = (0, satp.root_ppn);
        for level in (0..3u8).rev() {
            let idx = (vpn >> (9 * level as u64)) & 0x1ff;
            let pte_pa = (table_ppn << 12) + idx * 8;
            cycles += dcache.access(pte_pa).cycles + cfg.ptw_level_cycles;
            let entry = mem
                .read(pte_pa, 8)
                .map_err(|_| Trap::new(access.page_fault(), va))?;
            if entry & pte::V == 0 {
                return Err(Trap::new(access.page_fault(), va));
            }
            let is_leaf = entry & (pte::R | pte::X) != 0;
            let ppn = (entry >> 10) & ((1 << 44) - 1);
            if !is_leaf {
                if level == 0 {
                    return Err(Trap::new(access.page_fault(), va));
                }
                table_ppn = ppn;
                continue;
            }
            // Superpage alignment check.
            if level > 0 && ppn & ((1 << (9 * level as u64)) - 1) != 0 {
                return Err(Trap::new(access.page_fault(), va));
            }
            let mut perms = entry & 0xff;
            Self::check_perms(perms, access, mode, sum, mxr, va)?;
            // Hardware-managed A/D bits: set and write back.
            perms |= pte::A;
            if access == Access::Store {
                perms |= pte::D;
            }
            let updated = (entry & !0xffu64) | perms;
            if updated != entry {
                cycles += dcache.access(pte_pa).cycles;
                mem.write(pte_pa, 8, updated)
                    .map_err(|_| Trap::new(access.page_fault(), va))?;
            }
            self.walks += 1;
            // Store the superpage-aligned PPN; the hit path composes
            // pa = (ppn << 12) + (va mod superpage size).
            self.tlb.fill(vpn, level, satp.asid, ppn, perms);
            let off_bits = 12 + 9 * level as u64;
            return Ok(Translation {
                pa: (ppn << 12) + (va & ((1 << off_bits) - 1)),
                cycles,
                tlb_slot: None,
            });
        }
        unreachable!("walk loop always returns");
    }

    #[inline]
    fn check_perms(
        perms: u64,
        access: Access,
        mode: Mode,
        sum: bool,
        mxr: bool,
        va: u64,
    ) -> Result<(), Trap> {
        let fault = || Trap::new(access.page_fault(), va);
        let user_page = perms & pte::U != 0;
        match mode {
            Mode::User if !user_page => return Err(fault()),
            Mode::Supervisor if user_page && !sum => return Err(fault()),
            _ => {}
        }
        let ok = match access {
            Access::Fetch => perms & pte::X != 0 && !(mode == Mode::Supervisor && user_page),
            Access::Load => perms & pte::R != 0 || (mxr && perms & pte::X != 0),
            Access::Store => perms & pte::W != 0,
        };
        if ok {
            Ok(())
        } else {
            Err(fault())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DRAM_BASE;

    fn setup() -> (Mmu, Memory, Cache, MachineConfig) {
        let cfg = MachineConfig::rocket_u500();
        (
            Mmu::new(&cfg),
            Memory::new(cfg.dram_size),
            Cache::new(cfg.dcache),
            cfg,
        )
    }

    /// Build a 3-level mapping va -> pa with `perm_bits` at fixed table
    /// locations and return the satp.
    fn map_page(mem: &mut Memory, va: u64, pa: u64, perm_bits: u64) -> Satp {
        let root = DRAM_BASE + 0x10_0000;
        let l1 = DRAM_BASE + 0x10_1000;
        let l0 = DRAM_BASE + 0x10_2000;
        let vpn2 = (va >> 30) & 0x1ff;
        let vpn1 = (va >> 21) & 0x1ff;
        let vpn0 = (va >> 12) & 0x1ff;
        mem.write(root + vpn2 * 8, 8, ((l1 >> 12) << 10) | pte::V)
            .unwrap();
        mem.write(l1 + vpn1 * 8, 8, ((l0 >> 12) << 10) | pte::V)
            .unwrap();
        mem.write(l0 + vpn0 * 8, 8, ((pa >> 12) << 10) | perm_bits | pte::V)
            .unwrap();
        Satp {
            enabled: true,
            asid: 1,
            root_ppn: root >> 12,
        }
    }

    #[test]
    fn bare_mode_is_identity() {
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = Satp {
            enabled: false,
            asid: 0,
            root_ppn: 0,
        };
        let t = mmu
            .translate(
                0x1234,
                8,
                Access::Load,
                Mode::Machine,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg,
            )
            .unwrap();
        assert_eq!(t.pa, 0x1234);
    }

    #[test]
    fn walk_then_tlb_hit() {
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = map_page(&mut mem, 0x4000_0000, DRAM_BASE + 0x2000, pte::R | pte::U);
        let t1 = mmu
            .translate(
                0x4000_0010,
                8,
                Access::Load,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg,
            )
            .unwrap();
        assert_eq!(t1.pa, DRAM_BASE + 0x2010);
        assert!(t1.cycles > 0, "walk charged cycles");
        let t2 = mmu
            .translate(
                0x4000_0020,
                8,
                Access::Load,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg,
            )
            .unwrap();
        assert_eq!(t2.pa, DRAM_BASE + 0x2020);
        assert_eq!(t2.cycles, 0, "TLB hit is free");
        assert_eq!(mmu.walks, 1);
    }

    #[test]
    fn store_to_readonly_page_faults() {
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = map_page(&mut mem, 0x4000_0000, DRAM_BASE + 0x2000, pte::R | pte::U);
        let e = mmu
            .translate(
                0x4000_0000,
                8,
                Access::Store,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg,
            )
            .unwrap_err();
        assert_eq!(e.cause, Cause::StorePageFault);
    }

    #[test]
    fn user_page_blocked_in_smode_without_sum() {
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = map_page(&mut mem, 0x4000_0000, DRAM_BASE + 0x2000, pte::R | pte::U);
        assert!(mmu
            .translate(
                0x4000_0000,
                8,
                Access::Load,
                Mode::Supervisor,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg
            )
            .is_err());
        assert!(mmu
            .translate(
                0x4000_0000,
                8,
                Access::Load,
                Mode::Supervisor,
                satp,
                true,
                false,
                &mut mem,
                &mut dc,
                &cfg
            )
            .is_ok());
    }

    #[test]
    fn seg_window_overrides_page_table() {
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = map_page(&mut mem, 0x4000_0000, DRAM_BASE + 0x2000, pte::R | pte::U);
        mmu.seg_window = Some(SegWindow {
            va_base: 0x4000_0000,
            pa_base: DRAM_BASE + 0x9000,
            len: 4096,
            writable: true,
            paged: false,
        });
        let t = mmu
            .translate(
                0x4000_0008,
                8,
                Access::Store,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg,
            )
            .unwrap();
        assert_eq!(t.pa, DRAM_BASE + 0x9008, "seg window wins over page table");
        assert_eq!(t.cycles, 0, "no walk, no TLB pressure");
    }

    #[test]
    fn seg_window_never_executes() {
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = Satp {
            enabled: false,
            asid: 0,
            root_ppn: 0,
        };
        mmu.seg_window = Some(SegWindow {
            va_base: 0x5000_0000,
            pa_base: DRAM_BASE,
            len: 4096,
            writable: false,
            paged: false,
        });
        let e = mmu
            .translate(
                0x5000_0000,
                4,
                Access::Fetch,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg,
            )
            .unwrap_err();
        assert_eq!(e.cause, Cause::InstPageFault);
    }

    #[test]
    fn readonly_seg_window_blocks_store() {
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = Satp {
            enabled: false,
            asid: 0,
            root_ppn: 0,
        };
        mmu.seg_window = Some(SegWindow {
            va_base: 0x5000_0000,
            pa_base: DRAM_BASE,
            len: 4096,
            writable: false,
            paged: false,
        });
        assert!(mmu
            .translate(
                0x5000_0000,
                8,
                Access::Store,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg
            )
            .is_err());
        assert!(mmu
            .translate(
                0x5000_0000,
                8,
                Access::Load,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg
            )
            .is_ok());
    }

    #[test]
    fn seg_window_contains_never_wraps() {
        let mut w = SegWindow {
            va_base: 0x5000_0000,
            pa_base: DRAM_BASE,
            len: 4096,
            writable: true,
            paged: false,
        };
        assert!(w.contains(0x5000_0ff8, 8));
        assert!(!w.contains(0x5000_0ffc, 8), "straddles the end");
        assert!(!w.contains(u64::MAX - 3, 4), "va + size wraps");
        assert!(!w.contains(0x5000_0000, u64::MAX), "size wraps");
        // A window ending at the top of the address space still works.
        w.va_base = u64::MAX - 4095;
        assert!(w.contains(u64::MAX - 3, 4));
        assert!(!w.contains(u64::MAX - 3, 8));
    }

    #[test]
    fn satp_round_trip() {
        let s = Satp {
            enabled: true,
            asid: 42,
            root_ppn: 0x80123,
        };
        assert_eq!(Satp::from_raw(s.to_raw()), s);
    }

    #[test]
    fn non_canonical_va_faults() {
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = map_page(&mut mem, 0x4000_0000, DRAM_BASE + 0x2000, pte::R | pte::U);
        assert!(mmu
            .translate(
                0x0000_8000_0000_0000,
                8,
                Access::Load,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg
            )
            .is_err());
    }

    #[test]
    fn window_base_near_the_top_wraps_into_an_access_fault() {
        // `seg-pa` is guest-writable: `pa_base + offset` used to overflow
        // (a host panic in debug builds, a silent wrap in release).
        let (mut mmu, mut mem, mut dc, cfg) = setup();
        let satp = Satp::from_raw(0);
        let mut window = SegWindow {
            va_base: 0x5000_0000,
            pa_base: u64::MAX - 7,
            len: 2 * 4096,
            writable: true,
            paged: false,
        };
        mmu.seg_window = Some(window);
        for (off, pa) in [(0, u64::MAX - 7), (8, 0), (4096, 4088)] {
            let t = mmu
                .translate(
                    window.va_base + off,
                    8,
                    Access::Load,
                    Mode::User,
                    satp,
                    false,
                    false,
                    &mut mem,
                    &mut dc,
                    &cfg,
                )
                .expect("a contiguous window translates without touching memory");
            assert_eq!(t.pa, pa);
            assert_eq!(mem.read(t.pa, 8).unwrap_err().cause, Cause::LoadAccessFault);
        }
        // Paged: the slot of window page 1 is at pa_base + 8 = 0, outside
        // DRAM, so the relay walk itself faults.
        window.paged = true;
        mmu.seg_window = Some(window);
        let e = mmu
            .translate(
                window.va_base + 4096,
                8,
                Access::Store,
                Mode::User,
                satp,
                false,
                false,
                &mut mem,
                &mut dc,
                &cfg,
            )
            .unwrap_err();
        assert_eq!(e.cause, Cause::StorePageFault);
    }
}
