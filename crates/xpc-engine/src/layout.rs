//! In-memory layouts of the XPC engine's architectural structures: the
//! x-entry table, linkage records on the link stack, and relay segment
//! descriptors in the seg-list.
//!
//! The layouts are part of the hardware/software contract: the kernel (the
//! control plane, §3) writes these structures with ordinary stores and the
//! engine walks them with hardware accesses, so both sides must agree on
//! every offset. Sizes are multiples of 8 and kept cache-line friendly.

use rv64::machine::Core;
use rv64::trap::Trap;

/// One x-entry (paper Figure 2): a procedure another process may `xcall`.
///
/// 32 bytes in memory:
/// `+0` page-table pointer (raw `satp`), `+8` capability pointer (the
/// callee's xcall-cap-reg value), `+16` entrance address, `+24` flags
/// (bit 0 = valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XEntry {
    /// Callee address space (raw `satp` value).
    pub page_table: u64,
    /// Callee capability-bitmap address (becomes `xcall-cap-reg`).
    pub cap_ptr: u64,
    /// Procedure entrance PC.
    pub entry_pc: u64,
    /// Valid bit.
    pub valid: bool,
}

/// Size of one x-entry in bytes.
pub const XENTRY_BYTES: u64 = 32;

impl XEntry {
    /// Read entry `id` from the table at `table_pa`, charging the engine's
    /// memory accesses through the core's D-cache.
    ///
    /// # Errors
    ///
    /// Propagates physical access faults (bad table pointer).
    pub(crate) fn load(core: &mut Core, table_pa: u64, id: u64) -> Result<XEntry, Trap> {
        let base = table_pa + id * XENTRY_BYTES;
        Ok(XEntry {
            page_table: core.phys_load(base, 8)?,
            cap_ptr: core.phys_load(base + 8, 8)?,
            entry_pc: core.phys_load(base + 16, 8)?,
            valid: core.phys_load(base + 24, 8)? & 1 == 1,
        })
    }

    /// Write entry `id` into the table at `table_pa` (kernel-side store).
    ///
    /// # Errors
    ///
    /// Propagates physical access faults.
    pub fn store(&self, core: &mut Core, table_pa: u64, id: u64) -> Result<(), Trap> {
        let base = table_pa + id * XENTRY_BYTES;
        core.phys_store(base, 8, self.page_table)?;
        core.phys_store(base + 8, 8, self.cap_ptr)?;
        core.phys_store(base + 16, 8, self.entry_pc)?;
        core.phys_store(base + 24, 8, self.valid as u64)
    }
}

/// The relay segment register (`seg-reg`, 3×64 bits in Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegReg {
    /// Virtual base.
    pub va_base: u64,
    /// Physical base (data, or the relay page table when `paged`).
    pub pa_base: u64,
    /// Length in bytes (bits 47:0 of the len/perm register).
    pub len: u64,
    /// Writable permission (bit 63 of the len/perm register).
    pub writable: bool,
    /// §6.2 relay-page-table mode (bit 62 of the len/perm register):
    /// the segment's backing memory is scattered pages reached through a
    /// one-level table; masks must then be page-granular.
    pub paged: bool,
}

impl SegReg {
    /// Pack length+permission into the raw CSR value.
    pub fn len_perm_raw(&self) -> u64 {
        (self.len & ((1 << 48) - 1)) | ((self.writable as u64) << 63) | ((self.paged as u64) << 62)
    }

    /// Unpack a raw len/perm CSR value into this register.
    pub fn set_len_perm_raw(&mut self, raw: u64) {
        self.len = raw & ((1 << 48) - 1);
        self.writable = raw >> 63 == 1;
        self.paged = (raw >> 62) & 1 == 1;
    }

    /// An empty (invalid) segment.
    pub fn invalid() -> SegReg {
        SegReg::default()
    }

    /// Whether the segment maps anything.
    pub fn is_valid(&self) -> bool {
        self.len > 0
    }

    /// Intersect with a mask, producing the callee-visible segment.
    /// An unset mask yields the segment unchanged; a mask outside the
    /// segment yields the empty segment (callers validate before this).
    pub fn masked(&self, mask: SegMask) -> SegReg {
        if !mask.is_set() {
            return *self;
        }
        if mask.va_base < self.va_base || mask.va_base + mask.len > self.va_base + self.len {
            return SegReg::invalid();
        }
        if self.paged {
            // Page-granular shrink (§6.2): the table pointer advances by
            // whole slots; validation guarantees page alignment.
            let off = mask.va_base - self.va_base;
            debug_assert_eq!(off % 4096, 0, "paged masks are page-granular");
            return SegReg {
                va_base: mask.va_base,
                pa_base: self.pa_base + (off >> 12) * 8,
                len: mask.len,
                writable: self.writable,
                paged: true,
            };
        }
        SegReg {
            va_base: mask.va_base,
            pa_base: self.pa_base + (mask.va_base - self.va_base),
            len: mask.len,
            writable: self.writable,
            paged: false,
        }
    }
}

/// The seg-mask register (2×64 bits in Table 2): a user-shrinkable window
/// over the current relay segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegMask {
    /// Masked virtual base.
    pub va_base: u64,
    /// Masked length; [`crate::csr_map::SEG_MASK_NONE`] means unset.
    pub len: u64,
}

impl SegMask {
    /// The cleared mask.
    pub fn none() -> SegMask {
        SegMask {
            va_base: 0,
            len: crate::csr_map::SEG_MASK_NONE,
        }
    }

    /// Whether a mask is currently set.
    pub fn is_set(&self) -> bool {
        self.len != crate::csr_map::SEG_MASK_NONE
    }

    /// Whether the mask lies fully inside `seg`.
    pub fn within(&self, seg: &SegReg) -> bool {
        !self.is_set()
            || (self.va_base >= seg.va_base
                && self
                    .va_base
                    .checked_add(self.len)
                    .is_some_and(|end| end <= seg.va_base + seg.len))
    }

    /// Full validity against `seg`: inside it, and — for a §6.2 paged
    /// segment — page-granular (the relay page table cannot express
    /// sub-page windows; "relay page table can only support page-level
    /// granularity").
    pub(crate) fn valid_for(&self, seg: &SegReg) -> bool {
        if !self.within(seg) {
            return false;
        }
        if self.is_set() && seg.paged {
            return self.va_base.is_multiple_of(4096) && self.len.is_multiple_of(4096);
        }
        true
    }
}

impl Default for SegMask {
    fn default() -> Self {
        SegMask::none()
    }
}

/// One slot of the per-process seg-list (Figure 2's "Relay Segment List").
///
/// 32 bytes: `+0` VA base, `+8` PA base, `+16` len/perm, `+24` flags
/// (bit 0 = slot valid; a valid slot with zero length swaps in an *empty*
/// segment, which is how a thread invalidates its `seg-reg`, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegDescriptor {
    /// The stored segment.
    pub seg: SegReg,
    /// Slot validity (kernel-managed).
    pub valid: bool,
}

/// Size of one seg-list slot in bytes.
pub const SEG_SLOT_BYTES: u64 = 32;

impl SegDescriptor {
    /// Read slot `idx` of the list at `list_pa` with engine accesses.
    ///
    /// # Errors
    ///
    /// Propagates physical access faults.
    pub(crate) fn load(core: &mut Core, list_pa: u64, idx: u64) -> Result<SegDescriptor, Trap> {
        let base = list_pa + idx * SEG_SLOT_BYTES;
        let mut seg = SegReg {
            va_base: core.phys_load(base, 8)?,
            pa_base: core.phys_load(base + 8, 8)?,
            ..SegReg::default()
        };
        seg.set_len_perm_raw(core.phys_load(base + 16, 8)?);
        let valid = core.phys_load(base + 24, 8)? & 1 == 1;
        Ok(SegDescriptor { seg, valid })
    }

    /// Write slot `idx` of the list at `list_pa`.
    ///
    /// # Errors
    ///
    /// Propagates physical access faults.
    pub fn store(&self, core: &mut Core, list_pa: u64, idx: u64) -> Result<(), Trap> {
        let base = list_pa + idx * SEG_SLOT_BYTES;
        core.phys_store(base, 8, self.seg.va_base)?;
        core.phys_store(base + 8, 8, self.seg.pa_base)?;
        core.phys_store(base + 16, 8, self.seg.len_perm_raw())?;
        core.phys_store(base + 24, 8, self.valid as u64)
    }
}

/// A linkage record on the per-thread link stack (§3.2): everything needed
/// to return to the caller that user space cannot be trusted to recover.
///
/// 80 bytes: satp, return PC, xcall-cap-reg, seg-list-reg, seg-list-size,
/// seg (3 words), mask (2 words at 56/64 — packed with list size), flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkageRecord {
    /// Caller address space (raw `satp`).
    pub satp: u64,
    /// Return address (instruction after the `xcall`).
    pub ret_pc: u64,
    /// Caller capability bitmap address.
    pub xcall_cap: u64,
    /// Caller seg-list base.
    pub seg_list: u64,
    /// Caller relay segment at call time.
    pub seg: SegReg,
    /// Caller seg-mask at call time.
    pub mask: SegMask,
    /// Valid bit — cleared by the kernel when the caller terminates
    /// (§4.2 "Application Termination").
    pub valid: bool,
}

/// Size of one linkage record in bytes.
pub const LINK_RECORD_BYTES: u64 = 80;

/// Capacity of a per-thread link stack (§4.1 allocates 8 KiB per thread).
pub const LINK_STACK_BYTES: u64 = 8192;

impl LinkageRecord {
    /// Read the record at byte offset `off` on the stack at `stack_pa`.
    ///
    /// # Errors
    ///
    /// Propagates physical access faults.
    pub fn load(core: &mut Core, stack_pa: u64, off: u64) -> Result<LinkageRecord, Trap> {
        let b = stack_pa + off;
        let satp = core.phys_load(b, 8)?;
        let ret_pc = core.phys_load(b + 8, 8)?;
        let xcall_cap = core.phys_load(b + 16, 8)?;
        let seg_list = core.phys_load(b + 24, 8)?;
        let mut seg = SegReg {
            va_base: core.phys_load(b + 32, 8)?,
            pa_base: core.phys_load(b + 40, 8)?,
            ..SegReg::default()
        };
        seg.set_len_perm_raw(core.phys_load(b + 48, 8)?);
        let mask = SegMask {
            va_base: core.phys_load(b + 56, 8)?,
            len: core.phys_load(b + 64, 8)?,
        };
        let valid = core.phys_load(b + 72, 8)? & 1 == 1;
        Ok(LinkageRecord {
            satp,
            ret_pc,
            xcall_cap,
            seg_list,
            seg,
            mask,
            valid,
        })
    }

    /// Write the record at byte offset `off` on the stack at `stack_pa`.
    /// `charged` selects whether the stores go through the D-cache timing
    /// model (blocking link stack) or are buffered for free (the
    /// non-blocking optimization of §3.2 — data is still written).
    ///
    /// # Errors
    ///
    /// Propagates physical access faults.
    pub fn store(
        &self,
        core: &mut Core,
        stack_pa: u64,
        off: u64,
        charged: bool,
    ) -> Result<(), Trap> {
        let b = stack_pa + off;
        let words = [
            self.satp,
            self.ret_pc,
            self.xcall_cap,
            self.seg_list,
            self.seg.va_base,
            self.seg.pa_base,
            self.seg.len_perm_raw(),
            self.mask.va_base,
            self.mask.len,
            self.valid as u64,
        ];
        for (i, w) in words.iter().enumerate() {
            let pa = b + 8 * i as u64;
            if charged {
                core.phys_store(pa, 8, *w)?;
            } else {
                // Buffered store: free on the critical path, but it still
                // drains into the cache, so the matching xret loads hit.
                core.mem.write(pa, 8, *w)?;
                core.dcache.touch(pa);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv64::mem::DRAM_BASE;
    use rv64::{Core, MachineConfig};

    fn core() -> Core {
        Core::new(MachineConfig::rocket_u500())
    }

    #[test]
    fn xentry_round_trip() {
        let mut c = core();
        let e = XEntry {
            page_table: 0x8000_0000_0001_2345,
            cap_ptr: DRAM_BASE + 0x100,
            entry_pc: 0x40_0000,
            valid: true,
        };
        e.store(&mut c, DRAM_BASE + 0x1000, 3).unwrap();
        assert_eq!(XEntry::load(&mut c, DRAM_BASE + 0x1000, 3).unwrap(), e);
    }

    #[test]
    fn linkage_round_trip_charged_and_not() {
        let mut c = core();
        let r = LinkageRecord {
            satp: 1,
            ret_pc: 2,
            xcall_cap: 3,
            seg_list: 4,
            seg: SegReg {
                va_base: 0x1000,
                pa_base: DRAM_BASE,
                len: 4096,
                writable: true,
                paged: false,
            },
            mask: SegMask {
                va_base: 0x1000,
                len: 64,
            },
            valid: true,
        };
        r.store(&mut c, DRAM_BASE + 0x2000, 0, true).unwrap();
        assert_eq!(
            LinkageRecord::load(&mut c, DRAM_BASE + 0x2000, 0).unwrap(),
            r
        );
        let before = c.cycles;
        r.store(&mut c, DRAM_BASE + 0x3000, 80, false).unwrap();
        assert_eq!(c.cycles, before, "non-blocking store is uncharged");
        assert_eq!(
            LinkageRecord::load(&mut c, DRAM_BASE + 0x3000, 80).unwrap(),
            r
        );
    }

    #[test]
    fn seg_masking_intersects() {
        let seg = SegReg {
            va_base: 0x1000,
            pa_base: 0x8000_0000,
            len: 0x1000,
            writable: true,
            paged: false,
        };
        let m = SegMask {
            va_base: 0x1800,
            len: 0x100,
        };
        let s = seg.masked(m);
        assert_eq!(s.va_base, 0x1800);
        assert_eq!(s.pa_base, 0x8000_0800);
        assert_eq!(s.len, 0x100);
        assert!(s.writable);
    }

    #[test]
    fn unset_mask_is_identity() {
        let seg = SegReg {
            va_base: 0x1000,
            pa_base: 0x8000_0000,
            len: 0x1000,
            writable: false,
            paged: false,
        };
        assert_eq!(seg.masked(SegMask::none()), seg);
    }

    #[test]
    fn mask_within_checks_bounds() {
        let seg = SegReg {
            va_base: 0x1000,
            pa_base: 0,
            len: 0x1000,
            writable: false,
            paged: false,
        };
        assert!(SegMask {
            va_base: 0x1000,
            len: 0x1000
        }
        .within(&seg));
        assert!(!SegMask {
            va_base: 0xfff,
            len: 8
        }
        .within(&seg));
        assert!(!SegMask {
            va_base: 0x1ff9,
            len: 0x10
        }
        .within(&seg));
        assert!(SegMask::none().within(&seg));
    }

    #[test]
    fn mask_overflow_is_rejected() {
        let seg = SegReg {
            va_base: 0x1000,
            pa_base: 0,
            len: 0x1000,
            writable: false,
            paged: false,
        };
        assert!(!SegMask {
            va_base: 0x1800,
            len: u64::MAX - 1
        }
        .within(&seg));
    }

    #[test]
    fn len_perm_packing() {
        let mut s = SegReg::default();
        s.set_len_perm_raw((1 << 63) | 4096);
        assert!(s.writable);
        assert_eq!(s.len, 4096);
        assert_eq!(s.len_perm_raw(), (1 << 63) | 4096);
    }

    #[test]
    fn seg_descriptor_round_trip() {
        let mut c = core();
        let d = SegDescriptor {
            seg: SegReg {
                va_base: 0x7000,
                pa_base: DRAM_BASE + 0x9000,
                len: 64,
                writable: true,
                paged: false,
            },
            valid: true,
        };
        d.store(&mut c, DRAM_BASE + 0x4000, 5).unwrap();
        assert_eq!(
            SegDescriptor::load(&mut c, DRAM_BASE + 0x4000, 5).unwrap(),
            d
        );
    }
}
