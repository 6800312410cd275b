//! Relay-segment allocation and the kernel's two §3.3 guarantees:
//!
//! 1. **No overlap**: a relay segment's virtual range is carved from a
//!    window the kernel never maps through page tables, and segments never
//!    overlap each other — so the seg-reg translation can never shadow (or
//!    be shadowed by) a page-table mapping, and no TLB shootdown is needed
//!    when ownership moves.
//! 2. **Single owner**: each segment is owned by exactly one thread (or
//!    stashed in exactly one process's seg-list) at any time, which is the
//!    TOCTTOU defense — the sender cannot mutate a message after passing
//!    it.

use crate::error::XpcError;
use crate::layout::{RELAY_REGION_LEN, RELAY_REGION_VA};
use crate::palloc::{FrameAlloc, FRAME_BYTES};
use xpc_engine::SegReg;

/// Handle to an allocated relay segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegHandle(pub u64);

/// Who currently holds a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegOwner {
    /// Live in a thread's seg-reg (by thread id).
    Thread(u64),
    /// Stashed in a process's seg-list (process id, slot).
    ListSlot(u64, u64),
    /// Returned to the allocator.
    Freed,
}

#[derive(Debug, Clone)]
struct SegInfo {
    seg: SegReg,
    owner: SegOwner,
}

/// Window footprint of a segment: its VA range rounded to whole frames
/// (paged segments already carry a frame-multiple `len`).
fn window_bytes(seg: &SegReg) -> u64 {
    if seg.paged {
        seg.len
    } else {
        seg.len.max(1).div_ceil(FRAME_BYTES) * FRAME_BYTES
    }
}

/// Kernel-side registry of every relay segment.
#[derive(Debug, Clone)]
pub struct SegRegistry {
    segs: Vec<SegInfo>,
    /// Fresh-window bump cursor; everything below it is either live or on
    /// the free list.
    va_cursor: u64,
    /// Reclaimed VA ranges `(base, bytes)`, sorted by base and coalesced,
    /// so a long-running server's window space is bounded by its *live*
    /// segments, not by its cumulative allocation history.
    free_va: Vec<(u64, u64)>,
}

impl Default for SegRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SegRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SegRegistry {
            segs: Vec::new(),
            va_cursor: RELAY_REGION_VA,
            free_va: Vec::new(),
        }
    }

    /// Carve `bytes` (frame-multiple) out of the relay window: first fit
    /// from the reclaimed ranges, else fresh space at the bump cursor.
    fn alloc_window(&mut self, bytes: u64) -> Result<u64, XpcError> {
        debug_assert_eq!(bytes % FRAME_BYTES, 0);
        if let Some(i) = self.free_va.iter().position(|&(_, len)| len >= bytes) {
            let (base, len) = self.free_va[i];
            if len == bytes {
                self.free_va.remove(i);
            } else {
                self.free_va[i] = (base + bytes, len - bytes);
            }
            return Ok(base);
        }
        let end = self
            .va_cursor
            .checked_add(bytes)
            .ok_or(XpcError::OutOfMemory)?;
        if end > RELAY_REGION_VA + RELAY_REGION_LEN {
            return Err(XpcError::OutOfMemory);
        }
        let va = self.va_cursor;
        self.va_cursor = end;
        Ok(va)
    }

    /// Return `[va, va + bytes)` to the window: coalescing insert into the
    /// free list, then retract the bump cursor over any block touching it.
    fn free_window(&mut self, va: u64, bytes: u64) {
        let i = self.free_va.partition_point(|&(b, _)| b < va);
        self.free_va.insert(i, (va, bytes));
        if i + 1 < self.free_va.len()
            && self.free_va[i].0 + self.free_va[i].1 == self.free_va[i + 1].0
        {
            self.free_va[i].1 += self.free_va[i + 1].1;
            self.free_va.remove(i + 1);
        }
        if i > 0 && self.free_va[i - 1].0 + self.free_va[i - 1].1 == self.free_va[i].0 {
            self.free_va[i - 1].1 += self.free_va[i].1;
            self.free_va.remove(i);
        }
        while let Some(&(b, l)) = self.free_va.last() {
            if b + l == self.va_cursor {
                self.va_cursor = b;
                self.free_va.pop();
            } else {
                break;
            }
        }
    }

    /// Allocate a segment of `len` bytes (rounded up to whole frames),
    /// owned by `owner_thread`.
    ///
    /// # Errors
    ///
    /// Out-of-memory (physical frames or virtual window).
    pub fn alloc(
        &mut self,
        alloc: &mut FrameAlloc,
        len: u64,
        owner_thread: u64,
        writable: bool,
    ) -> Result<SegHandle, XpcError> {
        let frames = len.max(1).div_ceil(FRAME_BYTES);
        let bytes = frames
            .checked_mul(FRAME_BYTES)
            .ok_or(XpcError::OutOfMemory)?;
        let va = self.alloc_window(bytes)?;
        let pa = match alloc.alloc_contig(frames) {
            Ok(pa) => pa,
            Err(e) => {
                self.free_window(va, bytes);
                return Err(e);
            }
        };
        let seg = SegReg {
            va_base: va,
            pa_base: pa,
            len,
            writable,
            paged: false,
        };
        self.segs.push(SegInfo {
            seg,
            owner: SegOwner::Thread(owner_thread),
        });
        Ok(SegHandle(self.segs.len() as u64 - 1))
    }

    /// Allocate a §6.2 *relay-page-table* segment of `pages` pages: the
    /// backing frames need not be contiguous; a one-level table (whose
    /// frame is also allocated here) maps window page i to frame i.
    /// Returns the handle, the table's physical address, and the frames
    /// (the kernel writes the PPN entries — the registry has no memory
    /// access).
    ///
    /// # Errors
    ///
    /// Out-of-memory (frames, table, or virtual window).
    pub(crate) fn alloc_paged(
        &mut self,
        alloc: &mut FrameAlloc,
        pages: u64,
        owner_thread: u64,
        writable: bool,
    ) -> Result<(SegHandle, u64, Vec<u64>), XpcError> {
        assert!(pages > 0, "empty paged segment");
        let bytes = pages
            .checked_mul(FRAME_BYTES)
            .ok_or(XpcError::OutOfMemory)?;
        let va = self.alloc_window(bytes)?;
        let table_pa = match alloc.alloc() {
            Ok(pa) => pa,
            Err(e) => {
                self.free_window(va, bytes);
                return Err(e);
            }
        };
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            match alloc.alloc() {
                Ok(f) => frames.push(f),
                Err(e) => {
                    // Unwind the partial allocation: data frames, the
                    // table frame, and the window reservation.
                    for f in frames {
                        alloc.free(f);
                    }
                    alloc.free(table_pa);
                    self.free_window(va, bytes);
                    return Err(e);
                }
            }
        }
        let seg = SegReg {
            va_base: va,
            pa_base: table_pa,
            len: bytes,
            writable,
            paged: true,
        };
        self.segs.push(SegInfo {
            seg,
            owner: SegOwner::Thread(owner_thread),
        });
        Ok((SegHandle(self.segs.len() as u64 - 1), table_pa, frames))
    }

    /// The segment register value for `h`.
    ///
    /// # Panics
    ///
    /// Panics on a dangling handle (kernel bug).
    pub fn seg_reg(&self, h: SegHandle) -> SegReg {
        self.segs[h.0 as usize].seg
    }

    /// Current owner of `h`.
    pub(crate) fn owner(&self, h: SegHandle) -> SegOwner {
        self.segs[h.0 as usize].owner
    }

    /// Transfer ownership (kernel-observed; e.g. along a calling chain or
    /// into a seg-list slot).
    ///
    /// # Errors
    ///
    /// [`XpcError::SegNotOwned`] if the segment was freed.
    pub fn transfer(&mut self, h: SegHandle, to: SegOwner) -> Result<(), XpcError> {
        let info = &mut self.segs[h.0 as usize];
        if info.owner == SegOwner::Freed {
            return Err(XpcError::SegNotOwned {
                seg: h.0,
                owner: None,
            });
        }
        info.owner = to;
        Ok(())
    }

    /// Free a segment, returning its frames to `alloc`. Paged segments
    /// only return their *table* frame here; the kernel (which can read
    /// the table) returns the data frames by iterating the page table
    /// before calling this.
    pub fn free(&mut self, alloc: &mut FrameAlloc, h: SegHandle) {
        let info = &mut self.segs[h.0 as usize];
        if info.owner == SegOwner::Freed {
            return;
        }
        info.owner = SegOwner::Freed;
        let seg = info.seg;
        if seg.paged {
            alloc.free(seg.pa_base);
        } else {
            let frames = seg.len.max(1).div_ceil(FRAME_BYTES);
            for i in 0..frames {
                alloc.free(seg.pa_base + i * FRAME_BYTES);
            }
        }
        self.free_window(seg.va_base, window_bytes(&seg));
    }

    /// All live handles owned by `thread`.
    pub(crate) fn owned_by_thread(&self, thread: u64) -> Vec<SegHandle> {
        self.segs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.owner == SegOwner::Thread(thread))
            .map(|(n, _)| SegHandle(n as u64))
            .collect()
    }

    /// All live handles stashed in `process`'s seg-list.
    pub(crate) fn stashed_in_process(&self, process: u64) -> Vec<SegHandle> {
        self.segs
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i.owner, SegOwner::ListSlot(p, _) if p == process))
            .map(|(n, _)| SegHandle(n as u64))
            .collect()
    }

    /// Invariant: no two live segments overlap in VA or PA, all live
    /// segments sit inside the relay window, and the reclaimed-window free
    /// list is sorted, coalesced, below the bump cursor, and disjoint from
    /// every live segment. Returns a violation message.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live: Vec<&SegInfo> = self
            .segs
            .iter()
            .filter(|i| i.owner != SegOwner::Freed)
            .collect();
        if self.va_cursor < RELAY_REGION_VA || self.va_cursor > RELAY_REGION_VA + RELAY_REGION_LEN {
            return Err(format!(
                "cursor outside relay window: {:#x}",
                self.va_cursor
            ));
        }
        for (n, &(b, l)) in self.free_va.iter().enumerate() {
            if b < RELAY_REGION_VA || b + l > self.va_cursor {
                return Err(format!("free block outside used window: ({b:#x}, {l:#x})"));
            }
            if let Some(&(nb, _)) = self.free_va.get(n + 1) {
                // Equality would mean an uncoalesced pair.
                if b + l >= nb {
                    return Err(format!("free list unsorted or uncoalesced at {n}"));
                }
            }
            for a in &live {
                let wb = window_bytes(&a.seg);
                if a.seg.va_base < b + l && b < a.seg.va_base + wb {
                    return Err(format!(
                        "free block overlaps live segment: ({b:#x}, {l:#x}) vs {:?}",
                        a.seg
                    ));
                }
            }
        }
        for (n, a) in live.iter().enumerate() {
            let a_end = a.seg.va_base + a.seg.len;
            if a.seg.va_base < RELAY_REGION_VA || a_end > RELAY_REGION_VA + RELAY_REGION_LEN {
                return Err(format!("segment outside relay window: {:?}", a.seg));
            }
            for b in live.iter().skip(n + 1) {
                let va_overlap = a.seg.va_base < b.seg.va_base + b.seg.len && b.seg.va_base < a_end;
                // Paged segments' data frames come from the allocator
                // (disjoint by construction); their pa_base is a table
                // pointer, so the linear PA check only applies to
                // contiguous pairs.
                let pa_overlap = !a.seg.paged
                    && !b.seg.paged
                    && a.seg.pa_base < b.seg.pa_base + b.seg.len
                    && b.seg.pa_base < a.seg.pa_base + a.seg.len;
                if va_overlap || pa_overlap {
                    return Err(format!("segments overlap: {:?} vs {:?}", a.seg, b.seg));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PALLOC_BASE;

    fn alloc() -> FrameAlloc {
        FrameAlloc::new(PALLOC_BASE, 1 << 22)
    }

    #[test]
    fn alloc_assigns_disjoint_ranges() {
        let mut fa = alloc();
        let mut r = SegRegistry::new();
        let h1 = r.alloc(&mut fa, 4096, 1, true).unwrap();
        let h2 = r.alloc(&mut fa, 100, 1, true).unwrap();
        assert!(r.check_invariants().is_ok());
        let s1 = r.seg_reg(h1);
        let s2 = r.seg_reg(h2);
        assert!(s1.va_base + 4096 <= s2.va_base);
        assert_ne!(s1.pa_base, s2.pa_base);
    }

    #[test]
    fn ownership_lifecycle() {
        let mut fa = alloc();
        let mut r = SegRegistry::new();
        let h = r.alloc(&mut fa, 64, 7, true).unwrap();
        assert_eq!(r.owner(h), SegOwner::Thread(7));
        r.transfer(h, SegOwner::ListSlot(3, 0)).unwrap();
        assert_eq!(r.owner(h), SegOwner::ListSlot(3, 0));
        assert_eq!(r.stashed_in_process(3), vec![h]);
        r.free(&mut fa, h);
        assert_eq!(r.owner(h), SegOwner::Freed);
        assert!(r.transfer(h, SegOwner::Thread(1)).is_err());
    }

    #[test]
    fn double_free_is_idempotent() {
        let mut fa = alloc();
        let mut r = SegRegistry::new();
        let h = r.alloc(&mut fa, 64, 7, true).unwrap();
        let before = fa.remaining();
        r.free(&mut fa, h);
        let after_first = fa.remaining();
        r.free(&mut fa, h);
        assert_eq!(fa.remaining(), after_first);
        assert!(after_first > before);
    }

    #[test]
    fn window_exhaustion() {
        let mut fa = FrameAlloc::new(PALLOC_BASE, 1 << 30);
        let mut r = SegRegistry::new();
        // One huge segment nearly fills the window.
        r.alloc(&mut fa, RELAY_REGION_LEN - FRAME_BYTES, 1, true)
            .unwrap();
        assert!(matches!(
            r.alloc(&mut fa, 2 * FRAME_BYTES, 1, true),
            Err(XpcError::OutOfMemory)
        ));
    }

    #[test]
    fn paged_partial_failure_releases_everything() {
        // Room for the table frame plus two data frames — not the five
        // data frames a 5-page segment needs, so the third data-frame
        // alloc fails mid-loop.
        let mut fa = FrameAlloc::new(PALLOC_BASE, 3 * FRAME_BYTES);
        let mut r = SegRegistry::new();
        let before = fa.remaining();
        assert!(matches!(
            r.alloc_paged(&mut fa, 5, 1, true),
            Err(XpcError::OutOfMemory)
        ));
        assert_eq!(fa.remaining(), before, "partial allocation leaked frames");
        assert!(r.check_invariants().is_ok());
        // The window reservation was unwound too: a small allocation that
        // fits still starts at the base of the relay window.
        let (h, _, _) = r.alloc_paged(&mut fa, 2, 1, true).unwrap();
        assert_eq!(r.seg_reg(h).va_base, RELAY_REGION_VA);
    }

    #[test]
    fn freed_window_space_is_reclaimed() {
        let mut fa = FrameAlloc::new(PALLOC_BASE, 1 << 30);
        let mut r = SegRegistry::new();
        // Alloc/free more cumulative bytes than the whole relay window:
        // 8 rounds of a quarter-window segment is 2x RELAY_REGION_LEN.
        let quarter = RELAY_REGION_LEN / 4;
        for _ in 0..8 {
            let h = r.alloc(&mut fa, quarter, 1, true).unwrap();
            assert!(r.check_invariants().is_ok());
            r.free(&mut fa, h);
            assert!(r.check_invariants().is_ok());
        }
        // Non-LIFO pattern: free a hole in the middle and fill it.
        let a = r.alloc(&mut fa, quarter, 1, true).unwrap();
        let b = r.alloc(&mut fa, quarter, 1, true).unwrap();
        let a_va = r.seg_reg(a).va_base;
        r.free(&mut fa, a);
        let c = r.alloc(&mut fa, quarter / 2, 1, true).unwrap();
        assert_eq!(r.seg_reg(c).va_base, a_va, "hole is reused first-fit");
        assert!(r.check_invariants().is_ok());
        r.free(&mut fa, b);
        r.free(&mut fa, c);
        assert!(r.check_invariants().is_ok());
        // With zero live segments the full window is available again.
        let h = r.alloc(&mut fa, RELAY_REGION_LEN / 2, 1, true).unwrap();
        assert!(r.check_invariants().is_ok());
        r.free(&mut fa, h);
    }

    #[test]
    fn huge_len_is_oom_not_overflow() {
        let mut fa = alloc();
        let mut r = SegRegistry::new();
        for len in [u64::MAX, u64::MAX - FRAME_BYTES, 1 << 60] {
            assert!(matches!(
                r.alloc(&mut fa, len, 1, true),
                Err(XpcError::OutOfMemory)
            ));
        }
        for pages in [u64::MAX, u64::MAX / FRAME_BYTES + 1, 1 << 52] {
            assert!(matches!(
                r.alloc_paged(&mut fa, pages, 1, true),
                Err(XpcError::OutOfMemory)
            ));
        }
        assert!(r.check_invariants().is_ok());
        // The registry is still usable afterwards.
        assert!(r.alloc(&mut fa, 64, 1, true).is_ok());
    }

    #[test]
    fn owned_by_thread_filters() {
        let mut fa = alloc();
        let mut r = SegRegistry::new();
        let h1 = r.alloc(&mut fa, 64, 1, true).unwrap();
        let _h2 = r.alloc(&mut fa, 64, 2, true).unwrap();
        assert_eq!(r.owned_by_thread(1), vec![h1]);
    }
}
