//! Physical frame allocator for kernel objects and user memory.
//!
//! A bump allocator with an explicit free list is all the prototype needs;
//! relay segments additionally require *contiguous* multi-frame ranges
//! (§3.3: "a memory region backed with continuous physical memory").

use crate::error::XpcError;

/// 4 KiB frames.
pub const FRAME_BYTES: u64 = 4096;

/// Physical frame allocator.
#[derive(Debug, Clone)]
pub struct FrameAlloc {
    next: u64,
    limit: u64,
    free: Vec<u64>,
}

impl FrameAlloc {
    /// Allocate frames from `base..base+len` (both frame-aligned).
    pub fn new(base: u64, len: u64) -> Self {
        assert_eq!(base % FRAME_BYTES, 0, "base must be frame-aligned");
        FrameAlloc {
            next: base,
            limit: base + len,
            free: Vec::new(),
        }
    }

    /// Allocate one zero-frame… one frame (caller zeroes if needed).
    ///
    /// # Errors
    ///
    /// [`XpcError::OutOfMemory`] when exhausted.
    pub(crate) fn alloc(&mut self) -> Result<u64, XpcError> {
        if let Some(f) = self.free.pop() {
            return Ok(f);
        }
        if self.next + FRAME_BYTES > self.limit {
            return Err(XpcError::OutOfMemory);
        }
        let f = self.next;
        self.next += FRAME_BYTES;
        Ok(f)
    }

    /// Allocate `n` physically *contiguous* frames (for relay segments).
    ///
    /// # Errors
    ///
    /// [`XpcError::OutOfMemory`] when the bump region cannot fit them,
    /// including a count whose byte size does not fit a `u64`.
    pub(crate) fn alloc_contig(&mut self, n: u64) -> Result<u64, XpcError> {
        let end = n
            .checked_mul(FRAME_BYTES)
            .and_then(|bytes| self.next.checked_add(bytes))
            .filter(|&end| end <= self.limit)
            .ok_or(XpcError::OutOfMemory)?;
        let base = self.next;
        self.next = end;
        Ok(base)
    }

    /// Return a single frame to the allocator.
    pub(crate) fn free(&mut self, frame: u64) {
        debug_assert_eq!(frame % FRAME_BYTES, 0);
        self.free.push(frame);
    }

    /// Bytes still available in the bump region: the oracle the
    /// allocator and segment tests check leaks against.
    #[cfg(test)]
    pub(crate) fn remaining(&self) -> u64 {
        self.limit - self.next + self.free.len() as u64 * FRAME_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_distinct() {
        let mut a = FrameAlloc::new(0x8010_0000, 16 * FRAME_BYTES);
        let f1 = a.alloc().unwrap();
        let f2 = a.alloc().unwrap();
        assert_ne!(f1, f2);
        assert_eq!(f1 % FRAME_BYTES, 0);
    }

    #[test]
    fn free_list_reuses() {
        let mut a = FrameAlloc::new(0x8010_0000, 16 * FRAME_BYTES);
        let f1 = a.alloc().unwrap();
        a.free(f1);
        assert_eq!(a.alloc().unwrap(), f1);
    }

    #[test]
    fn contig_is_contiguous() {
        let mut a = FrameAlloc::new(0x8010_0000, 16 * FRAME_BYTES);
        let base = a.alloc_contig(4).unwrap();
        let next = a.alloc().unwrap();
        assert_eq!(next, base + 4 * FRAME_BYTES);
    }

    #[test]
    fn exhaustion_errors() {
        let mut a = FrameAlloc::new(0x8010_0000, 2 * FRAME_BYTES);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc().unwrap_err(), XpcError::OutOfMemory);
        assert_eq!(a.alloc_contig(1).unwrap_err(), XpcError::OutOfMemory);
    }

    #[test]
    fn oversized_contig_requests_are_refused_without_moving_the_allocator() {
        let base = 0x8010_0000;
        let mut a = FrameAlloc::new(base, 16 * FRAME_BYTES);
        // 2^52 frames is exactly 2^64 bytes; u64::MAX frames wraps to
        // just under it.
        for n in [1 << 52, u64::MAX, u64::MAX / FRAME_BYTES] {
            assert_eq!(a.alloc_contig(n), Err(XpcError::OutOfMemory), "{n} frames");
        }
        assert_eq!(a.remaining(), 16 * FRAME_BYTES);
        assert_eq!(a.alloc(), Ok(base));
    }

    #[test]
    fn remaining_tracks() {
        let mut a = FrameAlloc::new(0x8010_0000, 4 * FRAME_BYTES);
        assert_eq!(a.remaining(), 4 * FRAME_BYTES);
        let f = a.alloc().unwrap();
        assert_eq!(a.remaining(), 3 * FRAME_BYTES);
        a.free(f);
        assert_eq!(a.remaining(), 4 * FRAME_BYTES);
    }
}
