//! Fully-associative TLB model with optional ASID tagging.
//!
//! The Rocket core the paper uses has no tagged TLB, so every `satp` write
//! flushes translations — the ~40-cycle "TLB" component of Figure 5. The
//! "+Tagged-TLB" optimization keeps entries alive across address-space
//! switches by tagging them with the ASID; both behaviours live here behind
//! [`Tlb::set_tagged`].

/// Page-permission bits as stored in a PTE / TLB entry.
pub mod pte {
    /// Valid.
    pub const V: u64 = 1 << 0;
    /// Readable.
    pub const R: u64 = 1 << 1;
    /// Writable.
    pub const W: u64 = 1 << 2;
    /// Executable.
    pub const X: u64 = 1 << 3;
    /// User-accessible.
    pub const U: u64 = 1 << 4;
    /// Global.
    pub const G: u64 = 1 << 5;
    /// Accessed.
    pub const A: u64 = 1 << 6;
    /// Dirty.
    pub const D: u64 = 1 << 7;
}

/// One cached translation. `level` is the leaf level (0 = 4 KiB page,
/// 1 = 2 MiB, 2 = 1 GiB).
#[derive(Debug, Clone, Copy)]
pub struct TlbEntry {
    /// Virtual page number of the leaf (already masked for superpages).
    pub vpn: u64,
    /// Leaf level (0, 1, 2).
    pub level: u8,
    /// Address-space ID the entry was filled under.
    pub asid: u16,
    /// Physical page number of the leaf.
    pub ppn: u64,
    /// PTE permission bits (R/W/X/U/G/A/D).
    pub perms: u64,
    valid: bool,
    lru: u64,
}

/// Fully-associative, true-LRU TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    tagged: bool,
    stamp: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Number of full flushes performed.
    pub flushes: u64,
}

impl Tlb {
    /// An empty TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 (a fill needs a victim).
    pub fn new(entries: usize, tagged: bool) -> Self {
        assert!(entries >= 1, "a TLB needs at least one entry");
        Tlb {
            entries: vec![
                TlbEntry {
                    vpn: 0,
                    level: 0,
                    asid: 0,
                    ppn: 0,
                    perms: 0,
                    valid: false,
                    lru: 0,
                };
                entries
            ],
            tagged,
            stamp: 0,
            hits: 0,
            misses: 0,
            flushes: 0,
        }
    }

    /// Whether entries are ASID-tagged.
    pub fn tagged(&self) -> bool {
        self.tagged
    }

    /// Switch tagging on/off (flushes, since the tag semantics change).
    pub fn set_tagged(&mut self, tagged: bool) {
        self.tagged = tagged;
        self.flush_all();
    }

    #[inline]
    fn vpn_matches(e: &TlbEntry, vpn: u64) -> bool {
        let shift = 9 * e.level as u64;
        (vpn >> shift) == (e.vpn >> shift)
    }

    /// Look up `vpn` under `asid`; counts hit/miss statistics.
    #[inline]
    pub fn lookup(&mut self, vpn: u64, asid: u16) -> Option<TlbEntry> {
        self.stamp += 1;
        let stamp = self.stamp;
        let tagged = self.tagged;
        let found = self
            .entries
            .iter_mut()
            .find(|e| e.valid && Self::vpn_matches(e, vpn) && (!tagged || e.asid == asid));
        match found {
            Some(e) => {
                e.lru = stamp;
                self.hits += 1;
                Some(*e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a translation filled by the page walker. A refill of an
    /// already-resident (vpn, asid) updates that entry in place rather
    /// than duplicating it (duplicates would make lookups ambiguous).
    pub fn fill(&mut self, vpn: u64, level: u8, asid: u16, ppn: u64, perms: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let tagged = self.tagged;
        let victim = if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.valid && Self::vpn_matches(e, vpn) && (!tagged || e.asid == asid))
        {
            existing
        } else if let Some(lru) =
            self.entries
                .iter_mut()
                .min_by_key(|e| if e.valid { e.lru } else { 0 })
        {
            lru
        } else {
            unreachable!("Tlb::new asserts entries >= 1");
        };
        *victim = TlbEntry {
            vpn,
            level,
            asid,
            ppn,
            perms,
            valid: true,
            lru: stamp,
        };
    }

    /// Flush everything (untagged `satp` write, or `sfence.vma` with no
    /// operands).
    pub fn flush_all(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
        self.flushes += 1;
    }

    /// Flush entries for one ASID (tagged `sfence.vma` with ASID operand).
    pub fn flush_asid(&mut self, asid: u16) {
        for e in &mut self.entries {
            if e.asid == asid {
                e.valid = false;
            }
        }
        self.flushes += 1;
    }

    /// Count of currently valid entries.
    pub fn valid_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut t = Tlb::new(4, false);
        assert!(t.lookup(0x10, 0).is_none());
        t.fill(0x10, 0, 0, 0x999, pte::R | pte::V);
        let e = t.lookup(0x10, 0).expect("filled");
        assert_eq!(e.ppn, 0x999);
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn untagged_ignores_asid() {
        let mut t = Tlb::new(4, false);
        t.fill(0x10, 0, 1, 0x1, pte::V);
        assert!(t.lookup(0x10, 2).is_some(), "untagged TLB matches any ASID");
    }

    #[test]
    fn tagged_separates_asids() {
        let mut t = Tlb::new(4, true);
        t.fill(0x10, 0, 1, 0x1, pte::V);
        assert!(t.lookup(0x10, 2).is_none());
        assert!(t.lookup(0x10, 1).is_some());
    }

    #[test]
    fn superpage_match() {
        let mut t = Tlb::new(4, false);
        // 2 MiB leaf at level 1: vpn low 9 bits ignored.
        t.fill(0x200, 1, 0, 0x40000, pte::V | pte::R);
        assert!(t.lookup(0x200 | 0x1ff, 0).is_some());
        assert!(t.lookup(0x400, 0).is_none());
    }

    #[test]
    fn flush_asid_is_selective() {
        let mut t = Tlb::new(4, true);
        t.fill(0x10, 0, 1, 0x1, pte::V);
        t.fill(0x20, 0, 2, 0x2, pte::V);
        t.flush_asid(1);
        assert!(t.lookup(0x10, 1).is_none());
        assert!(t.lookup(0x20, 2).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_is_rejected_at_construction() {
        let _ = Tlb::new(0, false);
    }

    #[test]
    fn lru_replacement() {
        let mut t = Tlb::new(2, false);
        t.fill(0x1, 0, 0, 0x1, pte::V);
        t.fill(0x2, 0, 0, 0x2, pte::V);
        t.lookup(0x1, 0); // refresh
        t.fill(0x3, 0, 0, 0x3, pte::V); // evicts vpn 0x2
        assert!(t.lookup(0x1, 0).is_some());
        assert!(t.lookup(0x2, 0).is_none());
    }
}
