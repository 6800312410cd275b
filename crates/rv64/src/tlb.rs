//! Fully-associative TLB model with optional ASID tagging.
//!
//! The Rocket core the paper uses has no tagged TLB, so every `satp` write
//! flushes translations — the ~40-cycle "TLB" component of Figure 5. The
//! "+Tagged-TLB" optimization keeps entries alive across address-space
//! switches by tagging them with the ASID; both behaviours live here behind
//! [`Tlb::set_tagged`].
//!
//! Every change of *residency* — [`Tlb::fill`], [`Tlb::flush_all`],
//! [`Tlb::flush_asid`], hence [`Tlb::set_tagged`] — bumps a generation; an
//! LRU touch does not. While it stands still a lookup of the same (vpn,
//! asid) finds the same slot, so `Core`'s page memo can `touch` it instead.

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
    /// Residency generation (see the module doc).
    gen: u64,
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
            gen: 0,
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

    #[inline]
    fn matches(&self, e: &TlbEntry, vpn: u64, asid: u16) -> bool {
        e.valid && Self::vpn_matches(e, vpn) && (!self.tagged || e.asid == asid)
    }

    /// Look up `vpn` under `asid`; counts hit/miss statistics.
    #[inline]
    pub fn lookup(&mut self, vpn: u64, asid: u16) -> Option<TlbEntry> {
        self.lookup_slot(vpn, asid).map(|(_, e)| e)
    }

    /// [`Tlb::lookup`] that also reports which slot hit.
    #[inline]
    pub(crate) fn lookup_slot(&mut self, vpn: u64, asid: u16) -> Option<(usize, TlbEntry)> {
        let slot = self.entries.iter().position(|e| self.matches(e, vpn, asid));
        match slot {
            Some(slot) => self.touch(slot),
            None => {
                self.stamp += 1;
                self.misses += 1;
            }
        }
        slot.map(|slot| (slot, self.entries[slot]))
    }

    /// The residency generation: moves on every fill and flush.
    #[inline]
    pub(crate) fn gen(&self) -> u64 {
        self.gen
    }

    /// Replay a hit on `slot`: exactly what a [`Tlb::lookup`] that finds
    /// the entry there does to the LRU order and the counters.
    #[inline]
    pub(crate) fn touch(&mut self, slot: usize) {
        self.stamp += 1;
        self.entries[slot].lru = self.stamp;
        self.hits += 1;
    }

    /// Insert a translation filled by the page walker. A refill of an
    /// already-resident (vpn, asid) updates that entry in place rather
    /// than duplicating it (duplicates would make lookups ambiguous);
    /// otherwise the first invalid slot, else the first least-recently
    /// used one, is replaced.
    pub fn fill(&mut self, vpn: u64, level: u8, asid: u16, ppn: u64, perms: u64) {
        self.stamp += 1;
        self.gen += 1;
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (slot, e) in self.entries.iter().enumerate() {
            if self.matches(e, vpn, asid) {
                victim = slot;
                break;
            }
            let age = if e.valid { e.lru } else { 0 };
            if age < oldest {
                (victim, oldest) = (slot, age);
            }
        }
        self.entries[victim] = TlbEntry {
            vpn,
            level,
            asid,
            ppn,
            perms,
            valid: true,
            lru: self.stamp,
        };
    }

    /// Flush everything (untagged `satp` write, or `sfence.vma` with no
    /// operands).
    pub fn flush_all(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
        self.flushes += 1;
        self.gen += 1;
    }

    /// Flush entries for one ASID (tagged `sfence.vma` with ASID operand).
    pub fn flush_asid(&mut self, asid: u16) {
        for e in &mut self.entries {
            if e.asid == asid {
                e.valid = false;
            }
        }
        self.flushes += 1;
        self.gen += 1;
    }

    /// Count of currently valid entries.
    pub fn valid_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
impl Tlb {
    /// [`Tlb::fill`] as it was before it became one pass: a scan for a
    /// resident match, then a `min_by_key` scan for the victim.
    fn fill_two_scans(&mut self, vpn: u64, level: u8, asid: u16, ppn: u64, perms: u64) {
        self.stamp += 1;
        self.gen += 1;
        let resident = (0..self.entries.len()).find(|&i| self.matches(&self.entries[i], vpn, asid));
        let victim = resident.or_else(|| {
            (0..self.entries.len()).min_by_key(|&i| {
                let e = &self.entries[i];
                if e.valid {
                    e.lru
                } else {
                    0
                }
            })
        });
        self.entries[victim.expect("Tlb::new asserts entries >= 1")] = TlbEntry {
            vpn,
            level,
            asid,
            ppn,
            perms,
            valid: true,
            lru: self.stamp,
        };
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

    /// Slot holding `vpn`, without touching LRU order or counters.
    fn slot_of(t: &Tlb, vpn: u64) -> usize {
        (0..t.entries.len())
            .find(|&i| t.matches(&t.entries[i], vpn, 0))
            .expect("resident")
    }

    #[test]
    fn touch_is_a_repeated_lookup() {
        // Same counters, same LRU order, hence the same next victim.
        for refreshed in [0x1, 0x2] {
            let mut looked = Tlb::new(2, false);
            looked.fill(0x1, 0, 0, 0x1, pte::V);
            looked.fill(0x2, 0, 0, 0x2, pte::V);
            let mut touched = looked.clone();
            looked.lookup(refreshed, 0).expect("resident");
            touched.touch(slot_of(&touched, refreshed));
            assert_eq!(format!("{touched:?}"), format!("{looked:?}"));
            for t in [&mut looked, &mut touched] {
                t.fill(0x3, 0, 0, 0x3, pte::V);
                assert!(t.lookup(refreshed, 0).is_some(), "the other one went");
                assert!(t.lookup(refreshed ^ 0x3, 0).is_none());
            }
        }
    }

    #[test]
    fn gen_moves_with_residency_and_only_with_it() {
        let mut t = Tlb::new(4, true);
        let mut last = t.gen();
        let mut moved = |t: &Tlb| {
            let moved = t.gen() != last;
            last = t.gen();
            moved
        };
        t.fill(0x10, 0, 1, 0x1, pte::V);
        assert!(moved(&t), "fill");
        t.fill(0x10, 0, 1, 0x2, pte::V);
        assert!(moved(&t), "refill in place");
        t.lookup(0x10, 1);
        t.lookup(0x11, 1);
        t.touch(0);
        assert!(!moved(&t), "hit, miss, touch");
        t.flush_asid(2);
        assert!(moved(&t), "flush_asid, even of nothing");
        t.flush_all();
        assert!(moved(&t), "flush_all");
        t.set_tagged(false);
        assert!(moved(&t), "set_tagged");
    }

    #[test]
    fn one_pass_fill_picks_the_two_scan_victim() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        for (entries, tagged) in [(1, false), (2, false), (3, true), (4, true), (32, false)] {
            let mut one = Tlb::new(entries, tagged);
            let mut two = one.clone();
            for step in 0..4_000 {
                // Few pages and two leaf levels, so refills in place,
                // superpage overlaps and evictions all happen.
                let (vpn, asid) = (next(12) << (9 * next(2)), next(3) as u16);
                match next(16) {
                    0 => {
                        one.flush_all();
                        two.flush_all();
                    }
                    1 => {
                        one.flush_asid(asid);
                        two.flush_asid(asid);
                    }
                    2..=8 => {
                        let hit = one.lookup(vpn, asid).map(|e| e.ppn);
                        assert_eq!(hit, two.lookup(vpn, asid).map(|e| e.ppn));
                    }
                    _ => {
                        let (level, ppn) = (next(2) as u8, next(1 << 20));
                        one.fill(vpn, level, asid, ppn, pte::V | pte::R);
                        two.fill_two_scans(vpn, level, asid, ppn, pte::V | pte::R);
                    }
                }
                assert_eq!(
                    format!("{one:?}"),
                    format!("{two:?}"),
                    "{entries} entries, tagged {tagged}, step {step}"
                );
            }
        }
    }
}
