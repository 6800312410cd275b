//! Set-associative cache *timing* model.
//!
//! The emulator keeps data in flat [`crate::Memory`]; the cache tracks only
//! tags and LRU state so each access can be priced as hit or miss. This is
//! the standard decoupled functional/timing split and is all the paper's
//! cycle numbers need: IPC costs there are dominated by whether the x-entry,
//! capability bitmap, link stack and message bytes hit in the D-cache.

use crate::config::CacheConfig;

/// One cache way: tag + LRU stamp.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    lru: u64,
}

/// Outcome of a cache access, with the cycles it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// True if the line was resident.
    pub hit: bool,
    /// Cycles charged for this access (hit_extra or miss_penalty).
    pub cycles: u64,
}

/// Set-associative cache timing model with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2(line_bytes), `sets - 1` and log2(line_bytes * sets): the
    /// constructor proves both are powers of two, so `access` is
    /// shift-and-mask.
    line_shift: u32,
    set_mask: usize,
    tag_shift: u32,
    lines: Vec<Line>,
    stamp: u64,
    /// Total hits observed.
    pub hits: u64,
    /// Total misses observed.
    pub misses: u64,
    /// Address of the most recent miss (debug/trace aid).
    pub last_miss_pa: u64,
}

impl Cache {
    /// Build an empty (all-invalid) cache for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` and `line_bytes` are powers of two and
    /// `ways >= 1`.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways >= 1, "a cache needs at least one way");
        let line_shift = cfg.line_bytes.trailing_zeros();
        Cache {
            line_shift,
            set_mask: cfg.sets - 1,
            tag_shift: line_shift + cfg.sets.trailing_zeros(),
            lines: vec![Line::default(); cfg.sets * cfg.ways],
            cfg,
            stamp: 0,
            hits: 0,
            misses: 0,
            last_miss_pa: 0,
        }
    }

    /// Access `pa`; fills the line on miss and returns the priced outcome.
    #[inline]
    pub fn access(&mut self, pa: u64) -> CacheAccess {
        self.stamp += 1;
        let set = (pa >> self.line_shift) as usize & self.set_mask;
        let tag = pa >> self.tag_shift;
        let base = set * self.cfg.ways;
        let ways = &mut self.lines[base..base + self.cfg.ways];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.stamp;
            self.hits += 1;
            return CacheAccess {
                hit: true,
                cycles: self.cfg.hit_extra,
            };
        }
        self.fill(base, tag, pa)
    }

    /// Miss: fill into the LRU (or first invalid) way of the set at `base`.
    /// Out of line so that the hit path above stays small enough to inline.
    #[inline(never)]
    fn fill(&mut self, base: usize, tag: u64, pa: u64) -> CacheAccess {
        let Some(victim) = self.lines[base..base + self.cfg.ways]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
        else {
            unreachable!("Cache::new asserts ways >= 1");
        };
        victim.valid = true;
        victim.tag = tag;
        victim.lru = self.stamp;
        self.misses += 1;
        self.last_miss_pa = pa;
        CacheAccess {
            hit: false,
            cycles: self.cfg.miss_penalty,
        }
    }

    /// Pre-load the line holding `pa` without charging cycles (used to model
    /// a warm cache at benchmark start).
    pub fn warm(&mut self, pa: u64) {
        let _ = self.access(pa);
        self.hits = 0;
        self.misses = 0;
    }

    /// Fill the line holding `pa` without charging cycles or counting
    /// statistics — models a buffered store draining into the cache off
    /// the critical path (the non-blocking link stack of XPC §3.2).
    pub fn touch(&mut self, pa: u64) {
        let (h, m) = (self.hits, self.misses);
        let _ = self.access(pa);
        self.hits = h;
        self.misses = m;
    }

    /// Invalidate everything (e.g. to model a cold start).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
            hit_extra: 1,
            miss_penalty: 20,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x8000_0000).hit);
        assert!(c.access(0x8000_0000).hit);
        assert!(c.access(0x8000_003f).hit, "same 64B line");
        assert!(!c.access(0x8000_0040).hit, "next line");
    }

    #[test]
    fn miss_and_hit_cost_differ() {
        let mut c = tiny();
        assert_eq!(c.access(0x8000_0000).cycles, 20);
        assert_eq!(c.access(0x8000_0000).cycles, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = line*sets = 128).
        c.access(0x8000_0000);
        c.access(0x8000_0080);
        c.access(0x8000_0000); // refresh first
        c.access(0x8000_0100); // evicts 0x...080
        assert!(c.access(0x8000_0000).hit);
        assert!(!c.access(0x8000_0080).hit, "was LRU victim");
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_is_rejected_at_construction() {
        let mut cfg = *tiny().config();
        cfg.ways = 0;
        let _ = Cache::new(cfg);
    }

    #[test]
    fn shift_and_mask_geometry_matches_division() {
        // 64 sets x 64 B lines: set = (pa / 64) % 64, tag = pa / 4096.
        let mut c = Cache::new(crate::MachineConfig::rocket_u500().dcache);
        c.access(0x8000_0000);
        assert!(c.access(0x8000_003f).hit, "same line");
        assert!(!c.access(0x8000_0040).hit, "next set");
        for way in 1..=4 {
            assert!(!c.access(0x8000_0000 + way * 4096).hit, "same set, new tag");
        }
        assert!(!c.access(0x8000_0000).hit, "evicted by four newer tags");
        assert!(c.access(0x8000_0040).hit, "other set untouched");
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0x8000_0000);
        c.flush();
        assert!(!c.access(0x8000_0000).hit);
    }

    #[test]
    fn warm_does_not_count() {
        let mut c = tiny();
        c.warm(0x8000_0000);
        assert_eq!(c.misses, 0);
        assert!(c.access(0x8000_0000).hit);
    }
}
