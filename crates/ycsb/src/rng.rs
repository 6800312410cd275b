//! In-tree pseudo-random number generation: SplitMix64 seeding and
//! xoshiro256** generation.
//!
//! The workload generators need a small, fast, seedable PRNG with good
//! statistical quality — nothing cryptographic. Keeping it in-tree keeps
//! the whole workspace buildable with zero external crates (the offline
//! build policy; see DESIGN.md). Algorithms: Vigna's SplitMix64 (used to
//! expand a 64-bit seed into the 256-bit xoshiro state, as its authors
//! recommend) and xoshiro256** 1.0.

/// SplitMix64: a tiny 64-bit PRNG, mainly used here as a seed expander.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed directly from a 64-bit value.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derive the seed of stream `stream_id` from `base_seed` — the
/// SplitMix64 stream-derivation contract behind [`Rng::split`].
///
/// The derivation runs SplitMix64 from `base_seed`, *skips*
/// `stream_id + 1` outputs, and mixes the last one with one more
/// SplitMix64 step keyed by the stream id. Because every SplitMix64
/// output is a bijective mix of a distinct counter value, distinct
/// `(base_seed, stream_id)` pairs map to distinct derived seeds for any
/// realistic stream count, and neighboring stream ids share no
/// low-entropy structure (each differs by a full avalanche step).
///
/// Exposed separately from [`Rng::split`] because some callers need the
/// raw derived *seed* (e.g. to put in a `LoadGen`/trace spec that seeds
/// its own generator internally) rather than a constructed generator.
pub fn stream_seed(base_seed: u64, stream_id: u64) -> u64 {
    let mut sm = SplitMix64::new(base_seed);
    let mut last = 0u64;
    // Cheap skip for practical stream counts (sweep grids are O(100)
    // cells); the final xor-fold makes even stream 0 differ from the
    // plain `seed_from_u64(base_seed)` expansion.
    for _ in 0..=stream_id.min(1024) {
        last = sm.next_u64();
    }
    SplitMix64::new(last ^ stream_id.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// xoshiro256**: the workloads' generator. 256 bits of state, period
/// 2^256 − 1, passes BigCrush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The default generator type used throughout the workloads.
pub type Rng = Xoshiro256StarStar;

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 expansion of `seed` (never yields the
    /// all-zero state, which xoshiro cannot escape).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53 high bits of the next output).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, n)` via 128-bit widening multiply
    /// (Lemire's method without the rejection step — the bias is
    /// ≤ n/2^64, irrelevant for workload generation).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` — `[0, 0)` is empty, so there is nothing to
    /// draw. This holds in release builds too (it used to be a
    /// `debug_assert!`, which silently returned 0 in release; callers
    /// indexing a roster with that 0 would then read an element of an
    /// empty collection downstream). Callers that want saturation
    /// semantics must handle the empty case themselves *before*
    /// drawing; the recipe-pick sites do this by rejecting empty
    /// rosters with a typed error at entry (see
    /// `simos::load::LoadError::EmptyRecipes`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0): cannot draw from the empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// One uniform byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Seed stream `stream_id` derived from `base_seed` — the per-cell
    /// seeding primitive for parallel sweeps.
    ///
    /// Contract: `split(b, s)` equals
    /// `seed_from_u64(stream_seed(b, s))`, is deterministic in
    /// `(base_seed, stream_id)` alone (no global state, no ordering
    /// dependence), and distinct stream ids yield statistically
    /// uncorrelated generators (see [`stream_seed`] for the SplitMix64
    /// derivation). A parallel grid gives cell *i* the stream
    /// `Rng::split(GRID_SEED, i)`; results are then independent of
    /// which worker runs the cell and in what order.
    pub fn split(base_seed: u64, stream_id: u64) -> Self {
        Self::seed_from_u64(stream_seed(base_seed, stream_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 0, from Vigna's reference C code.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(sm.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(sm.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let mut c = Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_looks_uniform() {
        let mut r = Rng::seed_from_u64(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((0.47..0.53).contains(&mean), "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_flat() {
        let mut r = Rng::seed_from_u64(9);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = r.below(10);
            assert!(v < 10);
            counts[v as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics_in_every_build() {
        // The documented contract: `below(0)` panics (release builds
        // included), instead of the old debug_assert that silently
        // returned 0 and let callers index empty rosters downstream.
        let mut r = Rng::seed_from_u64(1);
        let _ = r.below(0);
    }

    #[test]
    fn below_one_is_always_zero() {
        // The smallest *legal* range: every draw from [0, 1) is 0.
        let mut r = Rng::seed_from_u64(5);
        for _ in 0..64 {
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    fn split_is_deterministic_and_matches_stream_seed() {
        let a = Rng::split(0x5eed, 3);
        let b = Rng::split(0x5eed, 3);
        let c = Rng::seed_from_u64(stream_seed(0x5eed, 3));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn split_streams_are_distinct_and_differ_from_plain_seeding() {
        // No two of the first 256 streams share a derived seed, and
        // stream 0 is not the plain seed_from_u64 expansion (so code
        // that mixes both conventions never aliases).
        let mut seeds: Vec<u64> = (0..256).map(|s| stream_seed(0xabcd, s)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 256, "derived seeds collide");
        assert_ne!(Rng::split(0xabcd, 0), Rng::seed_from_u64(0xabcd));
    }

    #[test]
    fn split_streams_do_not_correlate() {
        // Statistical smoke test: adjacent streams (the worst case for
        // a weak derivation) agree on ~50% of output bits, and their
        // early outputs are disjoint.
        let mut a = Rng::split(42, 0);
        let mut b = Rng::split(42, 1);
        let head_a: Vec<u64> = (0..1024).map(|_| a.next_u64()).collect();
        let head_b: Vec<u64> = (0..1024).map(|_| b.next_u64()).collect();
        assert!(
            head_a.iter().all(|x| !head_b.contains(x)),
            "adjacent streams share early outputs"
        );
        let agree: u32 = head_a
            .iter()
            .zip(&head_b)
            .map(|(x, y)| (!(x ^ y)).count_ones())
            .sum();
        let total = 1024 * 64;
        let frac = f64::from(agree) / f64::from(total);
        assert!(
            (0.48..0.52).contains(&frac),
            "bit agreement {frac} outside [0.48, 0.52]"
        );
    }

    #[test]
    fn bytes_cover_the_range() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 256];
        for _ in 0..20_000 {
            seen[r.byte() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all byte values reachable");
    }
}
