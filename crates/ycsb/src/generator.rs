//! Request-distribution generators: zipfian (with YCSB's scrambling),
//! latest, and uniform.

use crate::rng::Rng;

/// The YCSB zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// Gray's zipfian generator over `0..items` (the YCSB algorithm).
#[derive(Debug, Clone)]
pub struct ZipfianGen {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl ZipfianGen {
    /// A generator over `items` items with the standard constant.
    pub(crate) fn new(items: u64) -> Self {
        let theta = ZIPFIAN_CONSTANT;
        let zetan = zeta(items, theta);
        let zeta2 = zeta(2, theta);
        ZipfianGen {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Draw the next item (0 is the hottest).
    pub(crate) fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        // The float product is < items by construction; truncation toward
        // zero is the YCSB-specified rounding.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let item = ((self.items as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        item
    }
}

/// YCSB's scrambled zipfian: zipfian popularity, hashed over the keyspace
/// so hot keys are spread out.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: ZipfianGen,
    items: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// FNV-1a over the 8 bytes of `v` (YCSB's `fnvhash64`).
pub(crate) fn fnv_hash64(v: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for i in 0..8 {
        h ^= (v >> (8 * i)) & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl ScrambledZipfian {
    /// A scrambled generator over `items`.
    pub(crate) fn new(items: u64) -> Self {
        ScrambledZipfian {
            inner: ZipfianGen::new(items),
            items,
        }
    }

    /// Draw the next (scrambled) item.
    pub(crate) fn next(&self, rng: &mut Rng) -> u64 {
        fnv_hash64(self.inner.next(rng)) % self.items
    }
}

/// Uniform over `0..items`.
#[derive(Debug, Clone, Copy)]
pub struct UniformGen {
    items: u64,
}

impl UniformGen {
    /// A uniform generator over `items`.
    pub(crate) fn new(items: u64) -> Self {
        UniformGen { items }
    }

    /// Draw the next item.
    pub(crate) fn next(&self, rng: &mut Rng) -> u64 {
        rng.below(self.items)
    }
}

/// The "latest" distribution of workload D: zipfian over recency, keyed
/// from the current maximum item.
#[derive(Debug, Clone)]
pub struct LatestGen {
    zipf: ZipfianGen,
}

impl LatestGen {
    /// A latest-distribution generator for an initial keyspace of
    /// `items`.
    pub(crate) fn new(items: u64) -> Self {
        LatestGen {
            zipf: ZipfianGen::new(items),
        }
    }

    /// Draw, favouring keys close to `max_item`.
    pub(crate) fn next(&self, rng: &mut Rng, max_item: u64) -> u64 {
        let back = self.zipf.next(rng);
        max_item.saturating_sub(back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn zipfian_in_range_and_skewed() {
        let g = ZipfianGen::new(1000);
        let mut r = rng();
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            let v = g.next(&mut r);
            assert!(v < 1000);
            counts[v as usize] += 1;
        }
        // Item 0 should dominate the tail decisively.
        assert!(counts[0] > 20 * counts[500].max(1));
        // The head (top 10%) should take the majority of requests.
        let head: u64 = counts[..100].iter().sum();
        assert!(head > 60_000, "zipf head weight: {head}");
    }

    #[test]
    fn scrambled_spreads_the_head() {
        let g = ScrambledZipfian::new(1000);
        let mut r = rng();
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            counts[g.next(&mut r) as usize] += 1;
        }
        // Still skewed overall (some key is hot)...
        let max = *counts.iter().max().unwrap();
        assert!(max > 5_000);
        // ...but the hottest key is not key 0 in general.
        let argmax = counts.iter().position(|&c| c == max).unwrap();
        assert_ne!(argmax, 0, "scrambling must move the hot key");
    }

    #[test]
    fn uniform_is_flat() {
        let g = UniformGen::new(100);
        let mut r = rng();
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[g.next(&mut r) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < 2 * *min, "uniform spread: {min}..{max}");
    }

    #[test]
    fn latest_favours_recent() {
        let g = LatestGen::new(1000);
        let mut r = rng();
        let mut recent = 0;
        for _ in 0..10_000 {
            if g.next(&mut r, 999) > 900 {
                recent += 1;
            }
        }
        assert!(recent > 5_000, "latest head weight: {recent}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ScrambledZipfian::new(1000);
        let a: Vec<u64> = {
            let mut r = rng();
            (0..100).map(|_| g.next(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng();
            (0..100).map(|_| g.next(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
