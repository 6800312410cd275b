//! Set-up, warm-up and the timed chunk loop shared by every workload.
//!
//! A workload is a closed batch job cut into *chunks* of fixed simulated
//! work. The harness repeats set-up (build + fixed warm-up chunks)
//! several times and reports the median, then runs chunks until the time
//! budget is spent, timing each one. Chunk `i` has *kind* `i % kinds`;
//! chunks of one kind do the same amount of host work, so the harness
//! takes a median per kind and reports
//! `ops_per_s = sum(ops per kind) / sum(median seconds per kind)` —
//! with one kind, ops per chunk over the median chunk time. How many
//! chunks fit the budget changes no simulated statistic: every chunk's
//! outcome depends on `(seed, index)` alone.

use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

/// What one chunk did, as the untimed check after it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkOutcome {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Digest of the chunk's simulated results (0 when unseeded).
    pub digest: u64,
}

/// A built workload instance.
pub trait Workload {
    /// Distinct chunk kinds; chunk `i` is of kind `i % kinds()`.
    fn kinds(&self) -> usize {
        1
    }

    /// Run chunk `index` — the timed part. Calls into the layers are
    /// wrapped in spans on `t`.
    fn run_chunk(&mut self, index: u64, t: &mut Tracer);

    /// Check the outputs of the chunk that just ran — untimed.
    fn check_chunk(&mut self, index: u64) -> ChunkOutcome;
}

/// A workload's entry in the registry.
pub struct Spec {
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    pub why: &'static str,
    /// Times set-up is repeated (the median is reported).
    pub setup_reps: usize,
    /// Chunks run during set-up, so caches, arenas and lazy state are
    /// full before timing and set-up is long enough to repeat.
    pub warmup_chunks: u64,
    /// Whether `--seed` changes the inputs.
    pub seeded: bool,
    pub build: fn(seed: u64, t: &mut Tracer) -> Box<dyn Workload>,
}

/// Sum of the outcomes of several chunks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, o: ChunkOutcome) {
        self.attempted += o.ops;
        self.failed += o.failed;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One set-up: the built instance, how long build + warm-up took, and
/// the warm-up chunks' digests.
pub struct SetUp {
    pub workload: Box<dyn Workload>,
    pub seconds: f64,
    pub digests: Vec<u64>,
    pub tally: Tally,
}

/// Build the workload and run its warm-up chunks `0..warmup_chunks`.
pub fn set_up(spec: &Spec, seed: u64, t: &mut Tracer) -> SetUp {
    let open = t.enter("harness", "setup");
    let mut seconds = 0.0;
    let t0 = Instant::now();
    let mut workload = (spec.build)(seed, t);
    seconds += t0.elapsed().as_secs_f64();
    let mut digests = Vec::new();
    let mut tally = Tally::default();
    for i in 0..spec.warmup_chunks {
        t.set_chunk(i);
        let chunk = t.enter("harness", "chunk");
        let t0 = Instant::now();
        workload.run_chunk(i, t);
        seconds += t0.elapsed().as_secs_f64();
        t.exit(chunk);
        let o = workload.check_chunk(i);
        digests.push(o.digest);
        tally.add(o);
    }
    t.exit(open);
    SetUp {
        workload,
        seconds,
        digests,
        tally,
    }
}

/// Repeat set-up `spec.setup_reps` times. Returns the last instance,
/// every repetition's seconds, and the tally over all repetitions; a
/// repetition whose warm-up digests differ from the first one's (same
/// seed, same chunks, so they must not) adds a failure.
pub fn repeated_set_up(spec: &Spec, seed: u64, t: &mut Tracer) -> (SetUp, Vec<f64>, Tally) {
    let mut first: Option<Vec<u64>> = None;
    let mut seconds = Vec::new();
    let mut tally = Tally::default();
    let mut last = None;
    for _ in 0..spec.setup_reps.max(1) {
        let s = set_up(spec, seed, t);
        seconds.push(s.seconds);
        tally.merge(s.tally);
        match &first {
            None => first = Some(s.digests.clone()),
            Some(d) if *d != s.digests => {
                eprintln!(
                    "{}: warm-up digests differ between set-ups with one seed",
                    spec.name
                );
                tally.failed += 1;
            }
            Some(_) => {}
        }
        last = Some(s);
    }
    (last.expect("at least one set-up"), seconds, tally)
}

/// Timed chunk samples of one measurement window.
#[derive(Debug, Default)]
pub struct Samples {
    /// `(kind, seconds, ops)` per chunk, in run order.
    pub chunks: Vec<(usize, f64, u64)>,
    pub tally: Tally,
}

impl Samples {
    /// `sum(ops per kind) / sum(median seconds per kind)`; see the
    /// module docs. Kinds are weighted equally however many samples each
    /// got.
    pub fn ops_per_s(&self, kinds: usize) -> f64 {
        let mut ops = 0.0;
        let mut seconds = 0.0;
        for kind in 0..kinds {
            let of_kind = || self.chunks.iter().filter(|c| c.0 == kind);
            ops += stats::median_of(&of_kind().map(|c| c.2 as f64).collect::<Vec<_>>());
            seconds += stats::median_of(&of_kind().map(|c| c.1).collect::<Vec<_>>());
        }
        ops / seconds
    }

    /// Every chunk's milliseconds, ascending.
    pub fn chunk_ms_sorted(&self) -> Vec<f64> {
        stats::sorted(&self.chunks.iter().map(|c| c.1 * 1e3).collect::<Vec<_>>())
    }
}

/// The kind of chunk `index` among `kinds`.
pub fn kind_of(index: u64, kinds: usize) -> usize {
    usize::try_from(index % kinds as u64).expect("a kind is below `kinds`")
}

/// Run chunks `first_index..` for at least `seconds` and at least one
/// chunk of every kind.
pub fn measure(w: &mut dyn Workload, first_index: u64, seconds: f64, t: &mut Tracer) -> Samples {
    let kinds = w.kinds();
    let mut samples = Samples::default();
    let window = Instant::now();
    let mut index = first_index;
    while samples.chunks.len() < kinds || window.elapsed().as_secs_f64() < seconds {
        t.set_chunk(index);
        let chunk = t.enter("harness", "chunk");
        let t0 = Instant::now();
        w.run_chunk(index, t);
        let dt = t0.elapsed().as_secs_f64();
        t.exit(chunk);
        let o = w.check_chunk(index);
        samples.chunks.push((kind_of(index, kinds), dt, o.ops));
        samples.tally.add(o);
        index += 1;
    }
    samples
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host nanoseconds per `Instant::now()` call.
pub fn timer_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..CALLS {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_secs_f64() * 1e9 / f64::from(CALLS)
}

/// Time `f` `reps` times after one unmeasured call; median seconds.
pub fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median_of(&times)
}

/// [`median_seconds`] over a fresh fixture per repetition, built outside
/// the timed part. Also returns the last fixture.
pub fn median_seconds_fresh<S>(
    reps: usize,
    mut fixture: impl FnMut() -> S,
    mut timed: impl FnMut(&mut S),
) -> (f64, S) {
    let mut run = || {
        let mut s = fixture();
        let t0 = Instant::now();
        timed(&mut s);
        (t0.elapsed().as_secs_f64(), s)
    };
    let mut last = run().1;
    let mut times = Vec::new();
    for _ in 0..reps {
        let (seconds, s) = run();
        times.push(seconds);
        last = s;
    }
    (stats::median_of(&times), last)
}

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The seed of chunk `index` under run seed `seed`.
pub fn chunk_seed(seed: u64, index: u64) -> u64 {
    ycsb::stream_seed(seed, index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_per_s_sums_per_kind_medians() {
        // Kind 0: 100 ops in a median 1 s; kind 1: 300 ops in 3 s. An
        // outlier and an unequal sample count must not move the result.
        let s = Samples {
            chunks: vec![
                (0, 1.0, 100),
                (1, 3.0, 300),
                (0, 1.0, 100),
                (1, 3.0, 300),
                (0, 50.0, 100),
            ],
            tally: Tally::default(),
        };
        assert_eq!(s.ops_per_s(2), 100.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        assert_eq!(fnv1a(FNV_SEED, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(FNV_SEED, b"ab"), fnv1a(FNV_SEED, b"ba"));
    }
}
