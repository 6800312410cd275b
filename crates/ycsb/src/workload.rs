//! The six core workload mixes and the operation stream generator.

use crate::generator::{LatestGen, ScrambledZipfian, UniformGen};
use crate::rng::Rng;

/// One database operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read the full row at key.
    Read(String),
    /// Overwrite one field of the row at key.
    Update(String, Vec<u8>),
    /// Insert a new row.
    Insert(String, Vec<u8>),
    /// Scan `len` rows from key.
    Scan(String, usize),
    /// Read then update (workload F).
    ReadModifyWrite(String, Vec<u8>),
}

/// The six YCSB core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    A,
    B,
    C,
    D,
    E,
    F,
}

impl Workload {
    /// All six, in figure order.
    pub const ALL: [Workload; 6] = [
        Workload::A,
        Workload::B,
        Workload::C,
        Workload::D,
        Workload::E,
        Workload::F,
    ];

    /// Display name as in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::A => "YCSB-A",
            Workload::B => "YCSB-B",
            Workload::C => "YCSB-C",
            Workload::D => "YCSB-D",
            Workload::E => "YCSB-E",
            Workload::F => "YCSB-F",
        }
    }
}

/// Workload parameters (defaults follow §5.4: 1000-record table; YCSB
/// defaults elsewhere: 10 fields × 100 B).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which mix.
    pub workload: Workload,
    /// Records loaded before the run.
    pub records: u64,
    /// Operations to generate.
    pub ops: u64,
    /// Fields per row.
    pub fields: usize,
    /// Bytes per field.
    pub field_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's configuration for `workload`.
    pub fn paper(workload: Workload) -> Self {
        WorkloadSpec {
            workload,
            records: 1000,
            ops: 1000,
            fields: 10,
            field_len: 100,
            seed: 0x5eed,
        }
    }

    /// Key for record `n` (YCSB's `user<hash>` flavour, simplified).
    pub fn key(&self, n: u64) -> String {
        format!("user{n:08}")
    }

    /// A full row payload (fields concatenated, deterministic content).
    pub fn row_bytes(&self, rng: &mut Rng) -> Vec<u8> {
        random_bytes(rng, self.fields * self.field_len)
    }

    /// One field's worth of fresh bytes (update payload).
    pub(crate) fn field_bytes(&self, rng: &mut Rng) -> Vec<u8> {
        random_bytes(rng, self.field_len)
    }

    /// Generate the operation stream.
    ///
    /// # Panics
    ///
    /// Panics when `records` is 0: the zipfian and latest generators have
    /// no key to draw, and there is no "last inserted" record for
    /// workloads D and E to count up from.
    pub fn generate(&self) -> Vec<Op> {
        assert!(
            self.records > 0,
            "WorkloadSpec::generate: an empty table (records = 0) has no key to draw"
        );
        let mut rng = Rng::seed_from_u64(self.seed);
        let zipf = ScrambledZipfian::new(self.records);
        let latest = LatestGen::new(self.records);
        let scan_len = UniformGen::new(100);
        let mut max_insert = self.records - 1;
        let mut ops = Vec::with_capacity(usize::try_from(self.ops).expect("op count fits usize"));
        for _ in 0..self.ops {
            let p = rng.next_f64();
            let op = match self.workload {
                Workload::A => {
                    if p < 0.5 {
                        Op::Read(self.key(zipf.next(&mut rng)))
                    } else {
                        Op::Update(self.key(zipf.next(&mut rng)), self.field_bytes(&mut rng))
                    }
                }
                Workload::B => {
                    if p < 0.95 {
                        Op::Read(self.key(zipf.next(&mut rng)))
                    } else {
                        Op::Update(self.key(zipf.next(&mut rng)), self.field_bytes(&mut rng))
                    }
                }
                Workload::C => Op::Read(self.key(zipf.next(&mut rng))),
                Workload::D => {
                    if p < 0.95 {
                        Op::Read(self.key(latest.next(&mut rng, max_insert)))
                    } else {
                        max_insert += 1;
                        Op::Insert(self.key(max_insert), self.row_bytes(&mut rng))
                    }
                }
                Workload::E => {
                    if p < 0.95 {
                        Op::Scan(
                            self.key(zipf.next(&mut rng)),
                            1 + usize::try_from(scan_len.next(&mut rng))
                                .expect("scan length fits usize"),
                        )
                    } else {
                        max_insert += 1;
                        Op::Insert(self.key(max_insert), self.row_bytes(&mut rng))
                    }
                }
                Workload::F => {
                    if p < 0.5 {
                        Op::Read(self.key(zipf.next(&mut rng)))
                    } else {
                        Op::ReadModifyWrite(
                            self.key(zipf.next(&mut rng)),
                            self.field_bytes(&mut rng),
                        )
                    }
                }
            };
            ops.push(op);
        }
        ops
    }
}

/// `n` bytes, one [`Rng::byte`] draw each, into one exact-size allocation.
fn random_bytes(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.byte()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count<F: Fn(&Op) -> bool>(ops: &[Op], f: F) -> usize {
        ops.iter().filter(|o| f(o)).count()
    }

    #[test]
    fn workload_a_is_half_updates() {
        let spec = WorkloadSpec {
            ops: 10_000,
            ..WorkloadSpec::paper(Workload::A)
        };
        let ops = spec.generate();
        let updates = count(&ops, |o| matches!(o, Op::Update(..)));
        assert!((4_500..5_500).contains(&updates), "{updates}");
    }

    #[test]
    fn workload_c_is_read_only() {
        let ops = WorkloadSpec::paper(Workload::C).generate();
        assert!(ops.iter().all(|o| matches!(o, Op::Read(_))));
    }

    #[test]
    fn workload_e_is_mostly_scans() {
        let spec = WorkloadSpec {
            ops: 10_000,
            ..WorkloadSpec::paper(Workload::E)
        };
        let ops = spec.generate();
        let scans = count(&ops, |o| matches!(o, Op::Scan(..)));
        assert!(scans > 9_000, "{scans}");
        // Scan lengths bounded by 100.
        for op in &ops {
            if let Op::Scan(_, len) = op {
                assert!((1..=100).contains(len));
            }
        }
    }

    #[test]
    fn workload_d_inserts_fresh_keys() {
        let spec = WorkloadSpec {
            ops: 10_000,
            ..WorkloadSpec::paper(Workload::D)
        };
        let ops = spec.generate();
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            if let Op::Insert(k, _) = op {
                assert!(seen.insert(k.clone()), "duplicate insert {k}");
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadSpec::paper(Workload::A).generate();
        let b = WorkloadSpec::paper(Workload::A).generate();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "an empty table (records = 0) has no key to draw")]
    fn empty_table_is_refused() {
        let spec = WorkloadSpec {
            records: 0,
            ..WorkloadSpec::paper(Workload::D)
        };
        let _ = spec.generate();
    }

    #[test]
    fn payload_bytes_are_one_draw_per_byte() {
        // Captured before `row_bytes` stopped pushing byte by byte: the
        // loaded table and every update payload hang off this stream.
        let spec = WorkloadSpec {
            fields: 3,
            field_len: 5,
            ..WorkloadSpec::paper(Workload::A)
        };
        let mut rng = Rng::seed_from_u64(0x5eed ^ 0x10ad);
        let want: [(&[u8], &[u8]); 3] = [
            (
                &[
                    96, 89, 90, 76, 132, 164, 82, 78, 250, 192, 77, 68, 99, 34, 146,
                ],
                &[111, 23, 244, 33, 185],
            ),
            (
                &[
                    221, 72, 210, 171, 216, 124, 124, 129, 2, 198, 138, 58, 103, 83, 204,
                ],
                &[206, 175, 245, 111, 150],
            ),
            (
                &[
                    177, 171, 116, 113, 115, 7, 205, 11, 208, 86, 240, 83, 248, 107, 40,
                ],
                &[151, 99, 152, 102, 23],
            ),
        ];
        for (row, field) in want {
            assert_eq!(spec.row_bytes(&mut rng), row);
            assert_eq!(spec.field_bytes(&mut rng), field);
        }
    }

    #[test]
    fn rows_have_spec_size() {
        let spec = WorkloadSpec::paper(Workload::A);
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(spec.row_bytes(&mut rng).len(), 1000);
        assert_eq!(spec.field_bytes(&mut rng).len(), 100);
    }
}
