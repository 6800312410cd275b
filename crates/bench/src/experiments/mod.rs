//! One module per paper table/figure; each produces a [`Report`] that the
//! `figures` binary prints and tests assert on.
//!
//! # The hand-off: a grid is computed once per pass and rendered twice
//!
//! `figures --json all` prints the `serve` / `fuse` / `numa` / `scale` /
//! `pipeline` tables and then the same grids again as JSON sections, and
//! Figure 1(b) reads the YCSB-E cell Figure 1(a) has just run. Each of
//! those six modules keeps one private `thread_local!`
//! `RefCell<Option<…>>` slot holding exactly what both renderers read:
//! `run()` computes the grid, builds its table from a borrow and parks
//! the grid; `json_section()` (`fig1b()`) takes the slot, or computes the
//! grid itself when the slot is empty.
//!
//! * **Take-once**: a pass computes each grid once and nothing survives
//!   into the next pass. (A process-lifetime memo would make every later
//!   pass of a long-lived caller a cache hit that no `figures` process,
//!   which runs each experiment once, ever sees.)
//! * **Thread-local**, like `simos::par`'s worker-count override: test
//!   threads pinned to different worker counts never hand each other a
//!   grid, and there is no lock, poisoning or `Send` bound to reason
//!   about.
//! * **Invisible**: every grid is a pure function of compiled-in
//!   constants and byte-identical at any worker count, so parked ≡
//!   recomputed. A slot left full (a `run()` nobody followed with a
//!   `json_section()`) holds only what the next `json_section()` on that
//!   thread would have computed anyway.

pub mod ablations;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fuse;
pub mod harden;
pub mod numa;
pub mod pipeline;
pub mod scale;
pub mod serve;
pub mod simspeed;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod verify;

/// A regenerated table or figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. "Table 1" / "Figure 6".
    pub id: &'static str,
    /// What it shows.
    pub caption: &'static str,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.caption);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A named experiment runner.
pub type Experiment = (&'static str, fn() -> Report);

/// Every experiment, in paper order, as (key, runner).
///
/// Debug builds assert the keys are unique — a duplicate would make
/// `figures <key>` silently run only the first entry.
pub fn all() -> Vec<Experiment> {
    let registry = vec![
        ("fig1a", fig1::fig1a as fn() -> Report),
        ("fig1b", fig1::fig1b),
        ("table1", table1::run),
        ("fig5", fig5::run),
        ("fig6", fig6::run),
        ("table3", table3::run),
        ("fig7ab", fig7::fig7ab),
        ("fig7c", fig7::fig7c),
        ("fig8ab", fig8::fig8ab),
        ("fig8c", fig8::fig8c),
        ("fig9a", fig9::fig9a),
        ("fig9b", fig9::fig9b),
        ("table4", table4::run),
        ("table5", table5::run),
        ("table6", table6::run),
        ("table7", table7::run),
        ("ablations", ablations::run),
        ("scale", scale::run),
        ("pipeline", pipeline::run),
        ("numa", numa::run),
        ("verify", verify::run),
        ("serve", serve::run),
        ("fuse", fuse::run),
        ("harden", harden::run),
    ];
    debug_assert!(
        {
            let mut keys: Vec<&str> = registry.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            keys.windows(2).all(|w| w[0] != w[1])
        },
        "experiments::all() registers a duplicate key"
    );
    registry
}

/// The registry key closest to `unknown` (edit distance ≤ 2), for the
/// `figures` binary's "did you mean" hint. Ties break to the
/// lexicographically smallest key, so the hint is deterministic.
pub fn suggest(unknown: &str) -> Option<&'static str> {
    all()
        .iter()
        .map(|&(k, _)| (edit_distance(unknown, k), k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, k)| (d, k))
        .map(|(_, k)| k)
}

/// Plain Levenshtein distance (two-row DP) — the keys are short, so the
/// quadratic cost is irrelevant.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The hand-off contract, checked by each module that keeps a slot:
/// `first` (`run` / `fig1a`) parks, `second` (`json_section` / `fig1b`
/// rendered) takes, and cold ≡ handed-off ≡ the call after, at 1 and 4
/// pool workers. Test threads each have their own slots, so every
/// caller starts empty.
#[cfg(test)]
fn assert_hand_off(parked: fn() -> bool, first: fn() -> Report, second: impl Fn() -> String) {
    let outputs = [1, 4].map(|workers| {
        simos::par::with_threads(workers, || {
            assert!(!parked(), "the slot starts empty");
            let cold = second();
            assert!(!parked(), "a cold second renderer parks nothing");
            first();
            assert!(parked(), "the first renderer parks what it computed");
            let handed_off = second();
            assert!(!parked(), "the second renderer takes it");
            assert_eq!(handed_off, cold, "handed-off != cold at {workers} workers");
            assert_eq!(second(), cold, "the call after a hand-off != cold");
            cold
        })
    });
    assert_eq!(outputs[0], outputs[1], "1 worker != 4 workers");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let r = Report {
            id: "Table X",
            caption: "test",
            headers: vec!["a".into(), "bbbb".into()],
            rows: vec![vec!["100".into(), "2".into()]],
        };
        let s = r.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("100"));
    }

    #[test]
    fn registry_has_all_24_experiments() {
        assert_eq!(all().len(), 24);
    }

    #[test]
    fn registry_keys_are_unique() {
        // The release-build complement of the debug_assert in all().
        let mut keys: Vec<&str> = all().iter().map(|(k, _)| *k).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate experiment key registered");
    }

    #[test]
    fn suggest_finds_near_misses_and_rejects_gibberish() {
        assert_eq!(suggest("scal"), Some("scale"));
        assert_eq!(suggest("serv"), Some("serve"));
        assert_eq!(suggest("tabel3"), Some("table3"));
        assert_eq!(suggest("scale"), Some("scale"));
        assert_eq!(suggest("qzxwv"), None);
        assert_eq!(suggest(""), None, "nothing is within distance 2 of ''");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", "ab"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
