//! In-tree property harness over [`Rng`]: seeded cases, a fixed case
//! count per call site, shrink-by-halving, and a replayable seed in every
//! failure message.
//!
//! A property is a generator `gen(&mut Rng, size) -> T` and a predicate
//! `prop(&T) -> Result<(), String>`. [`check`] draws case `i` from
//! `Rng::split(fnv1a(name), i)` at `size = u64::MAX`, so every case is a
//! pure function of the property's name and its index: no clock, no
//! environment, no global state. A `prop` that panics fails exactly as
//! one that returns `Err` — the bugs these properties hunt are host
//! panics (overflow in debug, an out-of-range index).
//!
//! # Size and shrinking
//!
//! `size` is an upper bound a generator applies to every magnitude and
//! length it draws, as `rng.below(span.min(size))`. On a failure the
//! harness regenerates the *same seed* at `size / 2, size / 4, …, 1` and
//! reports the smallest size that still fails. Because [`Rng::below`] is
//! a multiply-shift, the same raw draw under a halved bound is (about)
//! half the value, and a collection drawn under a halved length bound is
//! a shorter list of the same raw draws: halving the size scales the
//! whole case down, with no per-type shrinker and no trait.
//!
//! # Replay
//!
//! A failure prints the seed. Pasting it into the call site's
//! `regressions` slice replays that case (and its shrink) before any
//! generated case, on every run. There is no environment variable,
//! cargo feature or budget knob: the case count is a constant at each
//! call site, so every run of the suite checks the same cases.

use crate::rng::{stream_seed, Rng};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Check `prop` on the `regressions` seeds, then on `cases` generated
/// cases, each drawn by `gen` from its own seeded [`Rng`].
///
/// # Panics
///
/// Panics on the first failing case with the property `name`, the
/// failing seed, the smallest failing size found by halving and the
/// `{:?}` of the case at that size, plus the failure's message.
pub fn check<T: Debug>(
    name: &str,
    cases: u64,
    regressions: &[u64],
    gen: impl Fn(&mut Rng, u64) -> T,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let base = fnv1a(name.as_bytes());
    let seeds = regressions
        .iter()
        .copied()
        .chain((0..cases).map(|i| stream_seed(base, i)));
    for seed in seeds {
        if let Err(first) = run(&gen, &prop, seed, u64::MAX) {
            let (size, case, msg) = shrink(&gen, &prop, seed).unwrap_or(first);
            panic!(
                "property `{name}` failed: seed {seed:#018x}, smallest failing size {size}\n\
                 case: {case:?}\n\
                 cause: {msg}\n\
                 replay: add {seed:#018x} to its regressions"
            );
        }
    }
}

/// A failure: the size it was drawn at, the case, and why it failed.
type Failure<T> = (u64, T, String);

/// Generate the case for `seed` at `size` and check it.
fn run<T>(
    gen: &impl Fn(&mut Rng, u64) -> T,
    prop: &impl Fn(&T) -> Result<(), String>,
    seed: u64,
    size: u64,
) -> Result<(), Failure<T>> {
    let case = gen(&mut Rng::seed_from_u64(seed), size);
    let verdict = catch_unwind(AssertUnwindSafe(|| prop(&case))).unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {text}"))
    });
    verdict.map_err(|msg| (size, case, msg))
}

/// Re-run `seed` at every halving of the full size; the smallest size
/// that still fails, if any does. Sizes are tried independently (a
/// passing size does not stop the descent), so the result is the
/// smallest failing size on the whole halving ladder.
fn shrink<T>(
    gen: &impl Fn(&mut Rng, u64) -> T,
    prop: &impl Fn(&T) -> Result<(), String>,
    seed: u64,
) -> Option<Failure<T>> {
    std::iter::successors(Some(u64::MAX / 2), |&s| (s > 1).then_some(s / 2))
        .filter_map(|size| run(gen, prop, seed, size).err())
        .last()
}

/// 64-bit FNV-1a: the property name's stream base.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn failure_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = catch_unwind(f).expect_err("the property should fail");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn a_true_property_runs_every_case() {
        let runs = RefCell::new(0u64);
        check(
            "always",
            300,
            &[],
            |rng, size| rng.below(100.min(size)),
            |v| {
                *runs.borrow_mut() += 1;
                if *v < 100 {
                    Ok(())
                } else {
                    Err(format!("{v}"))
                }
            },
        );
        assert_eq!(*runs.borrow(), 300);
    }

    #[test]
    fn cases_are_a_pure_function_of_the_name() {
        let draw = |name: &str| {
            let seen = RefCell::new(Vec::new());
            check(
                name,
                16,
                &[],
                |rng, _| rng.next_u64(),
                |v| {
                    seen.borrow_mut().push(*v);
                    Ok(())
                },
            );
            seen.into_inner()
        };
        assert_eq!(draw("a"), draw("a"));
        assert_ne!(draw("a"), draw("b"));
        let direct: Vec<u64> = (0..16)
            .map(|i| Rng::split(fnv1a(b"a"), i).next_u64())
            .collect();
        assert_eq!(draw("a"), direct);
    }

    #[test]
    fn regressions_run_before_generated_cases() {
        let seen = RefCell::new(Vec::new());
        check(
            "order",
            2,
            &[7, 9],
            |rng, _| rng.next_u64(),
            |v| {
                seen.borrow_mut().push(*v);
                Ok(())
            },
        );
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], Rng::seed_from_u64(7).next_u64());
        assert_eq!(seen[1], Rng::seed_from_u64(9).next_u64());
    }

    #[test]
    fn a_panic_is_a_failure_and_the_message_names_the_seed() {
        let msg = failure_message(|| {
            check(
                "panics",
                10,
                &[],
                |rng, _| rng.next_u64(),
                |v| {
                    let _ = v.checked_add(u64::MAX).expect("host overflow");
                    Ok(())
                },
            )
        });
        assert!(msg.contains("property `panics` failed"), "{msg}");
        assert!(msg.contains("panicked: host overflow"), "{msg}");
        let seed = format!("{:#018x}", stream_seed(fnv1a(b"panics"), 0));
        assert!(msg.contains(&seed), "{msg}");
    }

    #[test]
    fn halving_shrinks_a_list_to_the_smallest_failing_size() {
        // Fails whenever the list is longer than 3. A length is
        // `1 + floor(r * size)` for the seed's raw draw `r`, and at the
        // smallest failing size the next halving passes, so the reported
        // list holds 4 to 7 elements (the limit, at most doubled).
        let msg = failure_message(|| {
            check(
                "long lists",
                50,
                &[],
                |rng, size| {
                    let n = 1 + rng.below(1000.min(size));
                    (0..n).map(|_| rng.below(10)).collect::<Vec<_>>()
                },
                |v| {
                    if v.len() <= 3 {
                        Ok(())
                    } else {
                        Err(format!("len {}", v.len()))
                    }
                },
            )
        });
        let len: u64 = msg
            .split("cause: len ")
            .nth(1)
            .and_then(|s| s.lines().next())
            .and_then(|s| s.parse().ok())
            .expect("the message carries the shrunk length");
        assert!((4..=7).contains(&len), "{msg}");
    }

    #[test]
    fn a_replayed_seed_fails_the_same_way() {
        let prop = |v: &u64| {
            if v.is_multiple_of(7) {
                Err("multiple of 7".to_string())
            } else {
                Ok(())
            }
        };
        let gen = |rng: &mut Rng, size: u64| rng.below((1u64 << 20).min(size));
        let first = failure_message(|| check("sevens", 1000, &[], gen, prop));
        let seed = first
            .split("seed ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .expect("the message carries a hex seed");
        let replay = failure_message(|| check("sevens", 0, &[seed], gen, prop));
        assert_eq!(first, replay);
    }
}
