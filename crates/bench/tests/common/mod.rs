//! Helpers shared by the snapshot tests.

/// Assert `fresh == golden`, naming the first line that differs rather
/// than printing both documents.
pub fn assert_same_lines(what: &str, golden: &str, fresh: &str) {
    for (i, (g, f)) in golden.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(g, f, "{what} diverges at line {}", i + 1);
    }
    let lines = |s: &str| s.lines().count();
    assert_eq!(lines(golden), lines(fresh), "{what}: line counts differ");
    assert!(golden == fresh, "{what} differs in its line endings");
}
