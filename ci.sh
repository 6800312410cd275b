#!/usr/bin/env bash
# Tier-1 gate plus lints, release-profile tests and benchmark smokes,
# fully offline (the workspace has no external dependencies: every
# crate, the property harness included, is in-tree). The committed
# figures/golden.txt and BENCH_figures.json are pinned by tier-1
# (crates/bench/tests/snapshots.rs).
set -euo pipefail
cd "$(dirname "$0")"

export RUSTFLAGS="-D warnings"

echo "== fmt =="
cargo fmt --all -- --check

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== clippy =="
# cast_possible_truncation stays advisory for most crates: the cycle
# model truncates deliberately in many places; the lint is for new code
# review, not a gate.
cargo clippy --workspace --all-targets -- -D warnings -A clippy::cast-possible-truncation

echo "== clippy (simos: cast_possible_truncation and missing_panics_doc promoted to error) =="
# The invocation hot path lives in simos; there every u64 -> usize (and
# f64 -> int) crossing is either proven in-range or an explicit allow
# with the bound stated, and every pub fn that can panic documents its
# # Panics contract. --no-deps scopes the promotion to the crate itself
# (its request_pin test dev-depends on kernels for real roster systems,
# and kernels' model math casts deliberately).
cargo clippy -p simos --all-targets --no-deps -- \
  -D warnings -D clippy::cast-possible-truncation -D clippy::missing-panics-doc

echo "== clippy (xpc, xpc-verify, xpc-bench, kernels, services: missing_panics_doc promoted to error) =="
# The libraries other crates and benchmark/ call blind: the XPC kernel
# (ids and sizes are the caller's), the verifier, the harness and
# experiment API, the kernel models and the OS services. Every pub fn
# that can panic documents its # Panics contract; a panic a caller's id
# or size can reach in a function that returns a Result is a typed error
# instead. --no-deps scopes the promotion to the crates themselves.
cargo clippy -p xpc-verify -p xpc-bench -p kernels -p services -p xpc --all-targets --no-deps -- \
  -D warnings -A clippy::cast-possible-truncation -D clippy::missing-panics-doc

echo "== rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== tests =="
# The tier-1 command: the root manifest's default-members make it test
# every crate, property suites included.
cargo test -q

echo "== one test configuration gate (no cargo features, no cfg(feature) gates) =="
if grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml || grep -rn 'cfg(feature' crates/ src/ tests/; then
  echo "ci: a cargo feature or cfg(feature) gate is back; every test runs in the one default configuration" >&2
  exit 1
fi

echo "== tests (release: emulator, engine, kernel models, request engine, storage stack) =="
# Overflow checks are off in release, so a guest-reachable arithmetic
# overflow fails differently there (an out-of-bounds index instead of
# "attempt to add with overflow"), and so does block-index arithmetic on
# the ramdisk's block table; release is the profile that ships. The relay
# window with `seg-pa` near the top of memory is the case where the two
# profiles used to differ (a panic here, a silent wrap there): both must
# now end as the same access fault. The rv64, xpc-engine and simos
# property suites run here as well (the simos ones: the issue queue
# against a BinaryHeap, generated rosters through both request front
# doors), so their cases also see wrapping arithmetic, and so does the
# request_pin.rs pin of the request engine over the kernel models.
cargo test -q --release -p rv64 -p xpc-engine -p xpc -p services -p minidb -p simos -p kernels

echo "== benchmark package (frozen API surface, offline) =="
# benchmark/ is its own workspace and calls the crates' public API
# directly; building and testing it here makes an API removal that
# breaks that surface fail CI instead of the next benchmark run.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark smoke (the binary checks every result itself) =="
# Exits non-zero when a guest checksum, buffer or round trip disagrees
# with the host recomputation, (closed_sweep / open_serve) when requests
# completed != asked, admitted + shed != offered, a ledger total is not
# the sum of its phases, sampled totals differ from the ledger total or
# the tails are unordered, or (figures_all) when a rendered report
# differs from its figures/golden.txt section. figures_all stays last:
# the RSS gate below reads the last file written.
for workload in guest_alu guest_xcall closed_sweep open_serve figures_all; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 > target/ci-smoke.json
done
# A figures pass that pins more than a few MiB is holding ramdisk blocks
# nobody wrote (a fill, a per-block constructor, a fork that copies the
# blocks it shares): the sparse table behind every world's 128 MiB
# device, forked ones included, stores written blocks only, once.
rss=$(tail -n 1 target/ci-smoke.json | sed -n 's/.*"peak_rss_mib": {"value": \([0-9]*\).*/\1/p')
if [ -z "$rss" ] || [ "$rss" -ge 32 ]; then
  echo "ci: figures_all peak RSS is '${rss}' MiB (limit 32): unwritten or shared ramdisk blocks are being stored" >&2
  exit 1
fi

echo "== static verifier (recipes + crafted refutations + ledger lint) =="
cargo run --release -p xpc-bench --bin verify

echo "== temporal differentials (each static rule faults like a real XpcKernel) =="
cargo test -q --release -p xpc-verify --test temporal_differential
cargo test -q --release -p xpc-verify --test differential --test program_differential
cargo test -q --release -p kernels --test hardening

echo "== deprecated-shim gate (the Recipe/ChainSpec redesign leaves none) =="
if grep -rn '#\[deprecated' crates/; then
  echo "ci: deprecated shims linger; the redesigned APIs replaced them" >&2
  exit 1
fi

echo "== one-request-engine gate (load.rs + serve.rs are front doors over simos::engine) =="
for f in crates/simos/src/load.rs crates/simos/src/serve.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'merge_times|add_ledger|sort_unstable|Attribution::Sampled \{'; then
    echo "ci: $f prices or reduces on its own; that belongs to crates/simos/src/engine.rs" >&2
    exit 1
  fi
done

echo "== one-interpreter-loop gate (rv64 hot path: no divisions, no knob) =="
if grep -nE '/ self\.cfg\.|is_multiple_of\(size\)' crates/rv64/src/cache.rs crates/rv64/src/machine.rs; then
  echo "ci: a runtime division is back on the rv64 per-instruction path" >&2
  exit 1
fi
if sed -n '/pub struct MachineConfig/,/^}/p' crates/rv64/src/config.rs | grep -nE 'decode_cache|fast_path'; then
  echo "ci: the rv64 fast path grew a MachineConfig knob; there is one loop" >&2
  exit 1
fi

echo "== storage hot path gate (one block store, one inode serialiser, no knob) =="
if [ "$(grep -cE 'Inode::to_bytes|\.to_bytes\(\)' crates/services/src/fs.rs)" -gt 1 ]; then
  echo "ci: fs.rs serialises inodes in more than one place; flush_inodes_staged refreshes the image" >&2
  exit 1
fi
if grep -rniE 'env::var[a-z_]*\("[^"]*(nblocks|sparse|lazy)' crates/ src/; then
  echo "ci: the storage stack grew an environment variable; there is one block store" >&2
  exit 1
fi

echo "ci: OK"
