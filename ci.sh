#!/usr/bin/env bash
# Tier-1 gate plus figure regeneration, fully offline (the workspace has
# no external dependencies: every crate, the property harness included,
# is in-tree).
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

echo "== clippy (simos: cast_possible_truncation promoted to error) =="
# The invocation hot path lives in simos; there every u64 -> usize (and
# f64 -> int) crossing is either proven in-range or an explicit allow
# with the bound stated. --no-deps scopes the promotion to the crate
# itself (its request_pin test dev-depends on kernels for real roster
# systems, and kernels' model math casts deliberately).
cargo clippy -p simos --all-targets --no-deps -- -D warnings -D clippy::cast-possible-truncation

echo "== clippy (xpc-verify: missing_panics_doc promoted to error) =="
# The verifier is the library other tools call blind; every pub fn that
# can panic (crafted builders, the program checker's depth conversion)
# documents its # Panics contract. --no-deps scopes the promotion to the
# crate itself.
cargo clippy -p xpc-verify --all-targets --no-deps -- \
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

echo "== golden gate at 4 pool workers (byte-identical figures) =="
# The sweep pool must not change a single byte of any rendered figure,
# whatever XPC_BENCH_THREADS says. (The in-process golden tests pin the
# 1-worker serial path; tests/parallel.rs diffs 2 and 8 workers; this
# gates the shipped binary end to end at 4.)
XPC_BENCH_THREADS=4 cargo run --release -p xpc-bench --bin figures -- all \
  > target/ci-figures-t4.txt
diff -u figures/golden.txt target/ci-figures-t4.txt \
  || { echo "ci: figures output at 4 workers diverges from figures/golden.txt" >&2; exit 1; }

echo "== BENCH_figures.json is the committed document (1 and 4 workers, handed off and cold) =="
# The dump is virtual time only, so the committed file pins it. After
# `all` at one worker every section is handed the grid its table
# computed; after `table1` at four workers every section computes its
# own. The shipped binary must write the committed bytes both times.
cargo run --release -p xpc-bench --bin figures -- --threads 1 --json all > /dev/null
git diff --exit-code BENCH_figures.json \
  || { echo "ci: figures --threads 1 --json all wrote a BENCH_figures.json that differs from the committed one" >&2; exit 1; }
XPC_BENCH_THREADS=4 cargo run --release -p xpc-bench --bin figures -- --json table1 > /dev/null
git diff --exit-code BENCH_figures.json \
  || { echo "ci: BENCH_figures.json depends on the worker count or on which tables were printed before it" >&2; exit 1; }

echo "== temporal differentials (each static rule faults like a real XpcKernel) =="
cargo test -q --release -p xpc-verify --test temporal_differential
cargo test -q --release -p xpc-verify --test differential --test program_differential
cargo test -q --release -p kernels --test hardening

echo "== deprecated-shim gate (the Recipe/ChainSpec redesign leaves none) =="
if grep -rn '#\[deprecated' crates/; then
  echo "ci: deprecated shims linger; the redesigned APIs replaced them" >&2
  exit 1
fi

echo "== one-pricing-path gate (no allocating twins, nothing kept to police them) =="
if grep -rnE 'fn oneway\(&mut self|oneway_invocation|lint_sink_pair|pre_refactor|exec_opts' crates/; then
  echo "ci: a second pricing path is back; price through oneway_into / Invocation::priced" >&2
  exit 1
fi

echo "== one-request-engine gate (load.rs + serve.rs are front doors over simos::engine) =="
if grep -rnE 'resolve_step|step_route|fused_route|exec_fused_into|fn run_request\b|struct ServeScratch' crates/; then
  echo "ci: a deleted twin of the request engine is back" >&2
  exit 1
fi
for f in crates/simos/src/load.rs crates/simos/src/serve.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'ReqSink \{|sort_unstable|Attribution::Sampled \{'; then
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
if grep -rniE 'env::var[a-z_]*\("[^"]*(nblocks|sparse|lazy)|feature *= *"[^"]*(nblocks|sparse|lazy)' crates/ src/ \
  || grep -niE '^(nblocks|sparse|lazy)[a-z0-9_-]* *=' Cargo.toml crates/*/Cargo.toml; then
  echo "ci: the storage stack grew an environment variable or cargo feature; there is one block store" >&2
  exit 1
fi

echo "ci: OK"
