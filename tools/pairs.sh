#!/bin/sh
# Alternating parent/change benchmark pairs — the protocol PRs 14-16
# measured with, and the table a perf PR's description must contain.
#
#   tools/pairs.sh <parent-checkout> <change-checkout> [pairs=10] [first-seed=501] [workload...]
#
# Builds `benchmark/` offline from each checkout's source into its own
# fresh target directory under $TMPDIR (removed on exit, so no binary
# left over from an earlier build with other settings is ever measured),
# then runs every workload `pairs` times per side at the benchmark's own
# run length (10 s): pair i uses seed first-seed + i on both sides,
# parent first when i is even, change first when i is odd. Workloads
# named after the two numbers restrict the run to those (a change to
# `rv64` alone can get its ten pairs of guest_alu and guest_xcall without
# 20 minutes of untouched workloads); the output format is the same.
# Every run is printed as it finishes; the summary names both binaries
# by sha256 and gives, per (workload, metric), each side's median and
# quartiles (the method of `xpc-benchmark compare`), the pairs the change
# won (ties count for neither side) and the ratio of medians with its
# base. Exits 1 when any run failed an output check.
#
# POSIX sh + sort + awk + sha256sum; about pairs x workloads x 2 sides x 12 s.
set -eu

all="guest_alu guest_xcall closed_sweep open_serve figures_all"
usage="usage: tools/pairs.sh <parent-checkout> <change-checkout> [pairs=10] [first-seed=501] [workload...]"
[ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
seed0=${4:-501}
case "$pairs$seed0" in *[!0-9]*) echo "$usage" >&2; exit 2 ;; esac
if [ $# -gt 4 ]; then shift 4; workloads=$*; else workloads=$all; fi
for workload in $workloads; do
    case " $all " in *" $workload "*) ;; *) echo "unknown workload '$workload' (one of: $all)" >&2; exit 2 ;; esac
done
[ "$pairs" -ge 2 ] || { echo "quartiles need at least 2 pairs" >&2; exit 2; }
[ "$parent" != "$change" ] || { echo "parent and change are the same checkout" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
rows=$work/rows
: >"$rows"

# A fresh target directory per side: a shared one would have the second
# build overwrite the first, and a checkout's own may hold a stale binary.
for side in parent change; do
    eval "checkout=\$$side"
    CARGO_TARGET_DIR="$work/$side" \
        cargo build --release --offline --quiet --manifest-path "$checkout/benchmark/Cargo.toml"
done
parent_bin=$work/parent/release/xpc-benchmark
change_bin=$work/change/release/xpc-benchmark

# run <workload-index> <workload> <pair> <side> <binary> <seed>
# Appends "widx workload midx metric side pair value" rows (failed runs too:
# midx 4 is the failed-operation count).
run() {
    out=$("$5" --workload "$2" --seed "$6") || true
    echo "$out" | awk -v w="$1" -v wl="$2" -v p="$3" -v side="$4" -v seed="$6" -v rows="$rows" '
        $1 == "ops_per_s"    { m[1] = $2 }
        $1 == "peak_rss_mib" { m[2] = $2 }
        $1 == "setup_s"      { m[3] = $2 }
        $1 == "failed_frac"  { m[4] = $4 }
        END {
            if (!(1 in m) || !(2 in m) || !(3 in m) || !(4 in m)) {
                printf "%s pair %d %s: run printed no metrics\n", wl, p, side
                m[1] = m[2] = m[3] = 0; m[4] = 1
            }
            split("ops_per_s peak_rss_mib setup_s failed", name, " ")
            for (i = 1; i <= 4; i++)
                print w, wl, i, name[i], side, p, m[i] >>rows
            printf "%-12s pair %2d seed %d %-6s ops_per_s %14.3f  peak_rss_mib %8.3f  setup_s %7.4f  failed %d\n",
                wl, p, seed, side, m[1], m[2], m[3], m[4]
        }'
}

w=0
for workload in $workloads; do
    w=$((w + 1))
    i=0
    while [ "$i" -lt "$pairs" ]; do
        seed=$((seed0 + i))
        if [ $((i % 2)) -eq 0 ]; then
            run "$w" "$workload" "$i" parent "$parent_bin" "$seed"
            run "$w" "$workload" "$i" change "$change_bin" "$seed"
        else
            run "$w" "$workload" "$i" change "$change_bin" "$seed"
            run "$w" "$workload" "$i" parent "$parent_bin" "$seed"
        fi
        i=$((i + 1))
    done
done

echo
echo "parent $parent (xpc-benchmark sha256 $(sha256sum <"$parent_bin" | cut -d' ' -f1))"
echo "change $change (xpc-benchmark sha256 $(sha256sum <"$change_bin" | cut -d' ' -f1))"
echo "$pairs pairs per workload, seeds $seed0..$((seed0 + pairs - 1)); ratio = change median / parent median"
# Values of one (workload, metric, side) arrive in ascending order.
sort -k1,1n -k3,3n -k5,5 -k7,7n "$rows" | awk -v pairs="$pairs" '
    # Quartile i of the n sorted values under key k, as Python
    # statistics.quantiles(n=4, method="exclusive") and benchmark/src/stats.rs.
    function quart(k, n, i,    j, d) {
        j = int(i * (n + 1) / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        d = i * (n + 1) - j * 4
        return (v[k, j] * (4 - d) + v[k, j + 1] * d) / 4
    }
    {
        k = $1 SUBSEP $3 SUBSEP $5
        v[k, ++n[k]] = $7
        at[k, $6] = $7
        wl[$1] = $2; metric[$3] = $4
        if ($1 > nw) nw = $1
    }
    END {
        printf "\n%-12s %-12s %14s %14s %14s | %14s %14s %14s | %5s %8s\n",
            "workload", "metric", "parent med", "q1", "q3", "change med", "q1", "q3", "won", "ratio"
        for (w = 1; w <= nw; w++) for (m = 1; m <= 3; m++) {
            p = w SUBSEP m SUBSEP "parent"; c = w SUBSEP m SUBSEP "change"
            won = 0
            for (i = 0; i < pairs; i++) {
                if (m == 1 && at[c, i] > at[p, i]) won++   # higher is better
                if (m != 1 && at[c, i] < at[p, i]) won++   # lower is better
            }
            pm = quart(p, n[p], 2); cm = quart(c, n[c], 2)
            printf "%-12s %-12s %14.4f %14.4f %14.4f | %14.4f %14.4f %14.4f | %2d/%-2d %8.3f\n",
                wl[w], metric[m], pm, quart(p, n[p], 1), quart(p, n[p], 3),
                cm, quart(c, n[c], 1), quart(c, n[c], 3), won, pairs, (pm > 0 ? cm / pm : 0)
        }
        for (w = 1; w <= nw; w++) for (i = 1; i <= pairs; i++) {
            pfail += v[w SUBSEP 4 SUBSEP "parent", i]
            cfail += v[w SUBSEP 4 SUBSEP "change", i]
        }
        printf "\nfailed operations: parent %d, change %d\n", pfail, cfail
        exit (pfail + cfail > 0)
    }'
