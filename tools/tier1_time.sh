#!/bin/sh
# Tier-1 seconds per test binary, parent against change.
#
#   tools/tier1_time.sh <parent-checkout> <change-checkout> [runs=3]
#
# Builds the debug test binaries of each checkout into its own fresh
# target directory under $TMPDIR (removed on exit), listing them with
# `cargo test --no-run --message-format=json`: one binary per unit-test
# target (a crate's lib or bin) and per tests/*.rs file. Then runs every
# binary `runs` times per side, each from its package directory with the
# harness's default thread count, as `cargo test` does; run i goes
# parent first when i is odd, change first when it is even. Doc tests are
# not binaries and are not timed.
#
# Prints each run as it finishes and a table of the medians per binary
# (named by its source path in the checkout, so both sides line up), and
# appends two {"kind": "tier1"} rows, parent then change, to the change
# checkout's BENCH_history.jsonl: the checkout's commit (with "+dirty"
# for uncommitted changes), the hardware threads, the run count, the
# median seconds per binary and their sum. Exits 1 when a binary failed
# on either side (its seconds are still recorded).
#
# POSIX sh + awk + sed + sort, GNU `date +%s%N`; about runs x (parent
# tier-1 + change tier-1) plus two debug builds.
set -eu

usage="usage: tools/tier1_time.sh <parent-checkout> <change-checkout> [runs=3]"
[ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
runs=${3:-3}
case "$runs" in '' | *[!0-9]*) echo "$usage" >&2; exit 2 ;; esac
[ "$runs" -ge 1 ] || { echo "runs must be at least 1" >&2; exit 2; }
[ "$parent" != "$change" ] || { echo "parent and change are the same checkout" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/tier1.XXXXXX")
trap 'rm -rf "$work"' EXIT

# list <side> <checkout>: build the side's test binaries and write
# "label<TAB>package-dir<TAB>executable" lines to $work/<side>.bins.
list() {
    (cd "$2" && CARGO_TARGET_DIR="$work/$1" cargo test --offline --no-run --message-format=json 2>/dev/null) |
        sed -n '/"reason":"compiler-artifact"/{/"profile":{[^}]*"test":true/{/"executable":"/p;};}' |
        sed 's/.*"manifest_path":"\([^"]*\)".*"src_path":"\([^"]*\)".*"executable":"\([^"]*\)".*/\2	\1	\3/' |
        awk -F'\t' -v root="$2/" '{
            label = $1; sub("^" root, "", label)
            dir = $2; sub("/Cargo.toml$", "", dir)
            print label "\t" dir "\t" $3
        }' | sort >"$work/$1.bins"
    [ -s "$work/$1.bins" ] || { echo "$1: no test binaries listed (does the checkout build?)" >&2; exit 1; }
}

list parent "$parent"
list change "$change"

: >"$work/rows"
failed=0
# time_side <side> <run>: run each of the side's binaries once and append
# "side label run seconds status" rows.
time_side() {
    while IFS='	' read -r label dir exe; do
        start=$(date +%s%N)
        if (cd "$dir" && "$exe" -q >/dev/null 2>&1); then status=ok; else status=FAILED; failed=1; fi
        end=$(date +%s%N)
        secs=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", (b - a) / 1e9 }')
        echo "$1 $label $2 $secs $status" >>"$work/rows"
        printf '%-6s run %d %8.3f s  %-6s %s\n' "$1" "$2" "$secs" "$status" "$label"
    done <"$work/$1.bins"
}

i=1
while [ "$i" -le "$runs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        time_side parent "$i"
        time_side change "$i"
    else
        time_side change "$i"
        time_side parent "$i"
    fi
    i=$((i + 1))
done

commit() {
    c=$(git -C "$1" rev-parse --short HEAD 2>/dev/null || echo unknown)
    if [ -n "$(git -C "$1" status --porcelain --untracked-files=no 2>/dev/null)" ]; then c="$c+dirty"; fi
    echo "$c"
}
threads=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)

# Medians per (side, label): the rows of one key sort by seconds.
sort -k1,1 -k2,2 -k4,4n "$work/rows" | awk \
    -v runs="$runs" -v threads="$threads" \
    -v pcommit="$(commit "$parent")" -v ccommit="$(commit "$change")" \
    -v history="$change/BENCH_history.jsonl" '
    function median(k,    n) {
        n = count[k]
        return n % 2 ? v[k, (n + 1) / 2] : (v[k, n / 2] + v[k, n / 2 + 1]) / 2
    }
    {
        k = $1 SUBSEP $2
        v[k, ++count[k]] = $4
        if (!(($2) in seen)) { seen[$2] = 1; labels[++nl] = $2 }
        if ($5 != "ok") bad[k] = 1
    }
    END {
        # Labels in a stable order: sorted by name.
        for (i = 1; i <= nl; i++) for (j = i + 1; j <= nl; j++)
            if (labels[j] < labels[i]) { t = labels[i]; labels[i] = labels[j]; labels[j] = t }
        printf "\n%-48s %10s %10s %8s\n", "binary (median of " runs ")", "parent s", "change s", "ratio"
        for (i = 1; i <= nl; i++) {
            l = labels[i]; p = "parent" SUBSEP l; c = "change" SUBSEP l
            pm = ((p, 1) in v) ? median(p) : -1
            cm = ((c, 1) in v) ? median(c) : -1
            if (pm >= 0) ptot += pm
            if (cm >= 0) ctot += cm
            ps = (pm >= 0) ? sprintf("%.3f", pm) : "-"
            cs = (cm >= 0) ? sprintf("%.3f", cm) : "-"
            ratio = (pm > 0 && cm >= 0) ? sprintf("%.3f", cm / pm) : "-"
            flag = ((p in bad) || (c in bad)) ? "  FAILED" : ""
            printf "%-48s %10s %10s %8s%s\n", l, ps, cs, ratio, flag
        }
        ratio = (ptot > 0) ? ctot / ptot : 0
        printf "%-48s %10.3f %10.3f %8.3f\n", "total", ptot, ctot, ratio
        split("parent change", sides, " ")
        for (s = 1; s <= 2; s++) {
            side = sides[s]
            row = sprintf("{\"kind\": \"tier1\", \"side\": \"%s\", \"commit\": \"%s\", \"hw_threads\": %d, \"runs\": %d, \"seconds\": {",
                side, side == "parent" ? pcommit : ccommit, threads, runs)
            sep = ""; tot = 0
            for (i = 1; i <= nl; i++) {
                k = side SUBSEP labels[i]
                if (!((k, 1) in v)) continue
                m = median(k); tot += m
                row = row sprintf("%s\"%s\": %.3f", sep, labels[i], m); sep = ", "
            }
            print row sprintf("}, \"total_s\": %.3f}", tot) >>history
        }
        printf "\nappended parent and change tier1 rows to %s\n", history
    }'
exit "$failed"
