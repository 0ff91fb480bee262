#!/bin/sh
# smoke_precision.sh — end-to-end proof of the precision/cost frontier:
# runs paperbench with -timings at every liveness tier's exhibit, then
# lints the chained example at each tier and checks the tiers are
# monotone (paper <= flow <= heap) with heap strictly ahead of paper.
set -eu

GO=${GO:-go}
BIN=${BIN:-bin}
FILE=${FILE:-examples/mcc/chained.mcc}

$GO build -o "$BIN/paperbench" ./cmd/paperbench
$GO build -o "$BIN/deadlint" ./cmd/deadlint

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# The precision exhibit sweeps all three tiers in one session; -timings
# shows the per-stage costs alongside. The corpus has degraded-free
# rows, so the frontier table must carry one line per benchmark plus a
# total.
"$BIN/paperbench" -precision -timings >"$tmp/bench.out"
grep -q 'Precision/cost frontier' "$tmp/bench.out"
for col in paper flow heap; do
    grep -q "$col" "$tmp/bench.out"
done
grep -q '^total' "$tmp/bench.out"

# Every tier's lint cost is a measurement. A 0s cell means a tier's
# result came from the lint cache and its cost was never measured.
if sed -n '/Precision\/cost frontier/,/^total/p' "$tmp/bench.out" |
    grep -Eq '(^|[[:space:]])0s([[:space:]]|$)'; then
    echo "smoke-precision: a lint cost cell of the frontier table reads 0s" >&2
    exit 1
fi

# Tier monotonicity on the chained example: finding counts must be
# non-decreasing, and heap must beat paper (the chained dead store).
np=$("$BIN/deadlint" -precision=paper "$FILE" | wc -l)
nf=$("$BIN/deadlint" -precision=flow "$FILE" | wc -l)
nh=$("$BIN/deadlint" -precision=heap "$FILE" | wc -l)
if [ "$np" -gt "$nf" ] || [ "$nf" -gt "$nh" ]; then
    echo "smoke-precision: tiers not monotone: paper=$np flow=$nf heap=$nh" >&2
    exit 1
fi
if [ "$nh" -le "$np" ]; then
    echo "smoke-precision: heap tier ($nh) should find strictly more than paper ($np) on $FILE" >&2
    exit 1
fi

echo "smoke-precision: OK (frontier table rendered; tiers monotone: paper=$np flow=$nf heap=$nh)"
