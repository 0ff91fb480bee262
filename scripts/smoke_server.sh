#!/bin/sh
# smoke_server.sh — end-to-end proof that deadmemd is a drop-in transport
# over the batch pipeline: it starts the daemon, waits for /healthz, and
# diffs /v1/strip, /v1/analyze and /v1/lint responses byte-for-byte
# against the stdout of deadstrip, deadmem and deadlint -format json on
# the same sources, and /v1/lint?writes-are-uses=1 against
# deadlint -writes-are-uses.
set -eu

GO=${GO:-go}
BIN=${BIN:-bin}
ADDR=${ADDR:-127.0.0.1:8321}
FILE=${FILE:-examples/mcc/writeonly.mcc}

$GO build -o "$BIN/deadmem" ./cmd/deadmem
$GO build -o "$BIN/deadstrip" ./cmd/deadstrip
$GO build -o "$BIN/deadlint" ./cmd/deadlint
$GO build -o "$BIN/deadmemd" ./cmd/deadmemd

tmp=$(mktemp -d)
"$BIN/deadmemd" -addr "$ADDR" >"$tmp/daemon.log" 2>&1 &
pid=$!
cleanup() {
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

ok=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.1
done
if [ -z "$ok" ]; then
    echo "smoke-server: daemon never became healthy" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi

# /v1/strip must be byte-identical to deadstrip's stdout. It goes first:
# it compiles through the shared session, so every later request is a
# cache hit.
"$BIN/deadstrip" "$FILE" >"$tmp/cli.strip" 2>/dev/null
curl -fsS --data-binary "@$FILE" "http://$ADDR/v1/strip?file=$FILE" >"$tmp/srv.strip"
diff -u "$tmp/cli.strip" "$tmp/srv.strip"

# /v1/analyze must be byte-identical to deadmem's stdout.
"$BIN/deadmem" "$FILE" >"$tmp/cli.analyze"
curl -fsS --data-binary "@$FILE" "http://$ADDR/v1/analyze?file=$FILE" >"$tmp/srv.analyze"
diff -u "$tmp/cli.analyze" "$tmp/srv.analyze"

# /v1/lint must be byte-identical to deadlint -format json's stdout.
"$BIN/deadlint" -format json "$FILE" >"$tmp/cli.lint"
curl -fsS --data-binary "@$FILE" "http://$ADDR/v1/lint?file=$FILE&format=json" >"$tmp/srv.lint"
diff -u "$tmp/cli.lint" "$tmp/srv.lint"

# A repeat request must be a cache hit, and the metrics must say so: one
# compile (the strip) and three hits (analyze, lint, the repeat).
curl -fsS --data-binary "@$FILE" "http://$ADDR/v1/analyze?file=$FILE" >/dev/null
curl -fsS "http://$ADDR/metrics" >"$tmp/metrics"
grep -q '^deadmemd_cache_compiles_total 1$' "$tmp/metrics"
grep -q '^deadmemd_cache_hits_total 3$' "$tmp/metrics"
grep -q 'deadmemd_requests_total{endpoint="/v1/analyze",code="200"} 2' "$tmp/metrics"

# deadlint takes the analysis options /v1/lint takes: the
# writes-are-uses ablation must answer the same on both.
SPECIAL=internal/lint/testdata/specialcases.mcc
"$BIN/deadlint" -writes-are-uses "$SPECIAL" >"$tmp/cli.lint.wau"
curl -fsS --data-binary "@$SPECIAL" "http://$ADDR/v1/lint?file=$SPECIAL&writes-are-uses=1" >"$tmp/srv.lint.wau"
diff -u "$tmp/cli.lint.wau" "$tmp/srv.lint.wau"

echo "smoke-server: OK (strip + analyze + lint byte-identical to CLIs, cache hits observed)"
