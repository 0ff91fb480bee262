#!/bin/sh
# smoke_examples.sh — runs each Go example under examples/ with `go run`
# and diffs its stdout and exit code against examples/<name>/expected.txt
# (stdout followed by an `exit <code>` line). The examples are the public
# API's only callers outside tests and the benchmark; `go build` alone
# would only compile them.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

fail=0
for dir in examples/*/; do
    dir=${dir%/}
    name=$(basename "$dir")
    [ -f "$dir/main.go" ] || continue
    code=0
    go run "./$dir" >"$tmp/$name.out" || code=$?
    echo "exit $code" >>"$tmp/$name.out"
    if ! diff -u "$dir/expected.txt" "$tmp/$name.out"; then
        echo "smoke-examples: $name differs from $dir/expected.txt" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1
echo "smoke-examples: OK"
