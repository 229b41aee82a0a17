#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for cmd/macrochipd, run by
# `make serve-smoke` (part of `make check`).
#
# Boots the daemon on an ephemeral port with a throwaway cache directory,
# checks /healthz, runs one tiny scaling experiment and one tiny inference
# experiment through the full POST → wait → CSV round trip, fetches the
# scaling job as text and JSON too, re-submits each identical config to
# prove it comes back as a byte-identical cache hit, then shuts down via
# SIGTERM and requires a clean (exit 0) graceful drain.
set -eu

if ! command -v curl >/dev/null 2>&1; then
    echo "serve-smoke: curl not installed; skipping"
    exit 0
fi

GO=${GO:-go}
tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

$GO build -o "$tmp/macrochipd" ./cmd/macrochipd

"$tmp/macrochipd" -addr 127.0.0.1:0 -cache-dir "$tmp/cache" \
    >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!

# The daemon prints `macrochipd: listening on <addr>` to stdout once bound.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^macrochipd: listening on //p' "$tmp/stdout")
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: daemon exited before binding" >&2
        cat "$tmp/stderr" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "serve-smoke: never saw the listen line" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi
base="http://$addr"

curl -fsS "$base/healthz" | grep -q '"status": "ok"' || {
    echo "serve-smoke: /healthz not ok" >&2
    exit 1
}

submit() {
    curl -fsS -X POST "$base/v1/experiments" \
        -d '{"kind":"scaling","grid_sizes":[2,4]}' |
        sed -n 's/.*"id": "\(exp-[0-9]*\)".*/\1/p'
}

id=$(submit)
[ -n "$id" ] || { echo "serve-smoke: submission returned no id" >&2; exit 1; }
curl -fsS "$base/v1/experiments/$id/result?wait=true&format=csv" >"$tmp/first.csv"
head -1 "$tmp/first.csv" | grep -q '^n,sites,' || {
    echo "serve-smoke: unexpected CSV:" >&2
    cat "$tmp/first.csv" >&2
    exit 1
}

# The same job as text and as JSON: each format is rendered on GET from
# the job's rows.
curl -fsS "$base/v1/experiments/$id/result?format=text" >"$tmp/first.txt"
head -1 "$tmp/first.txt" | grep -q '^2×2' || {
    echo "serve-smoke: unexpected text result:" >&2
    cat "$tmp/first.txt" >&2
    exit 1
}
curl -fsS "$base/v1/experiments/$id/result?format=json" | grep -q '"result":' || {
    echo "serve-smoke: JSON result has no \"result\" key" >&2
    exit 1
}

# The identical config again: byte-identical bytes, served from the cache.
id2=$(submit)
curl -fsS "$base/v1/experiments/$id2/result?wait=true&format=csv" >"$tmp/second.csv"
cmp -s "$tmp/first.csv" "$tmp/second.csv" || {
    echo "serve-smoke: identical configs returned different CSV bytes" >&2
    exit 1
}
curl -fsS "$base/v1/cache/stats" | grep -q '"Hits": [1-9]' || {
    echo "serve-smoke: duplicate experiment produced no cache hits" >&2
    exit 1
}

# A tiny inference experiment: the operator-graph kind end to end, with the
# same cache-hit + byte-identity requirements.
submit_inference() {
    curl -fsS -X POST "$base/v1/experiments" \
        -d '{"kind":"inference","quick":true,"networks":["point-to-point"],"graphs":["tensor-parallel-ffn"]}' |
        sed -n 's/.*"id": "\(exp-[0-9]*\)".*/\1/p'
}

iid=$(submit_inference)
[ -n "$iid" ] || { echo "serve-smoke: inference submission returned no id" >&2; exit 1; }
curl -fsS "$base/v1/experiments/$iid/result?wait=true&format=csv" >"$tmp/inference1.csv"
head -1 "$tmp/inference1.csv" | grep -q '^network,graph,batch,' || {
    echo "serve-smoke: unexpected inference CSV:" >&2
    cat "$tmp/inference1.csv" >&2
    exit 1
}
grep -q 'tensor-parallel-ffn' "$tmp/inference1.csv" || {
    echo "serve-smoke: inference CSV missing the requested graph" >&2
    exit 1
}

hits_before=$(curl -fsS "$base/v1/cache/stats" | sed -n 's/.*"Hits": \([0-9]*\).*/\1/p')
iid2=$(submit_inference)
curl -fsS "$base/v1/experiments/$iid2/result?wait=true&format=csv" >"$tmp/inference2.csv"
cmp -s "$tmp/inference1.csv" "$tmp/inference2.csv" || {
    echo "serve-smoke: identical inference configs returned different CSV bytes" >&2
    exit 1
}
hits_after=$(curl -fsS "$base/v1/cache/stats" | sed -n 's/.*"Hits": \([0-9]*\).*/\1/p')
[ "${hits_after:-0}" -gt "${hits_before:-0}" ] || {
    echo "serve-smoke: duplicate inference experiment produced no cache hits" >&2
    exit 1
}

# SIGTERM must drain gracefully and exit 0.
kill -TERM "$pid"
if ! wait "$pid"; then
    echo "serve-smoke: daemon exited non-zero on SIGTERM" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi
pid=""

echo "serve-smoke: ok ($base, 4 experiments, cached re-runs)"
