#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for cmd/macrochipd, run by
# `make serve-smoke` (part of `make check`).
#
# Boots the daemon on an ephemeral port with a throwaway cache directory,
# checks /healthz, runs one tiny scaling experiment, one tiny figure-6
# panel and one tiny inference experiment through the full POST → wait →
# CSV round trip, and fetches the scaling job as text and JSON too. Scaling
# rows are arithmetic and never reach the cache, so the cache proofs use
# the figure-6 and inference configs: each identical config, re-submitted,
# comes back byte-identical from the job table without a cache lookup
# (Hits and Misses unchanged), and a config that shares points with an
# earlier one gets those rows from the cache (Hits rise, rows equal). It requires
# cmd/resilience and cmd/inference to print the daemon's CSV bytes for one
# config each (and the quick inference sweep to print the committed
# golden), then shuts down via SIGTERM and requires a clean (exit 0)
# graceful drain.
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

$GO build -o "$tmp/" ./cmd/macrochipd ./cmd/resilience ./cmd/inference

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

# submit <config>: POST one experiment and print its job id.
submit() {
    curl -fsS -X POST "$base/v1/experiments" -d "$1" |
        sed -n 's/.*"id": "\(exp-[0-9]*\)".*/\1/p'
}

# daemon_csv <config> <file>: the daemon's CSV body for one config.
daemon_csv() {
    job=$(submit "$1")
    [ -n "$job" ] || { echo "serve-smoke: no id for $1" >&2; exit 1; }
    curl -fsS "$base/v1/experiments/$job/result?wait=true&format=csv" >"$2"
}

# same <want> <got> <label>
same() {
    cmp -s "$1" "$2" || {
        echo "serve-smoke: $3" >&2
        diff "$1" "$2" >&2 || true
        exit 1
    }
}

# counter <name>: one of the cache's lookup counters (Hits or Misses).
counter() {
    curl -fsS "$base/v1/cache/stats" | sed -n "s/^ *\"$1\": \([0-9]*\).*/\1/p"
}

# resubmit <config> <first csv> <label>: the identical config again must
# answer the first CSV's bytes from the job table, asking the cache nothing.
resubmit() {
    before="$(counter Hits) $(counter Misses)"
    daemon_csv "$1" "$tmp/again.csv"
    same "$2" "$tmp/again.csv" "identical $3 configs returned different CSV bytes"
    after="$(counter Hits) $(counter Misses)"
    [ "$after" = "$before" ] || {
        echo "serve-smoke: identical $3 resubmission queried the cache (hits misses $before -> $after)" >&2
        exit 1
    }
}

# overlap <config> <want> <label>: a config sharing points with an earlier
# one must lead with those points' rows (the file <want>: the header, then
# the rows) and serve them from the cache.
overlap() {
    hits_before=$(counter Hits)
    daemon_csv "$1" "$tmp/overlap.csv"
    head -n "$(wc -l <"$2")" "$tmp/overlap.csv" >"$tmp/overlap-head.csv"
    same "$2" "$tmp/overlap-head.csv" "$3 rows differ from the earlier answer's"
    hits_after=$(counter Hits)
    [ "${hits_after:-0}" -gt "${hits_before:-0}" ] || {
        echo "serve-smoke: $3 produced no cache hits" >&2
        exit 1
    }
}

scaling='{"kind":"scaling","grid_sizes":[2,4]}'
id=$(submit "$scaling")
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

# A tiny figure-6 panel: the load-point cells through both answer paths.
figure6='{"kind":"figure6","quick":true,"pattern":"uniform","networks":["point-to-point"],"loads":[0.02,0.05]}'
daemon_csv "$figure6" "$tmp/figure6.csv"
head -1 "$tmp/figure6.csv" | grep -q '^pattern,network,load_pct,' || {
    echo "serve-smoke: unexpected figure-6 CSV:" >&2
    cat "$tmp/figure6.csv" >&2
    exit 1
}
resubmit "$figure6" "$tmp/figure6.csv" figure6
# One more load: the first answer's two rows lead, from the cache.
overlap '{"kind":"figure6","quick":true,"pattern":"uniform","networks":["point-to-point"],"loads":[0.02,0.05,0.075]}' \
    "$tmp/figure6.csv" "figure6 with one more load"

# A tiny inference experiment: the operator-graph kind end to end, with the
# same two answer paths.
inference='{"kind":"inference","quick":true,"networks":["point-to-point"],"graphs":["tensor-parallel-ffn"]}'
daemon_csv "$inference" "$tmp/inference1.csv"
head -1 "$tmp/inference1.csv" | grep -q '^network,graph,batch,' || {
    echo "serve-smoke: unexpected inference CSV:" >&2
    cat "$tmp/inference1.csv" >&2
    exit 1
}
grep -q 'tensor-parallel-ffn' "$tmp/inference1.csv" || {
    echo "serve-smoke: inference CSV missing the requested graph" >&2
    exit 1
}
resubmit "$inference" "$tmp/inference1.csv" inference
# One more network: the first answer's point-to-point row leads, from the
# cache.
overlap '{"kind":"inference","quick":true,"networks":["point-to-point","two-phase"],"graphs":["tensor-parallel-ffn"]}' \
    "$tmp/inference1.csv" "inference with one more network"

# cli_csv <file> <command> <flags...>: the CSV one study CLI writes.
cli_csv() {
    out=$1 cmd=$2
    shift 2
    "$tmp/$cmd" "$@" -csv "$out" >"$out.log" 2>&1 || {
        echo "serve-smoke: $cmd $* failed:" >&2
        cat "$out.log" >&2
        exit 1
    }
}

# The CLIs print the daemon's bytes for the same config.
daemon_csv '{"kind":"resilience","quick":true,"networks":["point-to-point"],"classes":["dark-laser"],"rates":[0,80],"mttr_us":3}' "$tmp/resilience-daemon.csv"
cli_csv "$tmp/resilience-cli.csv" resilience -quick -no-cache \
    -networks point-to-point -classes dark-laser -rates 0,80 -mttr 3
same "$tmp/resilience-daemon.csv" "$tmp/resilience-cli.csv" "resilience CLI CSV differs from the daemon's"

daemon_csv '{"kind":"inference","quick":true,"networks":["point-to-point","two-phase"]}' "$tmp/inference-daemon.csv"
cli_csv "$tmp/inference-cli.csv" inference -quick -no-cache -networks point-to-point,two-phase
same "$tmp/inference-daemon.csv" "$tmp/inference-cli.csv" "inference CLI CSV differs from the daemon's"

cli_csv "$tmp/inference-quick.csv" inference -quick -no-cache
same internal/harness/testdata/inference.csv.golden "$tmp/inference-quick.csv" "inference -quick CSV differs from the golden"

# SIGTERM must drain gracefully and exit 0.
kill -TERM "$pid"
if ! wait "$pid"; then
    echo "serve-smoke: daemon exited non-zero on SIGTERM" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi
pid=""

echo "serve-smoke: ok ($base, 9 experiments, job-table and cache answers, CLI bytes)"
