#!/bin/sh
# dist_smoke.sh — end-to-end smoke test for distributed sweep execution,
# run by `make dist-smoke` (part of `make check`).
#
# Builds cmd/figures and the cmd/macrosim worker binary, runs a tiny
# figure-6 panel (uniform pattern, point-to-point network, quick windows)
# serially as the reference, then three distributed ways:
#
#   1. two spawned pipe workers at depth 1 (stop-and-wait)
#   2. two spawned pipe workers at depth 8 (the pipelined credit window)
#   3. a mixed fleet at depth 2: one spawned pipe worker beside one TCP
#      worker (`macrosim -connect`) against a listening coordinator, the
#      way the coordinator's own cores join a remote fleet
#
# Then it sends every other cell kind through two spawned workers: the
# figure 7–10 study (`figures -fig 7 -quick`), the resilience study and the
# inference study (each `-quick` on point-to-point and two-phase), each run
# serially and again with `-dist-workers 2`.
#
# Every run gets its own fresh cache directory and every CSV must be
# byte-identical to the serial one. Each coordinator's stderr summary must
# show cells actually completed by the fleet (in the mixed run, by each of
# its two workers), so the comparison cannot silently pass by never
# distributing.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

$GO build -o "$tmp/" ./cmd/figures ./cmd/macrosim ./cmd/resilience ./cmd/inference

run_figures() {
    # $1 = output dir, $2 = cache dir, rest = extra flags
    out=$1 cachedir=$2
    shift 2
    "$tmp/figures" -fig 6 -quick -seed 1 \
        -patterns uniform -networks point-to-point \
        -csv "$out" -cache-dir "$cachedir" "$@" \
        >"$out.stdout" 2>"$out.stderr"
}

# require_identical <run dir> <label>
require_identical() {
    cmp -s "$tmp/serial/fig6_uniform.csv" "$1/fig6_uniform.csv" || {
        echo "dist-smoke: $2 CSV differs from serial" >&2
        diff "$tmp/serial/fig6_uniform.csv" "$1/fig6_uniform.csv" >&2 || true
        exit 1
    }
}

# require_completed <stderr file> <label>: the dist summary line proves
# cells really crossed the protocol:
#   figures: dist: N dispatched, M completed, ...
require_completed() {
    n=$(sed -n 's/.*dist: [0-9]* dispatched, \([0-9]*\) completed.*/\1/p' "$1")
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        echo "dist-smoke: no cells completed remotely ($2)" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$n"
}

run_figures "$tmp/serial" "$tmp/cache-serial"

# Pipe transport: spawned workers at both ends of the depth axis.
for depth in 1 8; do
    run_figures "$tmp/dist-d$depth" "$tmp/cache-d$depth" \
        -dist-workers 2 -dist-exec "$tmp/macrosim" -dist-wait 2 \
        -dist-depth "$depth"
    require_identical "$tmp/dist-d$depth" "depth-$depth"
    done_cells=$(require_completed "$tmp/dist-d$depth.stderr" "depth $depth")
    # The summary's per-worker lines pin that the fleet really negotiated
    # the requested window, not a silently clamped one.
    grep -q "depth $depth" "$tmp/dist-d$depth.stderr" || {
        echo "dist-smoke: summary does not show negotiated depth $depth" >&2
        cat "$tmp/dist-d$depth.stderr" >&2
        exit 1
    }
    eval "completed_d$depth=\$done_cells"
done

# Mixed fleet: the coordinator spawns one local worker (proc-0) and
# listens on an ephemeral port, where a remote worker dials in over TCP.
# -dist-wait 2 starts the sweep once both are attached, and at depth 2
# neither window can hold the 13-point panel, so both must take cells.
run_figures "$tmp/dist-mixed" "$tmp/cache-mixed" \
    -dist-workers 1 -dist-exec "$tmp/macrosim" \
    -dist-addr 127.0.0.1:0 -dist-wait 2 -dist-depth 2 &
figures_pid=$!

addr=
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening for workers on \([0-9.]*:[0-9]*\).*/\1/p' \
        "$tmp/dist-mixed.stderr" 2>/dev/null || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    kill "$figures_pid" 2>/dev/null || true
    echo "dist-smoke: coordinator never announced its listen address" >&2
    cat "$tmp/dist-mixed.stderr" >&2 2>/dev/null || true
    exit 1
fi

"$tmp/macrosim" -connect "$addr" -cache-dir "$tmp/cache-tcp-worker" \
    >"$tmp/worker-tcp.log" 2>&1 &
worker_pid=$!

if ! wait "$figures_pid"; then
    kill "$worker_pid" 2>/dev/null || true
    echo "dist-smoke: mixed-fleet coordinator run failed" >&2
    cat "$tmp/dist-mixed.stderr" >&2
    exit 1
fi
wait "$worker_pid" 2>/dev/null || true

require_identical "$tmp/dist-mixed" "mixed fleet"
completed_mixed=$(require_completed "$tmp/dist-mixed.stderr" "mixed fleet")

# require_worker_cells <worker name pattern> <label>: the summary's
# per-worker clause ("; proc-0 N cells (...)") shows N > 0. A TCP worker
# names itself macrosim-<pid>.
require_worker_cells() {
    n=$(sed -n "s/.*; $1 \([0-9]*\) cells.*/\1/p" "$tmp/dist-mixed.stderr")
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        echo "dist-smoke: the $2 worker completed no cells in the mixed fleet" >&2
        cat "$tmp/dist-mixed.stderr" >&2
        exit 1
    fi
    echo "$n"
}
completed_proc=$(require_worker_cells 'proc-0' "spawned")
completed_tcp=$(require_worker_cells 'macrosim-[0-9]*' "TCP")

# kind_pair <label> <csv file> <command> <flags...>: the command serially
# and with two spawned workers, each on a fresh cache; the CSVs must be
# byte-identical and the workers must complete cells. figures takes a CSV
# directory, the other commands a file.
kind_pair() {
    label=$1 csv=$2 bin=$3
    shift 3
    for side in serial dist; do
        dir="$tmp/$label-$side"
        mkdir -p "$dir"
        out="$dir/$csv"
        [ "$bin" = figures ] && out="$dir"
        fleet=""
        [ "$side" = dist ] && fleet="-dist-workers 2 -dist-exec $tmp/macrosim -dist-wait 2"
        # shellcheck disable=SC2086 # $fleet is a word list
        "$tmp/$bin" "$@" $fleet -cache-dir "$tmp/cache-$label-$side" -csv "$out" \
            >"$dir.stdout" 2>"$dir.stderr" || {
            echo "dist-smoke: $label $side run failed" >&2
            cat "$dir.stderr" >&2
            exit 1
        }
    done
    cmp -s "$tmp/$label-serial/$csv" "$tmp/$label-dist/$csv" || {
        echo "dist-smoke: $label distributed CSV differs from serial" >&2
        diff "$tmp/$label-serial/$csv" "$tmp/$label-dist/$csv" >&2 || true
        exit 1
    }
    require_completed "$tmp/$label-dist.stderr" "$label"
}
completed_study=$(kind_pair study study.csv figures -fig 7 -quick)
completed_resilience=$(kind_pair resilience resilience.csv resilience -quick -networks point-to-point,two-phase)
completed_inference=$(kind_pair inference inference.csv inference -quick -networks point-to-point,two-phase)

echo "dist-smoke: ok (pipe depth 1: $completed_d1 cells, depth 8: $completed_d8 cells, mixed: $completed_mixed cells = proc-0 $completed_proc + TCP $completed_tcp; study $completed_study, resilience $completed_resilience, inference $completed_inference cells over two workers; all byte-identical CSV)"
