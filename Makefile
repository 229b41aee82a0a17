GO ?= go

.PHONY: build test race vet fmt staticcheck bench-build bench-smoke fuzz-smoke serve-smoke dist-smoke check figures report

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the parallel experiment
# harness must stay race-clean at every worker count.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs honnef.co/go/tools if it is on PATH and is a no-op (with
# a notice) otherwise, so `make check` needs no network access; CI installs
# the tool explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# bench-build compiles the repository benchmark, perfbench. It is its own
# module, so `go build ./...` never reaches it, and a change that deletes an
# internal API perfbench uses would otherwise pass every other check. It
# runs nothing and writes nothing under perfbench/.
bench-build:
	cd perfbench && GOWORK=off $(GO) build -o /dev/null .

# bench-smoke compiles and runs each pinned benchmark once — enough to catch
# a benchmark that no longer builds or an allocation-guard regression that
# panics, without timing noise. EngineScheduleRun times a fresh engine's
# warm-up, 1,000 chained events with one pending. EngineHold holds the
# kernel queue at the figure-6 sweep's measured median and 99th-percentile
# sizes; NewRNG and RNGDraw give one random stream's cost, from creation
# through the steady state, beside math/rand's. BenchCell (one figure-7 cell
# per network) and OpGraphReplay (one prefill replay per network) report the
# allocs/op of the two application paths, the coherence study and the
# inference study; SaturatedLoadPoint (uniform traffic at load 0.95 on four
# networks, -quick windows) reports the figure-6 path's at its heaviest
# point.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EngineScheduleCall|EngineScheduleRun|EngineHold|NewRNG|RNGDraw|DisabledInstruments' -benchtime 1x ./internal/sim ./internal/metrics
	$(GO) test -run '^$$' -bench 'BenchCell|OpGraphReplay|SaturatedLoadPoint' -benchtime 1x ./internal/harness

# fuzz-smoke runs eight fuzz targets briefly: the distrib frame decoder,
# the worker's cell-spec decoder, the event queue (random schedules checked
# against the (time, insertion order) reference), the random streams
# (random call sequences checked against math/rand), the operator-graph
# JSON loader, the daemon's experiment-config decoder (accepted configs
# normalize to themselves and keep every list within its cap), the cache
# key parser (accepted keys round-trip through Hex) and the remote cache's
# batch answer (every accepted entry has a parsable key and is a JSON
# value within the entry cap). Plain `go test` already replays their seed
# corpora (the round-trip and rejection tables, the dispatch-order
# property shapes, the edge seeds, the loader's accept and reject tables,
# the daemon's validation tables, the key rejection table); this target
# also explores new inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/distrib
	$(GO) test -run '^$$' -fuzz '^FuzzCellSpec$$' -fuzztime 10s ./internal/harness
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzRNGMatchesMathRand$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzLoadJSON$$' -fuzztime 10s ./internal/opgraph
	$(GO) test -run '^$$' -fuzz '^FuzzExperimentConfig$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzParseKey$$' -fuzztime 10s ./internal/expcache
	$(GO) test -run '^$$' -fuzz '^FuzzBatchEnvelope$$' -fuzztime 10s ./internal/expcache

# serve-smoke boots cmd/macrochipd on an ephemeral port with a throwaway
# cache, drives tiny experiments through the HTTP API (an identical
# figure-6 or inference resubmission must come back byte-identical from the
# job table without a cache lookup, a config sharing points must get them
# from the cache),
# and requires a clean SIGTERM drain. Skips with a notice when curl is not
# installed.
serve-smoke:
	@sh scripts/serve_smoke.sh

# dist-smoke runs a tiny figure-6 panel serially, through a coordinator
# with two locally spawned macrosim workers, and through a mixed fleet (one
# spawned worker beside one TCP worker); then the quick figure 7 study and
# two-network quick resilience and inference sweeps, serially and with two
# spawned workers, so every cell kind crosses a process boundary. It
# requires byte-identical CSV plus proof (the dist summary) that cells
# actually crossed the wire.
dist-smoke:
	@sh scripts/dist_smoke.sh

# check is the pre-merge gate: vet + formatting + lint + tests + race
# detector + benchmark build + benchmark smoke + decoder fuzz smoke +
# daemon smoke + distributed smoke. Performance is measured by the
# repository benchmark, perfbench (see BENCHMARK.json), not here.
check: vet fmt staticcheck test race bench-build bench-smoke fuzz-smoke serve-smoke dist-smoke

figures:
	$(GO) run ./cmd/figures -all

report:
	$(GO) run ./cmd/report
