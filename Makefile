# Standard checks. `make check` is the pre-merge gate: gofmt + vet (the root
# module and the perfbench module) + the wall-clock scan of the
# slot-indexed core + a race pass over the observability layer, then the
# full test suite under the race detector (the chaos loop and the
# parallel experiment harness must stay race-clean) + a shuffled-order
# pass (no test may lean on package-level state left by an earlier test)
# + the quick perf gate + the resilience smoke campaign.

GO ?= go

.PHONY: all build test fmt vet perfbench-vet race race-obs shuffle no-wallclock check fuzz bench bench-record bench-lanes perfgate resilcheck trace-demo serve-demo top-demo

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any Go file in the tree.
fmt:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

# perfbench is its own module, so `./...` never compiles it; vet it
# against this checkout so an API change cannot break the benchmark
# while `make check` stays green.
perfbench-vet:
	GOFLAGS= GOPROXY=off $(GO) -C perfbench vet ./...

race:
	$(GO) test -race ./...

# Focused race pass over the observability layer and every package it
# instruments — fast feedback on the shared-registry paths before the
# full suite runs.
race-obs:
	$(GO) test -race ./internal/obs/ ./internal/obs/event/ ./internal/retry/ \
		./internal/checkpoint/ ./internal/cloud/ ./internal/client/ \
		./internal/market/ ./internal/fleet/ ./internal/trace/ \
		./internal/dist/ ./internal/experiments/ ./internal/chaos/ \
		./internal/invariant/ ./internal/strategy/ ./internal/serve/ \
		./internal/obs/tsdb/

# Randomized test order, seed printed on failure for replay with
# -shuffle=N.
shuffle:
	$(GO) test -shuffle=on ./...

# Trace determinism depends on the slot-indexed core never reading the
# wall clock; see DESIGN.md §9.
no-wallclock:
	sh scripts/no_wallclock.sh

check: fmt vet perfbench-vet no-wallclock race-obs race shuffle perfgate resilcheck

# Short fuzz pass over both history-parser targets, the region's
# price-history window, the fault-schedule shrinker, the strategy
# deciders, the quote-request decoder + serving path + HTTP handler,
# the tsdb chunk decoder, the branch-free order-statistic searches,
# the sample and run sorts against sort.Float64s and slices.SortFunc,
# the windowed ECDF's run-length Fill and batch Slide, the Prop. 5
# grid's one-call-per-price-step scan against its brute-force form,
# the Pareto transform's exp∘log fast path, and the lane kernel's
# bulk-loop bound.
fuzz:
	$(GO) test -fuzz=FuzzSearchEquivalence -fuzztime=30s ./internal/dist/
	$(GO) test -fuzz=FuzzSortSample -fuzztime=30s ./internal/dist/
	$(GO) test -fuzz=FuzzGridMinSteps -fuzztime=30s ./internal/dist/
	$(GO) test -fuzz=FuzzFromUniformMatchesPow -fuzztime=30s ./internal/dist/
	$(GO) test -fuzz=FuzzFillEquivalence -fuzztime=30s ./internal/dist/
	$(GO) test -fuzz=FuzzSlideEquivalence -fuzztime=30s ./internal/dist/
	$(GO) test -fuzz=FuzzReadCSV$$ -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzReadCSVCorrupted -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzPriceHistory -fuzztime=30s ./internal/cloud/
	$(GO) test -fuzz=FuzzFaultSchedule -fuzztime=30s ./internal/invariant/
	$(GO) test -fuzz=FuzzStrategyDecision -fuzztime=30s ./internal/strategy/
	$(GO) test -fuzz=FuzzQuoteRequest -fuzztime=30s ./internal/serve/
	$(GO) test -fuzz=FuzzTSDBDecode -fuzztime=30s ./internal/obs/tsdb/
	$(GO) test -fuzz=FuzzBulkSlots -fuzztime=30s ./internal/lanes/

# Resilience smoke campaign (deterministic seed): the full default
# fault-schedule grid plus random schedules under all five invariant
# checkers, replay on; exits non-zero on any violation. Part of
# `make check`.
resilcheck:
	$(GO) run ./cmd/resilcheck

bench:
	$(GO) test -bench=. -benchmem .

# The committed performance record (BENCH.json): singles (ns/op,
# allocs/op) for the core operations and the quote hot path, the Table 3
# trace-memo speedup, the fleet run and the client's market step as
# multiples of a sort yardstick, instrumented-vs-Noop overheads (macro
# budget < 5%), and the quote p99 sample. Commit the refreshed record
# after an intentional performance change; DESIGN.md §10 lists its
# gates.
bench-record:
	$(GO) run ./cmd/perfgate -out BENCH.json

# Struct-of-arrays fleet engine benchmarks (in-package: the lane-major
# run and the same fleet ticked slot by slot, allocs reported). The
# committed fleet numbers live in BENCH.json (the lanes.fleet_tick
# single and the lanes.fleet_run pair); `make check` holds the pair
# under its ceiling through perfgate.
bench-lanes:
	$(GO) test -bench 'BenchmarkFleet' -benchmem ./internal/lanes/

# Perf regression gate, part of `make check`: a quick re-measure held
# to the committed BENCH.json and to perfgate's constant ceilings — the
# trace-memo speedup ratio, the fleet run's and market step's ratios to
# the sort yardstick, allocation ceilings, and the 0-alloc quote path
# and flight-recorder emit.
perfgate:
	$(GO) run ./cmd/perfgate -quick -gate BENCH.json

# Chaos-failover flight-recorder walkthrough: per-slot timeline on
# stdout; see examples/flightrecorder for the Perfetto export flags.
trace-demo:
	$(GO) run ./examples/flightrecorder

# Bid-advisory daemon demo: one slot per second (300x compression),
# quotes on http://localhost:8372/v1/quote; ^C drains gracefully. See
# the README serving quickstart for curl examples.
serve-demo:
	$(GO) run ./cmd/spotbidd -addr :8372 -accel 300

# Terminal observatory demo: run the serving drill under the tsdb
# scraper and render every series as a sparkline plus the SLO alert
# timeline (degrade → shed → recover). See the README observatory
# quickstart for the replay and attach modes.
top-demo:
	$(GO) run ./cmd/spotbidtop -drill
