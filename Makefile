# Tier-1 gate (`make check`) plus developer conveniences.

GO ?= go

.PHONY: check build vet test bench-smoke bench bench-ab alloc-gate stress-smoke grain-smoke race

check: build vet test bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# A short benchmark smoke: the hot-path micro-benchmarks only, one
# quick pass each, with -benchmem so allocation regressions surface in
# the gate.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EngineScheduleStep|ReorderStage$$|BatchBoundary|FarmUnordered|ExecRunItems' -benchmem -benchtime 100x .

# The full benchmark suite: every experiment + every micro-benchmark.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Cross-commit comparison on the benchmark BENCHMARK.json declares:
# interleaved gridbench/run.sh pairs of REF against this checkout,
# every workload, with medians, spreads and verdicts against each
# end-to-end metric's bound (see DESIGN.md, "Benchmark protocol").
bench-ab:
	@test -n "$(REF)" || { echo "usage: make bench-ab REF=<rev>" >&2; exit 2; }
	$(GO) run ./cmd/benchab -ref "$(REF)"

# Allocation-regression gate (the CI alloc-gate job): fail if any
# hot-path micro-benchmark allocates per item. The report goes to /tmp
# for the CI artifact.
alloc-gate:
	$(GO) run ./cmd/pipebench -bench -benchout /tmp/alloc_gate.json -maxallocs 0

# A short RPS-ramp smoke (the CI stress-smoke step): a small grid and
# coarse ramp, just enough to exercise trace generation → SubmitTrace
# → knee detection end to end. Drop the -stress-* overrides for the
# full-resolution ramp.
stress-smoke:
	$(GO) run ./cmd/pipebench -stress -stress-nodes 4 -stress-items 10 \
		-stress-start 2 -stress-step 3 -stress-steps 4 -stress-horizon 60 \
		-benchout /tmp/stress_smoke.json

# A short grain-sweep smoke (the CI grain-smoke step): two ladder
# points with a reduced item count, just enough to exercise the
# batched boundary's throughput and paced-p99 measurement end to end.
# Drop the -grain overrides for the full ladder.
grain-smoke:
	$(GO) run ./cmd/pipebench -grainsweep -grain 1,8 -grain-items 10000

race:
	$(GO) test -race ./...
