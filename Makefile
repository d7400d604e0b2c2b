# Tier-1 gate (`make check`) plus developer conveniences.

GO ?= go

.PHONY: check build vet test bench-smoke bench bench-json bench-diff alloc-gate stress-smoke grain-smoke race

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

# Regenerate the machine-readable perf snapshot (see DESIGN.md,
# "Benchmark protocol"; bump the file number to your PR number).
bench-json:
	$(GO) run ./cmd/pipebench -bench -stress -benchout BENCH_10.json

# Perf-regression gate: run a fresh snapshot and diff it against the
# latest committed BENCH_<n>.json — fail on >MAXREGRESS ns/op
# regression or any allocs/op increase on a hot path (the CI
# bench-diff job). The 20% default assumes the same machine class as
# the snapshot; CI overrides it (cross-hardware ns/op skew), keeping
# the alloc half of the gate exact everywhere.
MAXREGRESS ?= 0.20
bench-diff:
	$(GO) run ./cmd/pipebench -bench -benchout /tmp/bench_fresh.json \
		-diff "$$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)" -maxregress $(MAXREGRESS)

# Allocation-regression gate (the CI alloc-gate job): fail if any
# hot-path micro-benchmark allocates per item. The report goes to /tmp
# so the gate never overwrites the committed snapshot bench-diff uses
# as its baseline.
alloc-gate:
	$(GO) run ./cmd/pipebench -bench -benchout /tmp/alloc_gate.json -maxallocs 0

# A short RPS-ramp smoke (the CI stress-smoke step): a small grid and
# coarse ramp, just enough to exercise trace generation → SubmitTrace
# → knee detection end to end. The full-resolution ramp ships in the
# committed BENCH_<n>.json via bench-json.
stress-smoke:
	$(GO) run ./cmd/pipebench -stress -stress-nodes 4 -stress-items 10 \
		-stress-start 2 -stress-step 3 -stress-steps 4 -stress-horizon 60 \
		-benchout /tmp/stress_smoke.json

# A short grain-sweep smoke (the CI grain-smoke step): two ladder
# points with a reduced item count, just enough to exercise the
# batched boundary's throughput and paced-p99 measurement end to end.
# The full ladder ships in the committed BENCH_<n>.json `batch`
# section via bench-json.
grain-smoke:
	$(GO) run ./cmd/pipebench -grainsweep -grain 1,8 -grain-items 10000

race:
	$(GO) test -race ./...
