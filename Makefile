GO ?= go

.PHONY: all build test race bench bench-compare lint vet-bench test-bench vet-gsb staticcheck govulncheck check fmt fuzz-smoke examples

# Pinned external tool versions. CI installs exactly these; bump them
# deliberately (update here AND in .github/workflows/ci.yml, run
# `make check`, and mention the bump in the PR) rather than floating on
# @latest, so a tool release can never break or reinterpret the tree
# without a reviewed diff.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

all: build lint test

# check is the single local entry point mirroring CI: build, vet/gofmt,
# the examples run end to end, vet and tests of the benchmark module, the
# project's own analyzers (gsbvet, built from the tree — never skipped),
# external static analysis (skipped with a notice when the tools are not
# installed), vulnerability scan, tests. CI runs the same make targets.
check: build lint examples vet-bench test-bench vet-gsb staticcheck govulncheck test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples runs every program under examples/ to completion; any
# non-zero exit fails the target. Compiling them (make build) does not
# show that they still work through the facade.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null; \
	done

# vet-bench vets the benchmark module: verdictbench/ has its own go.mod,
# so the root `go build ./...` never compiles it, and a facade change
# that breaks a function it calls shows only here.
vet-bench:
	$(GO) -C verdictbench vet ./...

# test-bench runs the benchmark module's own tests (about 45 s on 2
# CPUs): vet sees only a signature break in the facade, a behaviour break
# (say, in what a nil stats registry hands out) shows only when the
# workloads run.
test-bench:
	$(GO) -C verdictbench test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Benchmark smoke: compile and execute every benchmark once, then emit
# the machine-readable exploration report (schedule counts, runs/sec,
# partial-order-reduction factors) tracked across PRs. This regenerates
# the committed baseline BENCH_sched.json and the per-entry pprof CPU
# profiles under profiles/ (docs/metrics.md).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/gsbbench -out BENCH_sched.json -profiles profiles

# Benchmark regression gate: measure into BENCH_ci.json and fail on
# throughput drops (>25%), allocs-per-run growth, or schedule/class count
# drift against the committed BENCH_sched.json baseline. CI's bench-smoke
# job runs this; regenerate the baseline with `make bench` when a change
# legitimately moves the numbers. Baseline policy: the schedule/class and
# allocs columns are machine-independent and gate hard; runs/sec is
# environmental, so regenerate the baseline on a machine no faster than
# the CI runners (a slower box only loosens the throughput gate, never
# tightens it) or raise -max-drop when runners change generation.
# The gate run writes its own profiles into profiles-ci/ (not committed;
# CI uploads them as an artifact so a caught regression ships with the
# profile that explains it).
bench-compare:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/gsbbench -out BENCH_ci.json -compare BENCH_sched.json -profiles profiles-ci

# lint also keeps the test-only oracle package (internal/sched/schedtest)
# out of every shipped binary.
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi
	@deps=$$($(GO) list -deps ./cmd/... ./examples/...) || exit 1; \
	if echo "$$deps" | grep -q 'internal/sched/schedtest'; then \
		echo "internal/sched/schedtest is test-only, but a binary under cmd/ or examples/ links it"; exit 1; \
	fi

# gsbvet: the project's own analyzer suite (internal/lint,
# docs/static-analysis.md) — determinism, hotpath, statshandle,
# annotations. Builds from the tree, needs no network, and is never
# skipped.
vet-gsb:
	$(GO) run ./cmd/gsbvet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Short native-fuzzing smoke over the campaign snapshot decoders, the
# sample checkpoint encoder, the timeline sidecar reader, the fleet
# submission gate, the fleet upload route and the fleet coordinator's
# event sequences: each target runs for
# a few seconds (CI's static-analysis job runs the same), catching
# parser panics early. -fuzzminimizetime 5x caps the minimizing of each
# new input: at the 60 s default a leg spent its whole window minimizing
# the first input it found and FuzzUpload ran ~200 execs, against ~3,300
# with the cap. For a real session:
#   go test ./internal/campaign -fuzz FuzzDecodeSnapshot -fuzztime 5m
fuzz-smoke:
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzParseHeader -fuzztime 10s -fuzzminimizetime 5x
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 10s -fuzzminimizetime 5x
	$(GO) test ./internal/sample -run '^$$' -fuzz FuzzAppendJSON -fuzztime 10s -fuzzminimizetime 5x
	$(GO) test ./internal/timeline -run '^$$' -fuzz FuzzDecodeTimeline -fuzztime 10s -fuzzminimizetime 5x
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzSubmission -fuzztime 10s -fuzzminimizetime 5x
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzUpload -fuzztime 10s -fuzzminimizetime 5x
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzCoordinatorEvents -fuzztime 10s -fuzzminimizetime 5x

fmt:
	gofmt -w .
