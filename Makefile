# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make ci` locally means a green
# pipeline — modulo govulncheck/staticcheck, which need network access
# to install and therefore run only in CI.

GO ?= go

.PHONY: build test race lint fmt bench-smoke bench-durability bench-serve bench-market bench-loadgen loadgen-smoke perfbench-test ci

build:
	$(GO) build ./...
	$(GO) build ./examples/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repo's own analyzer suite (errcode, floatguard,
# lockdiscipline, wirecontract, snapshotfields) over every package.
# Exit status 1 means findings; fix them or add a reasoned
# //lint:ignore <analyzer> <reason> directive.
lint:
	$(GO) run ./cmd/datamarket-lint ./...
	$(GO) run ./cmd/datamarket-lint -C perfbench ./...

fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }

# bench-smoke compiles and runs every benchmark for one iteration so
# they cannot rot; perf numbers come from manual -benchtime runs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-durability regenerates BENCH_durability.json, the tracked perf
# artifact of the durability stack: sustained durable pricing throughput
# per fsync policy (the acceptance bar is -fsync always within ~2× of
# -fsync never) and crash-recovery time vs dirty-stream count.
bench-durability:
	$(GO) run ./cmd/durabilitybench -out BENCH_durability.json

# bench-serve regenerates BENCH_serving.json, the tracked perf artifact
# of the HTTP serving path: per-round and batched rounds/s with p50/p99
# latency under both wire codecs (the acceptance bars are ≥500k rounds/s
# on the binary batch path and ≥10× the JSON per-round number).
bench-serve:
	$(GO) run ./cmd/servebench -out BENCH_serving.json

# bench-market regenerates BENCH_market.json, the tracked perf artifact
# of the hosted-market trade loop: dense seed-pipeline baseline vs the
# sparse batch-settled fast path, plus the served numbers at the HTTP
# edge (the acceptance bar is batch_over_dense >= 10x on a 10k-owner
# market with 64-support queries).
bench-market:
	$(GO) run ./cmd/servebench -scenario market -out BENCH_market.json

# bench-loadgen regenerates BENCH_loadgen.json, the tracked perf
# artifact of the scenario engine: the four dataset-shaped workloads
# (accommodation, impression, ratings, mixed) driven through the public
# SDK against an in-process broker, each under the open-loop and
# closed-loop drivers, with latency percentiles, error-code counts, and
# regret/revenue summaries per scenario.
bench-loadgen:
	$(GO) run ./cmd/loadgen -out BENCH_loadgen.json

# loadgen-smoke is the CI gate on the scenario engine: every scenario
# under both drivers at tiny synthetic sizes (~5s, no datasets needed),
# failing if any op errors beyond the budget of zero.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -smoke

# perfbench-test vets and tests the repository benchmark. perfbench/ is
# a nested module, so the root ./... patterns never reach it; its tests
# check the phase plan and push every workload, at tiny sizes, through
# the broker with the answer and books checks on (~15s).
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: fmt build test lint perfbench-test
