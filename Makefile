# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make ci` locally means a green
# pipeline — modulo the -race run and the fuzz budget (`make race` runs
# the former), and govulncheck/staticcheck, which need network access
# to install and therefore run only in CI.

GO ?= go

.PHONY: build test test-portable fma-check race vet lint fmt bench-smoke bench-durability loadgen-smoke perfbench-test ci

build:
	$(GO) build ./...
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# test-portable runs the bit-identity tests of the knowledge-set update on
# the portable Go path. On amd64 with AVX, linalg's Sym.RankOneScale always
# takes its assembly kernel, so no other target runs the Go loop through
# ellipsoid's Cut. GOARCH=386 builds have no kernel; their binaries run
# natively on amd64 Linux, and Go's 386 float64 arithmetic is SSE2, which
# rounds as amd64 does (~20s).
test-portable:
	GOARCH=386 $(GO) test -count=1 -run 'CutMatchesReference|RankOneScale|IgnoresLowerTriangle|ZeroAllocs' ./internal/linalg/ ./internal/ellipsoid/

# fma-check fails if the arm64 code of any package under internal/ or
# api/ holds a fused multiply-add. The Go spec lets a compiler fuse
# x*y + z into one instruction that skips the product's rounding; arm64's
# does, amd64's never does. Those packages wrap every product that feeds
# an add or subtract in float64(…), which forbids the fusion, so the
# knowledge set, the OLS fit, the prices, compensations, regret
# bookkeeping and random draws round on arm64 as on amd64. cmd/ and
# examples/ are not checked. The compiler's listing is replayed from the
# build cache, so the check also works on a warm cache; it fails too if
# the listing of QR or Cut is missing.
fma-check:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/... ./api/... 2>&1) || { echo "$$out"; exit 1; }; \
	for fn in 'linalg\.QR STEXT' 'ellipsoid\.(\*E)\.Cut STEXT'; do \
		echo "$$out" | grep -q "$$fn" || { echo "fma-check: no arm64 listing for $$fn"; exit 1; }; \
	done; \
	fused=$$(echo "$$out" | grep -wE 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'); \
	test -z "$$fused" || { echo "fma-check: fused multiply-adds in the arm64 code:"; echo "$$fused"; exit 1; }

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

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
# they cannot rot, among them the ones that carry the serving and market
# acceptance bars (README, "Serving throughput baseline" and "Market
# fast path performance"); perf numbers come from manual -benchtime runs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-durability regenerates BENCH_durability.json, the tracked perf
# artifact of the durability stack: sustained durable pricing throughput
# per fsync policy (the acceptance bar is -fsync always within ~2× of
# -fsync never) and crash-recovery time vs dirty-stream count, each row
# the median and quartiles of 5 runs (~10s).
bench-durability:
	$(GO) run ./cmd/durabilitybench -out BENCH_durability.json

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

ci: fmt build vet test test-portable fma-check lint bench-smoke loadgen-smoke perfbench-test
