GO ?= go
FUZZTIME ?= 60s

.PHONY: all build test race golden-workers lint lint-flow vet bench-smoke bench-block ab san fuzz cache-bench checkpoint sample mut mut-smoke mut-pinned ci

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full race lane: guards the sweep harness and the in-cycle parallel
# orchestrator (Config.Workers > 1). The explicit TestWorkersFour pass
# simulates every kernel with Workers=4 — more workers than most CI hosts
# have cores — so the pool's happens-before edges get checked under an
# oversubscribed scheduler too. The explicit timeout: under -race on two
# vCPUs the root package alone takes eight minutes, more with another
# lane beside it, and Go's default is ten.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -timeout 30m -run 'TestWorkersFour' .

# Workers>1 golden-trace lane: byte-identical .prv traces and cycle counts
# for Workers ∈ {1, 2, 3, NumCPU}, plus the forced same-line conflict that
# exercises the serial re-execution fallback. The prefix also matches
# TestWorkersInterleaveMatrix: the superblock engine diffed bit-exactly
# against the single-step reference across interleave {1,2,8,64} ×
# workers {1,4}.
golden-workers:
	$(GO) test -run 'TestWorkers' -count 1 .

# coyotelint: the determinism & hot-path invariant suite (DESIGN.md §9).
# Zero findings required; exit 1 on findings, 2 on load failure.
lint:
	$(GO) run ./cmd/coyotelint ./...

# Just the interprocedural dataflow lanes (DESIGN.md §12): cache-key
# soundness, spec-layer write isolation, global-state freedom.
lint-flow:
	$(GO) run ./cmd/coyotelint -run keytaint,specwrite,globalmut ./...

# go vet, then the gofmt gate: no Go file outside testdata/ (lint and
# fuzz fixtures, laid out as their tests need) may need formatting.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# The uncore line is the MSHR back-pressure microbenchmark (DESIGN.md §6):
# 0 allocs/op, and ns/waited-cycle falling as the waiting list grows. The
# cpu line is the line-granular unit-stride vector path, which fails on any
# allocation per op.
bench-smoke:
	$(GO) test -bench 'Fig3|RunLoop128Stalled' -benchtime 1x -run '^$$' ./
	$(GO) test -bench 'MSHRSaturated' -benchtime 1x -benchmem -run '^$$' ./internal/uncore/
	$(GO) test -bench 'VectorUnitStride' -benchtime 1x -benchmem -run '^$$' ./internal/cpu/

# Superblock engine microbenchmarks: block-cached stepping vs the
# single-step reference path, plus the 0 allocs/op pin on StepBlock.
bench-block:
	$(GO) test -bench 'StepBlock' -benchmem -run '^$$' ./internal/cpu/

# The ten-pair rule (bench/README.md, EXPERIMENTS.md): the repository's
# benchmark at BASE against HEAD, seeds 1-10 on all four workloads, sides
# alternating; prints EXPERIMENTS.md's tables and fails on any end-to-end
# metric worse than its BENCHMARK.json bound. About forty minutes.
#   make ab BASE=<rev> [HEAD=<rev>]
ab:
	scripts/abpairs.sh $(BASE) $(HEAD)

# Sanitizer lane (DESIGN.md §10): the full test suite with the coyotesan
# runtime invariant checkers compiled in. The golden tests passing here
# proves the sanitizer is purely observational — cycle counts stay
# bit-identical to the default build — with zero violations.
san:
	$(GO) build -tags coyotesan ./...
	$(GO) test -tags coyotesan ./...

# Result-cache cold/warm benchmark (DESIGN.md §11): run the default
# explore grid twice against a throwaway cache directory and report the
# wall-clock for each. The second run must be all hits; CI enforces a
# ≥20× speedup, this target just shows the numbers.
cache-bench:
	$(GO) build -o /tmp/coyote-explore ./cmd/explore
	rm -rf /tmp/coyote-cache-bench
	@t0=$$(date +%s%N); \
	/tmp/coyote-explore -cache -cache-dir /tmp/coyote-cache-bench | tail -1; \
	t1=$$(date +%s%N); \
	/tmp/coyote-explore -cache -cache-dir /tmp/coyote-cache-bench | tail -1; \
	t2=$$(date +%s%N); \
	cold=$$(( (t1 - t0) / 1000000 )); warm=$$(( (t2 - t1) / 1000000 )); \
	if [ $$(( t2 - t1 )) -gt 0 ]; then speedup="$$(( (t1 - t0) / (t2 - t1) ))x"; else speedup="infx"; fi; \
	echo "cold $${cold} ms, warm $${warm} ms ($${speedup})"

# Checkpoint/restore gate (DESIGN.md §14): the golden suite proving
# stop-serialize-restore-resume reproduces the uninterrupted run's
# statistics and Paraver trace byte-for-byte on every kernel across the
# interleave × workers matrix, functional fast-forward architectural
# exactness, and a CLI round trip through an actual on-disk file.
checkpoint:
	$(GO) test -run 'TestCheckpointGolden|TestFunctionalFastForwardExact' -count 1 .
	$(GO) build -o /tmp/coyote-ckpt ./cmd/coyote
	/tmp/coyote-ckpt -kernel matmul-scalar -cores 4 -n 48 -checkpoint-at 5000 -checkpoint /tmp/coyote-ci.ckpt > /dev/null
	/tmp/coyote-ckpt -restore /tmp/coyote-ci.ckpt | grep -q 'verification     OK'

# Sampled-simulation smoke (DESIGN.md §14): SMARTS systematic sampling —
# the extrapolated cycle estimate must land inside the golden error
# fence, then a CLI demonstration run with the human-readable report.
sample:
	$(GO) test -run 'TestSampledVsFull' -count 1 -v .
	$(GO) build -o /tmp/coyote-ckpt ./cmd/coyote
	/tmp/coyote-ckpt -kernel matmul-scalar -cores 4 -n 96 -sample-period 40000 -sample-measure 8000 -sample-warmup 2000

# Fuzz smoke: explore random kernel/config combinations under the
# sanitizer for FUZZTIME on top of the committed seed corpus in
# testdata/fuzz/. Any invariant violation becomes a reproducible crasher.
# Then restore patched machine states for FUZZTIME: no panic, hang or
# allocation sized by the image (default build — the sanitizer's job is to
# panic on an inconsistent machine, which a patched state is). Then
# assemble arbitrary source for FUZZTIME: an error or a program whose text
# decodes, never a panic, a hang or an image past the assembler's bound.
fuzz:
	$(GO) test -tags coyotesan -run '^$$' -fuzz FuzzKernelSan -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzRestoreState -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzAssemble -fuzztime $(FUZZTIME) ./internal/asm

# Mutation testing (DESIGN.md §13): the full catalog over the simulator
# packages, adjudicated by the oracle cascade. Exit 1 on any unannotated
# survivor. Verdicts are memoized under .coyotemut/cache, so re-runs only
# pay for mutants whose code (or whose oracles) changed.
mut:
	$(GO) run ./cmd/coyotemut ./internal/...

# The CI smoke lane: a deterministic seed-sampled subset of the catalog.
# Same exit contract as `mut`, same verdict cache.
mut-smoke:
	$(GO) run ./cmd/coyotemut -budget 40 -seed 1 ./internal/...

# Replay the pinned regression corpus (internal/mut/testdata/pinned/)
# through the full oracle cascade: every pin must be killed by exactly
# its designated layer. Opt-in via env because nine full cascades take
# ~8 minutes on one core — too heavy for the default `go test ./...`.
mut-pinned:
	COYOTE_MUT_PINNED=1 $(GO) test -count=1 -timeout 30m -run TestPinnedCorpus -v ./internal/mut/

# Mirrors every required lane of .github/workflows/ci.yml: the test job
# (build/vet/test/race/lint/bench-smoke), the golden-workers and
# coyotesan jobs (san includes the sanitizer build+suite, fuzz is the
# coyotesan job's smoke step), the rcache job's cold/warm benchmark, the
# checkpoint job's round-trip + sampled-vs-full lanes, and the coyotemut
# job's mutation smoke + pinned-corpus lanes.
ci: build vet test race golden-workers lint bench-smoke san fuzz cache-bench checkpoint sample mut-smoke mut-pinned
