# Tier-1 verification for this repo: `make check` is what CI
# (.github/workflows/ci.yml) and the ROADMAP's verify step run. The race
# pass covers the packages on the zero-allocation message path (combiner
# → pooled batches → codec → MonoTable fold) plus checkpointing, fault
# injection, the lock-free metrics core, the PR 7 incremental-EDB
# and generator packages (edb, gen), where a recycle-contract violation
# would surface as a data race, and the set-up path — the edge-list
# loader parses in parts on goroutines (graph), and compiler had never run
# under the detector; -cpu 1,4 runs each test at
# both parallelism levels so the intra-worker subshard scan pool
# (DESIGN.md §9) is raced with real preemption even on small CI boxes;
# it runs -short, which trims
# the chaos matrix (internal/runtime/chaos_test.go) to its
# representative algorithm subset — the full matrix runs race-free under
# `make test`. `make lint` runs the repo-local static analyzers of
# internal/lint (cmd/plvet): recycle, atomicmix, lockblock, shadow,
# kindswitch, errcmp, metricname, condwait — the
# same checks also run under `go test ./internal/lint`, so plain
# `go test ./...` enforces them too. `make metrics-smoke` exercises the
# observability layer end-to-end: the policymetrics experiment on the
# tiny dataset, all six modes. `make churn-smoke` exercises the session
# lifecycle end-to-end: incremental Apply vs cold re-run on the tiny
# dataset across the four session-capable modes (the race pass already
# covers the session tests via ./internal/runtime/... -short). The
# PR 9 membership layer (membership.go, rejoin_test.go: crashw re-join
# matrix, elastic scale drills) also races under ./internal/runtime/...
# -short — the fence/handoff/park interleavings are exactly where a
# race would hide. `make serve-smoke` exercises the PR 10 serving front
# end (internal/server, cmd/plserved) end-to-end: the closed-loop serve
# experiment over real loopback HTTP — lookup/mutate mixes against a
# parked session — finishing with a /metrics scrape that must pass the
# Prometheus exposition conformance check; the race pass covers the
# concurrent-handler and concurrent-session tests
# (./internal/server/..., plus the session hammer under
# ./internal/runtime/...).
# `make test-cpu1` is the whole suite at one core — the configuration
# that is fully green while ROADMAP item 1's multi-core failures are
# open; CI runs it as its own required step ahead of `make check`.
# `make test-scan` runs the compute-pass tests (DESIGN.md §9: fan-out
# oracle runs, bit-identity below the gate and across kernel classes,
# the exclusive/atomic fold alternation, the mirror against the hash
# combiner and the owner-exclusive drain against the keyed one, the flush
# limits against the old per-emit rule, gating, the stealing deque),
# the bucket scheduler's (DESIGN.md §5b: the partition, every MRA mode
# against the oracle with the gate on every batch and fanned out over the
# cores, the relaxations saved, no idle wait behind held keys)
# and the session oracle suites (DESIGN.md §10: Apply vs a cold run for
# twelve programs, the support-closure property test) at 1, 2 and 4
# procs; unlike the full multi-core suite it is green at every count, so
# it is a real gate. `make test-term` runs the termination detector's
# tests — the stop machine's unit and property tests (internal/term) and
# the runtime's TestTerm*, session-equivalence and cross-transport suites
# — five times at 1, 2 and 4 procs. `make loc` prints non-test,
# non-comment, non-blank Go lines per package directory (*_test.go and
# testdata excluded) — run it on two commits to report "lines removed":
# `make -f $PWD/Makefile -C <other checkout> loc`.
.PHONY: check build vet lint test test-cpu1 test-scan test-term race bench bench-smoke loc metrics-smoke churn-smoke serve-smoke

check: vet lint build test test-scan test-term race metrics-smoke churn-smoke serve-smoke

build:
	go build ./...

vet:
	go vet ./...

lint:
	go run ./cmd/plvet ./...

test:
	go test ./...

test-cpu1:
	go test -cpu 1 ./...

test-scan:
	go test -cpu 1,2,4 -run 'TestParallel|TestSerialPass|TestCoresGating|TestSubDeque|TestKernelClassesBitIdentical|TestAlternatingFoldVariants|TestMirrorMatchesHash|TestFlushLimitMatchesOnEmit|TestFlushSplitsAtBatchMax|TestDrainOwnedMatchesScanDrain|TestFoldDeltaOwnedMatchesAtomic|TestPartitionNear|TestBucketSched|TestSessionEquivalence|TestSupportClosureProperty' ./internal/runtime ./internal/compiler ./internal/monotable

test-term:
	go test -cpu 1,2,4 -count=5 -run 'TestTerm|TestSessionEquivalence|TestCrossTransportEquivalence' ./internal/term ./internal/runtime

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' | sort | xargs awk ' \
		FNR == 1 { incomment = 0; dir = FILENAME; sub(/\/[^\/]*$$/, "", dir) } \
		{ line = $$0; sub(/^[ \t]+/, "", line) } \
		incomment { if (line ~ /\*\//) incomment = 0; next } \
		line == "" || line ~ /^\/\// { next } \
		line ~ /^\/\*/ { if (line !~ /\*\//) incomment = 1; next } \
		{ n[dir]++; total++ } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'

race:
	go test -race -short -cpu 1,4 ./internal/runtime/... ./internal/transport/... ./internal/monotable/... ./internal/ckpt/... ./internal/fault/... ./internal/metrics/... ./internal/edb/... ./internal/gen/... ./internal/server/... ./internal/graph/... ./internal/compiler/...

metrics-smoke:
	go run ./cmd/plbench -exp policymetrics -smoke -maxwall 60s

churn-smoke:
	go run ./cmd/plbench -exp churn -smoke -maxwall 60s

serve-smoke:
	go run ./cmd/plbench -exp serve -smoke -maxwall 60s

# Hot-path microbenches with allocation counts (BENCH_PR1.json records
# the tracked numbers), one per layer of the compute pass: the F' row
# kernel per class, the MonoTable folds and the per-key drain (root
# package, ns/edge and ns/key), the sender-side buffer in both backings
# (BenchmarkOutBuf, ns/add), the whole pass on worker 0 of a static fleet
# (BenchmarkScanPass, ns/edge), a cold SSSP fixpoint on plperf's chain
# graph under the bucket scheduler (BenchmarkRunChain: ms, KVs and passes
# per op), the codec, the metrics core, and the layers in front of the
# fixpoint on plperf's R-MAT inputs (BenchmarkLoadTSV ns/edge and allocs
# per load, BenchmarkCompile, BenchmarkCheck). BENCHTIME=1x is the
# compile-and-run smoke CI uses (bench-smoke) so none of them can rot.
BENCHTIME ?= 1s
bench:
	go test -run xxx -bench 'BenchmarkPropagate|BenchmarkMonoTable|BenchmarkDrainPass|BenchmarkLoadTSV|BenchmarkCompile|BenchmarkCheck' -benchmem -benchtime $(BENCHTIME) .
	go test -run xxx -bench 'BenchmarkScanPass|BenchmarkRunChain|BenchmarkOutBuf' -benchmem -benchtime $(BENCHTIME) ./internal/runtime/
	go test -run xxx -bench 'BenchmarkCodec' -benchmem -benchtime $(BENCHTIME) ./internal/transport/
	go test -run xxx -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve' -benchmem -benchtime $(BENCHTIME) ./internal/metrics/

bench-smoke:
	$(MAKE) bench BENCHTIME=1x
