# `make check` is tier-1 verification: what CI (.github/workflows/ci.yml)
# and ROADMAP's verify step run.
#
#   vet, build, test   go vet / go build / go test over ./...
#   lint               the repo-local analyzers of internal/lint (cmd/plvet);
#                      `go test ./internal/lint` runs the same checks
#   test-cpu1          the whole suite at one core (its own CI step)
#   test-scan          compute-pass, bucket-scheduler, session-oracle and
#                      stop-path tests (DESIGN.md §9, §5b, §10) at 1, 2 and
#                      4 procs
#   test-term          the termination detector's tests (internal/term and
#                      the runtime's) and the fence rig's, five times at 1,
#                      2 and 4 procs
#   test-names         fails when a name in either -run list above selects
#                      no test — a renamed test would otherwise drop out of
#                      its gate silently (until ROADMAP 1e deletes the lists)
#   race               the packages on the message path, checkpointing, fault
#                      injection, metrics, sessions, the server and the set-up
#                      path under the race detector at -cpu 1,4; -short trims
#                      the chaos matrix to its representative subset
#   benchmark          vet and test the plperf module (benchmark/) against
#                      this engine
#   bench, bench-smoke the per-layer micro-benchmarks; once each as CI's rot
#                      guard
#   loc                non-test, non-comment, non-blank Go lines per package:
#                      `make -f $PWD/Makefile -C <other checkout> loc`; fails
#                      when the total is over the 20 000-line cap (ROADMAP 11)
.PHONY: check build vet lint test test-cpu1 test-scan test-term test-names race benchmark bench bench-smoke loc

check: vet lint build test test-scan test-term race benchmark

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

SCAN_TESTS = TestParallel TestSerialPass TestCoresGating TestSubDeque TestKernelClassesBitIdentical TestAlternatingFoldVariants TestMirrorMatchesHash TestFlushLimitMatchesOnEmit TestFlushSplitsAtBatchMax TestDrainOwnedMatchesScanDrain TestFoldDeltaOwnedMatchesAtomic TestOwnedRowMatchesPerEdge TestPartitionNear TestBucketSched TestSessionEquivalence TestSupportClosureProperty TestDeltaMatchesFullScanOracle TestApplyMutationBytesFollowBatch TestDeltaWorkFollowsBatch TestSessionRefuses TestMaxWallAbortReturns
SCAN_PKGS = ./internal/runtime ./internal/compiler ./internal/monotable
TERM_TESTS = TestTerm TestSessionEquivalence TestCrossTransportEquivalence TestFence
TERM_PKGS = ./internal/term ./internal/runtime

# alternation turns a list of names into a -run regexp.
space := $(subst ,, )
alternation = $(subst $(space),|,$(strip $(1)))

test-scan: test-names
	go test -cpu 1,2,4 -run '$(call alternation,$(SCAN_TESTS))' $(SCAN_PKGS)

test-term: test-names
	go test -cpu 1,2,4 -count=5 -run '$(call alternation,$(TERM_TESTS))' $(TERM_PKGS)

# names-ok fails unless each name in $(1) selects a test of the packages $(2).
define names-ok
	@names=$$(go test -list Test $(2)) || exit 1; for t in $(1); do \
		echo "$$names" | grep -q "$$t" || { echo "test-names: -run '$$t' selects no test in $(2)" >&2; exit 1; }; done
endef

test-names:
	$(call names-ok,$(SCAN_TESTS),$(SCAN_PKGS))
	$(call names-ok,$(TERM_TESTS),$(TERM_PKGS))

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' | sort | xargs awk ' \
		FNR == 1 { incomment = 0; dir = FILENAME; sub(/\/[^\/]*$$/, "", dir) } \
		{ line = $$0; sub(/^[ \t]+/, "", line) } \
		incomment { if (line ~ /\*\//) incomment = 0; next } \
		line == "" || line ~ /^\/\// { next } \
		line ~ /^\/\*/ { if (line !~ /\*\//) incomment = 1; next } \
		{ n[dir]++; total++ } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total; \
			if (total > 20000) { print "loc: " total " lines, over the 20000-line cap" > "/dev/stderr"; exit 1 } }'

race:
	go test -race -short -cpu 1,4 ./internal/runtime/... ./internal/transport/... ./internal/monotable/... ./internal/ckpt/... ./internal/fault/... ./internal/metrics/... ./internal/edb/... ./internal/gen/... ./internal/server/... ./internal/graph/... ./internal/compiler/...

benchmark:
	cd benchmark && go vet ./... && go test ./...

# One micro-benchmark per layer of the compute pass, with allocation
# counts: the F' row kernel per class, the MonoTable folds and the per-key
# drain (root package, ns/edge and ns/key), the sender-side buffer in both
# backings (BenchmarkOutBuf, ns/add), the whole pass on worker 0 of a static
# fleet (BenchmarkScanPass, ns/edge), a cold SSSP fixpoint on plperf's chain
# graph under the bucket scheduler (BenchmarkRunChain: ms, KVs and passes
# per op), one Session.Apply per batch shape at plperf's churn size
# (BenchmarkSessionApply, -cpu 2: ms, rounds, edges read and border rows
# per op), the codec, the metrics core, and the layers in front of the
# fixpoint on plperf's R-MAT inputs (BenchmarkLoadTSV ns/edge and allocs
# per load, BenchmarkCompile, BenchmarkCheck).
BENCHTIME ?= 1s
bench:
	go test -run xxx -bench 'BenchmarkPropagate|BenchmarkMonoTable|BenchmarkDrainPass|BenchmarkLoadTSV|BenchmarkCompile|BenchmarkCheck' -benchmem -benchtime $(BENCHTIME) .
	go test -run xxx -bench 'BenchmarkScanPass|BenchmarkRunChain|BenchmarkOutBuf' -benchmem -benchtime $(BENCHTIME) ./internal/runtime/
	go test -run xxx -bench 'BenchmarkSessionApply' -cpu 2 -benchmem -benchtime $(BENCHTIME) ./internal/runtime/
	go test -run xxx -bench 'BenchmarkCodec' -benchmem -benchtime $(BENCHTIME) ./internal/transport/
	go test -run xxx -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve' -benchmem -benchtime $(BENCHTIME) ./internal/metrics/

bench-smoke:
	$(MAKE) bench BENCHTIME=1x
