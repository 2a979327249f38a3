# `make check` is tier-1 verification: what CI (.github/workflows/ci.yml)
# and ROADMAP's verify step run.
#
#   vet, build, test   go vet / go build / go test over ./...
#   test-cpu1          the whole suite at one core (its own CI step)
#   test-scan          compute-pass, admission-drain, bucket-scheduler,
#                      session-oracle and stop-path tests (DESIGN.md §9,
#                      §5b, §10) at 1, 2 and 4 procs
#   test-term          the termination detector's tests (internal/term and
#                      the runtime's) and the fence rig's, five times at 1,
#                      2 and 4 procs
#   test-names         fails when a name in either -run list above selects
#                      no test — a renamed test would otherwise drop out of
#                      its gate silently (until ROADMAP item 4(c) deletes the lists)
#   race               the packages on the message path, fault injection,
#                      metrics, sessions, the server, the set-up
#                      path, the aggregate atomics (agg) and the comparator
#                      engines (graphsys) under the race detector at -cpu 1,4,
#                      so a worker's compute and comm goroutines, the master
#                      and a session's caller interleave with real preemption
#                      and a shard touched outside its owner's handovers
#                      (DESIGN.md §9) is reported; -short trims the chaos
#                      matrix to its representative subset
#   benchmark          vet and test the plperf module (benchmark/) against
#                      this engine
#   bench, bench-smoke the per-layer micro-benchmarks; once each as CI's rot
#                      guard
#   loc                non-test, non-comment, non-blank Go lines per package:
#                      `make -f $PWD/Makefile -C <other checkout> loc`; fails
#                      when the total is over the 20 000-line cap (ROADMAP aim 3,
#                      item 13)
.PHONY: check build vet test test-cpu1 test-scan test-term test-names race benchmark bench bench-smoke loc

check: vet build test test-scan test-term race benchmark

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

test-cpu1:
	go test -cpu 1 ./...

SCAN_TESTS = TestParallel TestStatsPollReadsEveryFold TestShardRouteSplit TestWorkerRefusesForeignKey TestBarrierMirrorFlushesOnce TestKernelClassesBitIdentical TestMirrorMatchesHash TestFlushLimitMatchesOnEmit TestSelectiveFlushesPerPass TestFlushSplitsAtBatchMax TestDrainAdmittedMatchesScanDrain TestFoldDeltaOwnedMatchesAtomic TestOwnedRowMatchesPerEdge TestAdmitNear TestAdmitDrainMatchesRefold TestBucketSched TestSessionEquivalence TestSupportClosureProperty TestDeltaMatchesFullScanOracle TestApplyMutationBytesFollowBatch TestDeltaWorkFollowsBatch TestSessionRefuses TestMaxWallAbortReturns
SCAN_PKGS = ./internal/runtime ./internal/compiler ./internal/monotable
TERM_TESTS = TestTerm TestSessionEquivalence TestCrossTransportEquivalence TestFence TestStepGateReadsReportForS TestMasterKeepsLaterStepAcks TestStepVerdictsAgree TestChaosNaiveSync TestRejoinWindows
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
	go test -race -short -cpu 1,4 ./internal/runtime/... ./internal/transport/... ./internal/monotable/... ./internal/fault/... ./internal/metrics/... ./internal/edb/... ./internal/gen/... ./internal/server/... ./internal/graph/... ./internal/compiler/... ./internal/graphsys/... ./internal/agg/...

benchmark:
	cd benchmark && go vet ./... && go test ./...

# One micro-benchmark per layer of the compute pass, with allocation
# counts: the F' row kernel per class, the MonoTable folds and the per-key
# drain (root package, ns/edge and ns/key), the sender-side mirror
# (BenchmarkOutBuf, ns/add), the whole pass on worker 0 of a static
# fleet (BenchmarkScanPass, ns/edge), ROADMAP item 17's COST floor
# (BenchmarkFloor: a plain single-thread delta-push PageRank beside the
# engine's MRA+Sync fixpoint at 1 and 2 workers, ms and rounds per op), a
# cold SSSP fixpoint on plperf's chain graph under the bucket scheduler
# (BenchmarkRunChain: ms, KVs and passes per op), one Session.Apply per
# batch shape at plperf's churn size (BenchmarkSessionApply, -cpu 2: ms,
# rounds, edges read and border rows per op), the codec, the metrics core, and the layers in front of the
# fixpoint on plperf's R-MAT inputs (BenchmarkLoadTSV ns/edge and allocs
# per load, BenchmarkSortRows — the in-place sort by target a plan's
# first fixpoint runs, on each workload graph — BenchmarkCompile — the views
# folded a CSR row at a time, node a range of the vertices — and
# BenchmarkCheck).
BENCHTIME ?= 1s
bench:
	go test -run xxx -bench 'BenchmarkPropagate|BenchmarkMonoTable|BenchmarkDrainPass|BenchmarkLoadTSV|BenchmarkSortRows|BenchmarkCompile|BenchmarkCheck' -benchmem -benchtime $(BENCHTIME) .
	go test -run xxx -bench 'BenchmarkScanPass|BenchmarkFloor|BenchmarkRunChain|BenchmarkOutBuf' -benchmem -benchtime $(BENCHTIME) ./internal/runtime/
	go test -run xxx -bench 'BenchmarkSessionApply' -cpu 2 -benchmem -benchtime $(BENCHTIME) ./internal/runtime/
	go test -run xxx -bench 'BenchmarkCodec' -benchmem -benchtime $(BENCHTIME) ./internal/transport/
	go test -run xxx -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve' -benchmem -benchtime $(BENCHTIME) ./internal/metrics/

bench-smoke:
	$(MAKE) bench BENCHTIME=1x
