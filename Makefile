# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race short bench bench-alloc chaos smoke experiments examples fmt vet clean loc

all: build test

build:
	$(GO) build ./...

# Default test gate: vet, the binaries' smoke runs, the
# allocation-regression gate, the full suite, then the
# chaos/reliability, sync and transport packages, the access path
# (nodecore, core), the run lifecycle (cluster), the trace ring and
# the written list with the engines that close it (mem, lrc, erc), the
# engines whose parallel request rounds are the runtime's CallBatched
# (sc, classic, ec alongside) and the payload cursor (wire) again under
# the race detector (their concurrency is the most delicate), and a
# short stress of the message path's ordering and
# hand-off tests (direct vs queued simnet delivery, the runtime's
# self-delivery, inline handlers), of sender-side delivery (a delivery
# chain re-entering a batch flush, inline chains across three nodes,
# frames that wait for Attach), of both transports' refusal of
# self-sends racing Close, of the TCP transport's fail-stop (a
# peer lost mid-stream closes Recv; an orderly Close does not), and of
# the lock-free read hit against every bracketed frame mutation, an
# sc invalidation and unaligned word stores, and of the cached lock
# token (local re-grants, read copies and their invalidation, upgrades,
# hand-offs, relays along the owners' chain, writers excluding readers),
# and of lrc's diff service (a reply encoding a page's diffs while the
# writer appends to them and barrier GC cuts them), and of the
# simulator's per-pair links under loss (exactly-once in-order delivery
# through drops, duplicates, spikes, partitions and stalls; the cluster's
# message and frame balances; chaos runs sending the fault-free
# protocol's exact counts), whose failures would be scheduling-dependent.
test: vet smoke bench-alloc
	$(GO) test ./... -timeout 1200s
	$(GO) test -race -timeout 900s ./internal/chaos ./internal/nodecore ./internal/dsync ./internal/core ./internal/simnet ./internal/transport/tcp ./internal/cluster ./internal/trace ./internal/mem ./internal/proto/lrc ./internal/proto/erc ./internal/proto/sc ./internal/proto/classic ./internal/proto/ec ./internal/wire
	$(GO) test -race -count=20 -run 'FIFO|SelfDeliver|Inline' ./internal/simnet ./internal/nodecore ./internal/dsync
	$(GO) test -race -count=20 -run 'Reentry|InlineChain|DirectDelivery|BeforeAttach|FIFO' ./internal/simnet ./internal/nodecore ./internal/dsync ./internal/transport/tcp
	$(GO) test -race -count=20 -run 'Conformance/SelfSendRejected' ./internal/simnet ./internal/transport/tcp
	$(GO) test -race -count=20 -run 'PeerLost|OrderlyClose' ./internal/transport/tcp
	$(GO) test -race -count=20 -run 'OptimisticRead|ReadHitSeesInvalidation|UnalignedWord' ./internal/mem ./internal/nodecore ./internal/core
	$(GO) test -race -count=20 -run 'Token|Reacquire|Shared|Upgrade|Handoff|Relay|Writer' ./internal/dsync ./internal/kv ./internal/proto/ec ./internal/proto/lrc
	$(GO) test -race -count=20 -run 'DiffReq|BarrierGC' ./internal/proto/lrc
	$(GO) test -race -count=20 -run 'Link|Partition|Conservation|FaultFreeProtocol' ./internal/simnet ./internal/cluster

# Allocation regression gate. The thresholds are checked into the
# tests themselves: the ZeroAlloc tests assert 0 allocs/op in steady
# state for the pooled encode/frame/diff paths (testing.AllocsPerRun
# with GC parked) and for the tracing layer both disabled (nil tracer,
# nil histograms — the default hot path) and enabled (ring emit,
# histogram observe), for the shared-memory local hit (a typed
# access or single-page ReadAt/WriteAt on a valid page), and for
# refreshing a twin in place; the
# AllocBudget tests hold an uncontended self-managed lock pair, an lrc
# release of one dirty page and the decode of a grant's interval list
# at their current counts. The
# benchmarks print current numbers for the paths that clone by design
# (receive-side decode), for a lock round trip (manager = self / = the
# peer), for that release on a 1 MiB and a 64 MiB heap, for an lrc
# diff request over 1k and 64k own intervals, and for the
# read hit from every goroutine at once on one page, where the
# lock-free hit must not contend.
bench-alloc:
	$(GO) test -run 'ZeroAlloc|AllocBudget' -count=1 ./internal/wire/ ./internal/mem/ ./internal/nodecore/ ./internal/trace/ ./internal/kv/ ./internal/metrics/ ./internal/dsync/ ./internal/proto/lrc/
	$(GO) test -run '^$$' -bench 'Encode|DecodeInto|PackBatch|AppendDiff|ApplyDiff|FrameRoundTrip|ReadHit|ReadHitParallel|WriteHit|EmitDisabled|EmitEnabled|AccessEmit|HistObserve|KVOpRecord|SampleOnce|PromWrite|LockLocal|LockRemoteSim|ReleaseOneDirtyPage|DiffReq' \
		-benchtime 1000x -benchmem -timeout 300s ./internal/wire/ ./internal/mem/ ./internal/nodecore/ ./internal/transport/tcp/ ./internal/trace/ ./internal/kv/ ./internal/metrics/ ./internal/dsync/ ./internal/proto/lrc/

short:
	$(GO) test ./... -short -timeout 600s

race:
	$(GO) test ./... -race -short -timeout 1800s

bench:
	$(GO) test -bench=. -benchmem -timeout 1800s ./...

# Run the fault-injection correctness matrix under the race detector.
chaos:
	$(GO) test -race -run TestChaos -v -timeout 900s ./internal/chaos

# Smoke runs of the binaries themselves (everything else the test
# suite covers in-process). A 3-process cluster over TCP loopback
# computes SOR under sequential and lazy release consistency; node 0
# diffs the shared result against the sequential reference
# (verify=ok, or the run exits nonzero). Then the race checker's
# seeded positives must be flagged (page-granularity races under EC,
# false sharing under LRC, the BreakCoherence SC violation even under
# chaos) and data-race-free workloads must come back clean.
smoke:
	$(GO) run ./cmd/dsmrun -transport tcp -nodes 3 -app sor -proto sc-fixed
	$(GO) run ./cmd/dsmrun -transport tcp -nodes 3 -app sor -proto lrc
	$(GO) run ./cmd/dsmtrace -races -scenario falseshare -proto ec -expect race
	$(GO) run ./cmd/dsmtrace -races -scenario falseshare -proto lrc -expect sharing
	$(GO) run ./cmd/dsmtrace -races -scenario sor -proto sc-fixed -expect clean
	$(GO) run ./cmd/dsmtrace -races -scenario kvstore -proto lrc -expect clean
	$(GO) run ./cmd/dsmtrace -races -scenario broken -proto sc-fixed -chaos -expect violation

# Regenerate every experiment table and figure (EXPERIMENTS.md records
# their shapes; performance is BENCHMARK.json + `bash benchmark/run.sh`).
experiments:
	$(GO) run ./cmd/dsmbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sor -rows 48 -cols 48 -iters 4
	$(GO) run ./examples/taskqueue -tasks 60 -work 500
	$(GO) run ./examples/tsp -cities 7
	$(GO) run ./examples/pipeline

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt

# Non-test Go lines outside the benchmark: the numbers a simplification
# PR quotes before and after — all lines, then code lines (neither
# blank nor comment-only), so deleting comments shows as no reduction.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | \
		awk '{ n++ } !/^[ \t]*(\/\/|$$)/ { c++ } END { print n; print c " code" }'
