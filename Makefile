GO ?= go

.PHONY: ci fmt vet build test race fuzz bench-smoke bench-harness-smoke trace-smoke invariant-smoke trace-golden examples-smoke examples-golden snap-smoke cache-smoke scale-smoke controller-smoke server-smoke recover-smoke gateway-smoke bench-gate clean

## ci: everything the driver checks — gofmt, vet, build, race-enabled
## tests, a short fuzz pass over the wire codecs, a one-shot large-scale
## figure smoke run, the bench/ harness's own smoke (its compile-time
## surface on this module), the telemetry pipeline smoke test, the
## fault-free invariant smoke, the examples' output goldens, the snapshot round-trip smoke test, the shared formation cache smoke, a short
## 10k-node run on the sparse medium, the controller-layer smoke
## (four-way chaos with recovery asserted), the simulation-service
## end-to-end smoke, the crash-recovery smoke, and the gateway
## fault-tolerance smoke.
ci: fmt vet build race fuzz bench-smoke bench-harness-smoke trace-smoke invariant-smoke examples-smoke snap-smoke cache-smoke scale-smoke controller-smoke server-smoke recover-smoke gateway-smoke

## fmt: fail when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: brief native-fuzzing passes over every decoder of outside bytes —
## MAC frames, the DiGS join payloads, telemetry JSONL and the packed
## telemetry backlog entry, snapshots, generated
## topology names, the server journal and the SSE event stream — and over
## the capture decision's bounds against the SIR it stands in for (go test
## allows one -fuzz pattern per package invocation).
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/mac
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalJoinIn -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalJoinedCallback -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzScanJSONL -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzPackedEvent -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzGenerate -fuzztime=$(FUZZTIME) ./internal/topology
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzEventReader -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzCaptures -fuzztime=$(FUZZTIME) ./internal/phy

## bench-smoke: run the heaviest figure, Fig. 12's 150-node study under
## both stacks, once to catch bit-rot without paying for a full campaign.
bench-smoke:
	$(GO) run ./cmd/digs-bench -fig 12 >/dev/null

## bench-harness-smoke: bench/ is a module of its own that compiles
## against this one (sc.NW, sc.MACNode, sc.Take, snapshot.Encode/Decode/
## Cache, scenario.BuildFromMeta); its smoke tests fail here before the
## benchmark pipeline runs a harness that no longer builds.
bench-harness-smoke:
	cd bench && $(GO) test ./...

## trace-smoke: run a short Figure 4 slice with packet-lifecycle tracing
## on, replay the trace through digs-trace, and diff the report against the
## checked-in golden — catches schema drift, nondeterminism and broken hook
## points in one pass.
TRACE_SMOKE_JSONL := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-trace-smoke.jsonl
trace-smoke:
	$(GO) run ./cmd/digs-bench -fig 4 -smoke -seed 42 -trace $(TRACE_SMOKE_JSONL) >/dev/null
	$(GO) run ./cmd/digs-trace -per-flow $(TRACE_SMOKE_JSONL) | diff -u testdata/trace_smoke_golden.txt -
	@echo trace-smoke: OK

## trace-golden: regenerate the trace-smoke golden report after an
## intentional schema or instrumentation change.
trace-golden:
	$(GO) run ./cmd/digs-bench -fig 4 -smoke -seed 42 -trace $(TRACE_SMOKE_JSONL) >/dev/null
	$(GO) run ./cmd/digs-trace -per-flow $(TRACE_SMOKE_JSONL) > testdata/trace_smoke_golden.txt

## invariant-smoke: a fault-free minute on half of Testbed A with the
## invariant monitor on, per stack, and each trace gated by digs-doctor
## -strict -recheck: zero violations, recorded or re-detected, at the
## monitor's fixed thresholds. sdn is left out: the same run reports three
## orphan violations (nodes 3, 8 and 11, from 2m56s) and six watchdog
## repairs, an open finding on the sdn stack rather than a threshold to
## tune.
INVARIANT_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-invariant-smoke
INVARIANT_SMOKE := digs orchestra whart adaptive
invariant-smoke:
	rm -rf $(INVARIANT_SMOKE_DIR) && mkdir -p $(INVARIANT_SMOKE_DIR)
	$(GO) build -o $(INVARIANT_SMOKE_DIR)/ ./cmd/digs-sim ./cmd/digs-doctor
	cd $(INVARIANT_SMOKE_DIR) && for p in $(INVARIANT_SMOKE); do \
		./digs-sim -topology half-testbed-a -protocol $$p -duration 60s -invariants -trace $$p.jsonl >/dev/null \
		&& ./digs-doctor -strict -recheck $$p.jsonl >/dev/null || exit 1; done
	@echo invariant-smoke: OK

## examples-smoke: run the hand-driven examples and the WirelessHART failure
## figure, and diff each output against its checked-in golden — the
## examples build and feed their networks through internal/scenario, and a
## byte that moves here moved the walkthroughs the README points at.
EXAMPLES_SMOKE := quickstart actuation oilfield
examples-smoke:
	@for ex in $(EXAMPLES_SMOKE); do \
		$(GO) run ./examples/$$ex | diff -u testdata/examples/$$ex.txt - || exit 1; done
	$(GO) run ./cmd/digs-bench -fig whart | diff -u testdata/examples/whart.txt -
	@echo examples-smoke: OK

## examples-golden: regenerate the examples-smoke goldens after an
## intentional change to what the examples print.
examples-golden:
	for ex in $(EXAMPLES_SMOKE); do $(GO) run ./examples/$$ex > testdata/examples/$$ex.txt || exit 1; done
	$(GO) run ./cmd/digs-bench -fig whart > testdata/examples/whart.txt

## snap-smoke: prove checkpoint/restore bit-identity across processes —
## snapshot a half-formed network, resume it for 2000 more slots, and
## byte-compare the result against a straight-through run that never
## stopped (labels must match: the label is part of the snapshot). Once on
## the dense medium and once on the sparse one; on both, a capture ends
## every nap, so the mid-run snapshot carries no nap vectors from one
## process to the next. First, the checked-in version-3 file must still
## decode.
SNAP_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-snap-smoke
snap-smoke:
	rm -rf $(SNAP_SMOKE_DIR) && mkdir -p $(SNAP_SMOKE_DIR)
	$(GO) build -o $(SNAP_SMOKE_DIR)/ ./cmd/digs-snap
	$(SNAP_SMOKE_DIR)/digs-snap info internal/scenario/testdata/half-testbed-a-whart-v3.snap
	cd $(SNAP_SMOKE_DIR) && for topo in half-testbed-a gen-plant-300-1; do \
		./digs-snap take -topology $$topo -protocol digs -seed 9 -slots 3000 -o $$topo.mid.snap >/dev/null \
		&& ./digs-snap resume -snap $$topo.mid.snap -slots 2000 -label golden -o $$topo.resumed.snap >/dev/null \
		&& ./digs-snap take -topology $$topo -protocol digs -seed 9 -slots 5000 -label golden -o $$topo.straight.snap >/dev/null \
		&& cmp $$topo.resumed.snap $$topo.straight.snap || exit 1; done
	@echo snap-smoke: OK

## cache-smoke: the formation cache is one format under one key, whoever
## writes it (scenario.Form). In one directory a figure campaign populates
## it, then digs-chaos and digs-sim -spec warm-start from it; in a second
## directory the order is reversed; every output must equal its cold run,
## and digs-sim in the first order must report a warm hit (on an entry it
## did not write). A second spec, WirelessHART on random-150, whose config
## hash covers the build-time random flow set, runs cold, then in both
## orders, then warm from the first directory (a hit on its own entry).
## A digs-sim flag run of the first spec's scenario must print that spec's
## hash and the cold run's result hash, and the canonical spec it prints,
## piped back into digs-sim -spec -warm, must warm-start to the same bytes.
CACHE_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)/digs-cache-smoke
CACHE_SMOKE_SPEC := {"topology":"testbed-a","protocol":"orchestra","seed":1,"window":"20s"}
CACHE_SMOKE_SPEC2 := {"topology":"random-150","protocol":"whart","seed":1,"window":"20s"}
cache-smoke:
	rm -rf $(CACHE_SMOKE_DIR) && mkdir -p $(CACHE_SMOKE_DIR)
	$(GO) build -o $(CACHE_SMOKE_DIR)/ ./cmd/digs-bench ./cmd/digs-chaos ./cmd/digs-sim
	cd $(CACHE_SMOKE_DIR) && ./digs-bench -fig 9 >fig9.cold && ./digs-chaos -plan fig8 >chaos.cold \
		&& echo '$(CACHE_SMOKE_SPEC)' | ./digs-sim -spec - >spec.cold 2>spec.cold.err \
		&& echo '$(CACHE_SMOKE_SPEC2)' | ./digs-sim -spec - >spec2.cold 2>/dev/null
	cd $(CACHE_SMOKE_DIR) && ./digs-bench -fig 9 -snap-cache d1 >fig9.d1 && ./digs-chaos -plan fig8 -snap-cache d1 >chaos.d1 \
		&& echo '$(CACHE_SMOKE_SPEC)' | ./digs-sim -spec - -warm d1 >spec.d1 2>last.d1 \
		&& echo '$(CACHE_SMOKE_SPEC2)' | ./digs-sim -spec - -warm d1 >spec2.d1 2>/dev/null
	cd $(CACHE_SMOKE_DIR) && echo '$(CACHE_SMOKE_SPEC2)' | ./digs-sim -spec - -warm d2 >spec2.d2 2>/dev/null \
		&& echo '$(CACHE_SMOKE_SPEC)' | ./digs-sim -spec - -warm d2 >spec.d2 2>/dev/null \
		&& ./digs-chaos -plan fig8 -snap-cache d2 >chaos.d2 && ./digs-bench -fig 9 -snap-cache d2 >fig9.d2
	cd $(CACHE_SMOKE_DIR) && echo '$(CACHE_SMOKE_SPEC2)' | ./digs-sim -spec - -warm d1 >spec2.warm 2>last2.warm
	cd $(CACHE_SMOKE_DIR) && ./digs-sim -topology testbed-a -protocol orchestra -seed 1 -duration 20s >flag.out 2>flag.err \
		&& grep '^{' flag.err | ./digs-sim -spec - -warm d1 >flag.d1 2>flag.d1.err
	cd $(CACHE_SMOKE_DIR) && test "$$(grep '^spec ' flag.err)" = "$$(grep '^spec ' spec.cold.err)" \
		&& test "$$(grep '^result ' flag.err | cut -d' ' -f2)" = "$$(grep '^result ' spec.cold.err | cut -d' ' -f2)" \
		&& test "$$(grep '^result ' flag.d1.err | cut -d' ' -f2)" = "$$(grep '^result ' spec.cold.err | cut -d' ' -f2)"
	grep -q warm_hit=true $(CACHE_SMOKE_DIR)/flag.d1.err
	cmp $(CACHE_SMOKE_DIR)/spec.cold $(CACHE_SMOKE_DIR)/flag.d1
	grep -q warm_hit=true $(CACHE_SMOKE_DIR)/last.d1
	grep -q warm_hit=true $(CACHE_SMOKE_DIR)/last2.warm
	cd $(CACHE_SMOKE_DIR) && for f in fig9 chaos spec spec2; do cmp $$f.cold $$f.d1 && cmp $$f.cold $$f.d2 || exit 1; done
	cmp $(CACHE_SMOKE_DIR)/spec2.cold $(CACHE_SMOKE_DIR)/spec2.warm
	@echo cache-smoke: OK

## scale-smoke: spin up a procedurally generated 10k-node deployment on
## the sparse medium and step it briefly under DiGS and Orchestra —
## catches engine bit-rot at a scale the dense matrix cannot represent.
## WirelessHART is excluded by design: its centralised manager computes
## the whole schedule up front, which is exactly the scaling limit the
## paper's distributed approach removes. The slot loop's own tests on
## both media and the properties its shortcuts rest on (every stack's
## NextActive against its own Assignment, the written-out schedules of the
## RPL node, adaptive and sdn against the per-frame combination they were
## written out from, nap ≡ no-nap from a cold start, the
## transmitter-driven gather's hearing lists against the listeners' row
## scans and the wake wheel against the heap it replaced, standing scans
## through rouses, drift, crashes and captures, the closed-form accrual,
## the DiGS cell table against the router, the cached noise floor and the
## PRR saturation shortcut against the per-call formulas, the fading-draw
## cut-off and the capture bounds against the finished draw and SIRdB,
## the cells' lookup hints and the ETX cursor, the loop's own counts,
## RunUntil's jump and Form against a slot-by-slot reference, the kept
## join count against a walk, the sparse metrics/trace/event-order pins,
## dense results pinned before the dense medium could nap, the one-goroutine guard, the shared
## shadowing memo, the ascending-ID neighbour table against a map and its
## zero-allocation pins, the DiGS and RPL parent choice, the sdn
## controller's graph, paths and configurations and the jammers' channel
## bitmasks against their map-based references, and the guard that keeps
## map-typed fields off the stacks' slot path) run race-enabled first:
## one goroutine steps a network, but concurrent
## builds share the shadowing memo, and a race there must fail here, not
## as a benchmark digest.
scale-smoke:
	$(GO) test -race -run 'Scale|Nap|NextActive|SparseGather|WakeWheel|SchedulerFollowsRouter|SIRdB|PRRSaturated|FadeReach|Captures|CellsAgainstMap|Cursor|StandingScan|AddRepeated|LoopCounts|DenseResultsPinned|OneGoroutine|ShadowMemo|ConcurrentNetworkBuilds|Table|MapReference|NoMapFields|RunUntilSemantics|FormMatchesSlotBySlot|JoinedCountKept' \
		./internal/sim ./internal/core ./internal/mac ./internal/phy ./internal/rpl ./internal/orchestra \
		./internal/whart ./internal/controller ./internal/topology ./internal/scenario \
		./internal/link ./internal/interference
	$(GO) run ./cmd/digs-bench -scale-smoke
	@echo scale-smoke: OK

## controller-smoke: the pluggable controller layer end to end —
## race-enabled controller and registry tests, the adaptive and sdn sparse
## pins (TestControllerScaleShardBitIdentity), the digs-chaos and digs-snap
## tests (a chaos job is a RunSpec run; a resumed plan prints the rows of
## the warm chaos job), then a mini four-way chaos run (digs / orchestra /
## whart / sdn on the fig8 plan) that fails if a fault never reconverges
## inside its window — including the centralized sdn stack, whose recovery
## must come from the controller's in-band recollect + redistribute cycle,
## not local repair.
controller-smoke:
	$(GO) test -race ./internal/controller/
	$(GO) test -race -run 'TestStackRegistry|TestSpecHashGolden|TestControllerScaleShardBitIdentity' ./internal/scenario/
	$(GO) test -race ./cmd/digs-chaos ./cmd/digs-snap
	$(GO) run ./cmd/digs-chaos -plan fig8 -topology testbed-a -duration 30s -require-recovery >/dev/null
	@echo controller-smoke: OK

## server-smoke: the simulation service end to end, race-enabled —
## submit over HTTP, follow the SSE stream to completion, verify the
## result hash and the content-addressed store round-trip, demand a cache
## hit on resubmission, byte-compare the server's result and its SSE
## telemetry lines against a direct in-process run of the same spec on
## both engines, live and replayed, hold the telemetry backlog to O(1)
## per record past its cap with concurrent followers, and to no allocation
## per record when nobody follows it, and hold a stream to two flushes per
## replay without ever keeping a line back while it waits.
server-smoke:
	$(GO) test -race -count=1 -run 'TestSubmitStreamResult|TestDuplicateSubmissionServedFromCache|TestServerMatchesDirectRun|TestClient|TestRetryAfter|TestBroadcastPastCapIsConstant|TestBroadcastConcurrentFollowers|TestBroadcastRecordAllocatesNothing|TestStreamFlushBudget|TestStreamHoldsNoLineWhileWaiting' ./internal/server
	$(GO) test -race -count=1 -run 'TestStreamMatchesDirectTrace' ./internal/gateway
	$(GO) test -race -count=1 -run 'TestPacked|TestBatch|TestBacklog' ./internal/telemetry

## recover-smoke: the crash-safety contract end to end — race-enabled
## journal, dead-letter, crash-loop-guard and degraded-mode tests, then
## the real process: build digs-server, SIGKILL it mid-burst, restart on
## the same data directory, and fail unless every acknowledged job reaches
## done with verified result bytes (zero accepted jobs lost).
recover-smoke:
	$(GO) test -race -count=1 -run 'Journal|Replay|DeadLetter|CrashLoop|Panic|Degraded|Recover|Quarantine|TestCrashLosesNoAcceptedJob' ./internal/server ./cmd/digs-server

## gateway-smoke: the fault-tolerant front tier end to end — race-enabled
## gateway and fault-proxy tests (routing, breakers, replication,
## read-repair, SSE failover reattach, the failover matrix that partitions
## each replica rank mid-burst and demands eviction within the probe budget
## and zero surfaced errors, the SSE lines equal to the direct trace),
## then the real 1-gateway/3-backend tier that SIGKILLs the busiest
## backend mid-burst and fails unless every acknowledged job reaches done
## with verified result bytes, and last the backends' telemetry backlog
## under concurrent followers and past its cap.
gateway-smoke:
	$(GO) test -race -count=1 ./internal/gateway/... ./cmd/digs-gateway
	$(GO) test -race -count=1 -run 'TestBroadcastPastCapIsConstant|TestBroadcastConcurrentFollowers' ./internal/server

## bench-gate: the repo's benchmark (BENCHMARK.json): four workloads,
## every op verified, end-to-end and per-layer metrics. Kept out of `ci`:
## wall-clock numbers belong on dedicated runners, not shared machines.
bench-gate:
	bash bench/run.sh

clean:
	$(GO) clean ./...
