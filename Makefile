GO ?= go

# PROFILE=1 makes every bench target drop CPU and heap profiles under
# profiles/ (one pair per bench invocation), ready for `go tool pprof`.
# The $(call profflags,name) helper expands to nothing otherwise.
ifeq ($(PROFILE),1)
profflags = -cpuprofile $(CURDIR)/profiles/$(1).cpu.pprof -memprofile $(CURDIR)/profiles/$(1).heap.pprof -o $(CURDIR)/profiles/$(1).test
profdir = @mkdir -p $(CURDIR)/profiles
else
profflags =
profdir = @true
endif

.PHONY: all build vet fmt-check staticcheck test race chaos bench bench-build bench-fulltable bench-policy bench-federation fuzz-smoke check docs lines

all: check

build:
	$(GO) build ./...

# bench/ is its own module (`replace peering => ../`) that the pipeline
# builds from this tree: compile and vet it here, so a change that
# breaks its build against internal/ fails this gate first. Its tests
# stay out until ROADMAP item 1 has them green.
bench-build:
	cd bench && $(GO) build ./... && $(GO) vet ./...

vet:
	$(GO) vet ./...

# gofmt is part of the gate: a file it would rewrite fails the check
# (bench/ is its own module but shares the tree, so it is covered too).
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi
	@echo "fmt-check: gofmt clean"

# staticcheck is advisory tooling, not a baked-in dependency: run it
# when the binary is on PATH, skip cleanly (never install) when not.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping"; \
	fi

test:
	$(GO) test ./...

# The resilience layer is concurrency-heavy (supervisors, virtual-clock
# timer cascades, fault-injected transports); keep the race detector in
# the default gate.
race:
	$(GO) test -race ./...

# The orchestrated chaos suite (DESIGN.md §8): a 1-upstream × 8-client
# mux under malformed floods, quota breaches, slow-client stalls, and
# kill/warm-restart cycles — deterministic on the virtual clock, so
# -race and -count=2 cost seconds, not flake. The federation scenarios
# (DESIGN.md §14) add backhaul partitions and remote-peering L2 flaps
# across a three-mux mesh. The timeout is what turns a stopped virtual
# clock (a write made from a timer callback, DESIGN.md §9 "Who writes")
# into a goroutine dump after two minutes instead of the default ten.
# The join and replay-slot tests ride along at -count=5: joiners,
# flushers, ingest writers, sweeps, scrapes and Close all reach a
# shard's replay slot (DESIGN.md §15), and which of them gets there
# first differs run to run.
chaos:
	$(GO) test ./internal/server/ -race -run '^TestChaos' -count=2 -v -timeout 120s
	$(GO) test ./internal/server/ -race -run '^TestReplaySlot|^TestJoin' -count=5 -timeout 120s
	$(GO) test ./internal/federation/ -race -run '^TestChaos' -count=2 -v -timeout 120s

# Fan-out pipeline benchmarks. The acceptance tests measure UPDATE
# messages spent relaying a 1000-route table to 8 clients
# (BENCH_fanout.json) and the allocation cost of the same scenario
# (BENCH_hotpath.json, with the committed pre-PR baseline alongside).
# BenchmarkTunnelForward is the data-plane path, one packet per op;
# BenchmarkChurnFanout is the steady-state control path, one
# single-NLRI UPDATE reaching one of 16 clients per op.
bench: bench-fulltable bench-policy bench-federation
	$(profdir)
	BENCH_FANOUT_JSON=$(CURDIR)/BENCH_fanout.json $(GO) test ./internal/server/ -run TestFanoutMessageReduction -count=1 -v $(call profflags,fanout)
	BENCH_HOTPATH_JSON=$(CURDIR)/BENCH_hotpath.json $(GO) test ./internal/server/ -run TestRelayHotPathAllocs -count=1 -v $(call profflags,hotpath)
	$(GO) test ./internal/server/ -run '^$$' -bench 'BenchmarkFanoutThroughput|BenchmarkReplayLatency' -benchtime=50x -count=1
	$(GO) test ./internal/server/ -run '^$$' -bench 'BenchmarkTunnelForward' -benchtime=500000x -count=1
	$(GO) test ./internal/server/ -run '^$$' -bench 'BenchmarkChurnFanout' -benchtime=2000000x -count=1
	BENCH_REPLAY_JSON=$(CURDIR)/BENCH_replay.json $(GO) test . -run TestReplayBenchmark -count=1 -v $(call profflags,replay)

# The Internet-scale ingestion run (DESIGN.md §12): a ≥1M-prefix table
# from internet.FullTableSpec, serialized as an MRT trace and replayed
# at max speed into one mux with 64 count-only clients attached.
# BENCH_fulltable.json records ingestion rate, fan-out convergence time,
# and the steady-state heap. The same test runs as a ~25K-prefix smoke
# in the plain `make test` / `make race` gates. The scaling run replays
# a mid-scale table at GOMAXPROCS 1, 4, and the machine default so the
# headline number carries its parallelism curve
# (BENCH_fulltable_scaling.json).
bench-fulltable:
	$(profdir)
	BENCH_FULLTABLE_JSON=$(CURDIR)/BENCH_fulltable.json $(GO) test . -run TestFullTableIngestion -count=1 -v -timeout 30m $(call profflags,fulltable)
	BENCH_FULLTABLE_SCALING_JSON=$(CURDIR)/BENCH_fulltable_scaling.json $(GO) test . -run TestFullTableScaling -count=1 -v -timeout 30m $(call profflags,fulltable_scaling)

# The compiled safety-filter benchmark (DESIGN.md §13): verdicts over a
# 16K-prefix / 8K-ROA / Peerlock rule set against interned full-table
# attribute sets. BENCH_policy.json records compile time, verdict
# throughput, and the zero-allocation assertion's measured allocs.
bench-policy:
	$(profdir)
	BENCH_POLICY_JSON=$(CURDIR)/BENCH_policy.json $(GO) test ./internal/policy/compiled/ -run TestPolicyBenchmark -count=1 -v $(call profflags,policy)

# The federation benchmark (DESIGN.md §14): three muxes (one on remote
# peering) and 16 count-only clients at amsterdam converging on both
# remote sites' tables over the backhaul. BENCH_federation.json records
# cross-mux convergence time, relay rate into the fleet, and backhaul
# bytes per route crossing.
bench-federation:
	$(profdir)
	BENCH_FEDERATION_JSON=$(CURDIR)/BENCH_federation.json $(GO) test ./internal/federation/ -run TestFederationBenchmark -count=1 -v $(call profflags,federation)

# Short coverage-guided fuzz runs over the wire-format decoders, the
# attribute-equality invariant that interning rests on (Equal(a,b) ⟺
# identical canonical encoding), the compiled filter against linear
# scans of its rules, the frozen longest-prefix-match table (both
# families) against the trie it is built from, and the tunnel's vectored
# write (buffers cut anywhere read back byte for byte, over bufconn and
# faultconn). Go runs one fuzz target per
# invocation, hence one command each. Seeds come from the golden MRT
# fixtures and canonical attribute blocks, so a corpus regression fails
# fast.
fuzz-smoke:
	$(GO) test ./internal/mrt/ -run '^$$' -fuzz '^FuzzMRTRecord$$' -fuzztime 10s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzParseMessage$$' -fuzztime 10s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzAttrsEqual$$' -fuzztime 10s
	$(GO) test ./internal/policy/compiled/ -run '^$$' -fuzz '^FuzzVerdict$$' -fuzztime 10s
	$(GO) test ./internal/tunnel/ -run '^$$' -fuzz '^FuzzTunnelFrame$$' -fuzztime 10s
	$(GO) test ./internal/tunnel/ -run '^$$' -fuzz '^FuzzStreamWriteBuffers$$' -fuzztime 10s
	$(GO) test ./internal/trie/ -run '^$$' -fuzz '^FuzzFlatLookup$$' -fuzztime 10s

# Documentation gate: vet plus a check that every internal package (and
# the root module) carries a package comment — godoc is part of the
# operator surface, not an afterthought.
docs: vet
	@undoc=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/... . | grep . || true); \
	if [ -n "$$undoc" ]; then \
		echo "packages missing a package comment:"; echo "$$undoc"; exit 1; \
	fi
	@echo "docs: all packages documented"

# internal/server is the package ROADMAP item 2 is shrinking (one path
# per job). The gate prints a package's non-test line count and fails
# when it grows past the committed ceiling: code added there has to pay for
# itself by deleting something, or raise the figure in the same change
# and say why.
# The ceiling is the measured count: 3543 with frames as plain values,
# plus the flusher writing a whole drain as one SendEncoded per session
# (grouping by session, counting once per drain) in the per-frame
# flushFrame's place, less the three registry locks merged into Server.mu,
# plus the announce direction taking a client's read burst (3576 → 3708):
# the handler's reused burst scratch, one upstream's runs encoded into one
# write, and which runs stay pending when that write fails. 3708 → 3655
# when the mux got one client codec: the flusher's private re-pack, the
# slot's options and the private replay build went. 3655 → 3652 when the
# upstream session reader began handing back interned sets, so the
# per-UPDATE intern, the Adj-RIB-In's interner and replay's default went.
# 3652 → 3629 when every send toward a peer went through the session's
# one run writer: the burst's own encode-and-send block and its run
# type went, and the replay and client goodbyes stopped packing UPDATEs.
SERVER_LINES_MAX = 3629
# internal/rib has a ceiling too since PR 24, set to that PR's count. It
# was 788 before: the compact Adj-RIB (DESIGN.md §12 "The table at
# rest") added the slot codec — key to prefix and back, the learned time
# as an integer, the per-table peer records, the snapshot's Slot — which
# the heap Route gave for free, and took out ShardedAdj.Walk and the
# copy-on-replace contract. 880 → 832 when LocRIB became one map under
# one lock and prefix-hash sharding was left to ShardedAdj alone.
RIB_LINES_MAX = 832
# internal/trie: 481 → 508 when Flat became dual-stack (128-bit keys, a
# build from unsorted pairs) and the one index of every immutable table.
TRIE_LINES_MAX = 508
# internal/policy/compiled: 801 → 770 when its two tables became one
# Flat each, with no trie, frozen halves or per-family switch beside them.
COMPILED_LINES_MAX = 770
# internal/wire and internal/federation: set at their counts when
# PackUpdates and AttrRoute went and the agent's sends became runs, so
# that ROADMAP items 17 and 19, which shrink them, start from a gate.
WIRE_LINES_MAX = 2195
FEDERATION_LINES_MAX = 1200
# internal/policy: 267 → 108 when the interpreted import/export chain
# went and the package kept the relationship model and peering kinds; a
# rule language growing back here fails the gate (route filters belong
# in policy/compiled).
POLICY_LINES_MAX = 108
# internal/router: 572 → 545 when PeerConfig lost its Import/Export
# hooks and Router.Originated went, so that ROADMAP items 20 and 21,
# which rework its import and export paths, start from a gate.
ROUTER_LINES_MAX = 545
lines:
	@for c in server:$(SERVER_LINES_MAX) rib:$(RIB_LINES_MAX) trie:$(TRIE_LINES_MAX) policy/compiled:$(COMPILED_LINES_MAX) wire:$(WIRE_LINES_MAX) federation:$(FEDERATION_LINES_MAX) policy:$(POLICY_LINES_MAX) router:$(ROUTER_LINES_MAX); do \
		pkg=internal/$${c%%:*}; max=$${c##*:}; \
		n=$$(cat $$(ls $$pkg/*.go | grep -v _test.go) | wc -l); \
		echo "$$pkg: $$n non-test lines (ceiling $$max)"; \
		[ $$n -le $$max ] || exit 1; \
	done

# Both test flavors run in the gate: -race for the concurrency layer,
# and a plain run because the allocation-budget tests (AllocsPerRun —
# the verdict, the packet forward path and tunnel round trip — and the
# relay-path budget) only assert without the race runtime's own
# allocations in the way.
check: build bench-build fmt-check docs lines staticcheck test race fuzz-smoke
