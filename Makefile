GO ?= go

.PHONY: build test check bench bench-compare race alloc-budget fuzz-smoke vet fmt-check fault-smoke replay-smoke census

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check: fail on any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "fmt-check: gofmt -l lists:" >&2; echo "$$out" >&2; exit 1; fi
	@echo "fmt-check: ok"

# race: every library package and both commands under the race detector
# (ipipe-sim's test drives every app with tracing, metrics and checkers
# on). sim.Group's window workers poll, steal and park rather than block
# on a channel, so which of those paths a test takes depends on how many
# Ps there are: the engine package runs a second time at -cpu 1,2,4 —
# fewer Ps than workers, as many, and more.
race:
	$(GO) test -race ./internal/... ./cmd/... .
	$(GO) test -race -cpu 1,2,4 ./internal/sim/...

# alloc-budget: the exact allocation budgets of the per-message path —
# what one message costs each layer and what one request costs a whole
# mesh, DT and RKV run — counted with testing.AllocsPerRun /
# MemStats.Mallocs, no wall clock; the set-up budget: what building and
# arming a 64-node mesh allocates (TestMeshSetupAllocBudget, objects and
# bytes); and the byte budgets: the bytes one mesh request allocates
# (MemStats.TotalAlloc) and the sizes of actor.Msg, core.RespEnvelope,
# netsim.Packet and msgring.Message (TestMsgLayout).
alloc-budget:
	$(GO) test -count=1 -run 'Alloc(Budget|Free|OneAllocation)|MsgLayout' ./internal/... .

# fuzz-smoke: five seconds of each native fuzz target on top of its
# committed seed corpus (testdata/fuzz) — the RKV command decoder, the
# RKV consensus handlers under forged messages, the DT transaction codec,
# the DMO page table against a map model, the host↔NIC channel against a
# slice model, and the engine's two-tier event queue against a flat
# reference scheduler. A failing input is written under the package's
# testdata/fuzz: commit it with the fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCmd$$' -fuzztime 5s ./internal/apps/rkv
	$(GO) test -run '^$$' -fuzz '^FuzzPaxosMessages$$' -fuzztime 5s ./internal/apps/rkv
	$(GO) test -run '^$$' -fuzz '^FuzzTxnCodec$$' -fuzztime 5s ./internal/apps/dt
	$(GO) test -run '^$$' -fuzz '^FuzzStoreOps$$' -fuzztime 5s ./internal/dmo
	$(GO) test -run '^$$' -fuzz '^FuzzChannelOps$$' -fuzztime 5s ./internal/msgring
	$(GO) test -run '^$$' -fuzz '^FuzzEngineSchedule$$' -fuzztime 5s ./internal/sim

# fault-smoke: run the availability experiment under the default fault
# schedule with tracing on, validate the trace artifact, and confirm the
# injected faults appear as spans on the dedicated faults lanes. The
# artifact goes to a fresh temporary directory, removed on exit, so two
# checkouts can run the smoke at once.
fault-smoke:
	dir="$$(mktemp -d)" && trap 'rm -rf "$$dir"' EXIT && set -e; \
	$(GO) run ./cmd/ipipe-bench -quick -trace "$$dir/trace.json" \
		faults-availability >/dev/null; \
	$(GO) run ./cmd/ipipe-trace check "$$dir/trace.json"; \
	grep -q '"crash kv0"' "$$dir/trace.json" || \
		{ echo "fault-smoke: no fault span in trace" >&2; exit 1; }
	@echo "fault-smoke: fault spans present"

# replay-smoke: golden-replay the whole quick registry, an invariant
# checker on every cluster, along every determinism axis that applies
# (sweep 1 vs N; 1 vs 2 and 1 vs 4 window workers for partitioned runs),
# then the -pdes 2 entries: every digest must equal its line of
# internal/bench/testdata/replay_golden.txt (the obs: lines are go test's).
# Last, the full-resolution registry at 2 workers must equal
# internal/bench/testdata/full_seed1.txt; each hunk of a difference is
# headed by the "== id" line of its experiment. The report and its
# digests go to a fresh temporary directory, removed on exit.
replay-smoke:
	dir="$$(mktemp -d)" && trap 'rm -rf "$$dir"' EXIT && set -e; \
	$(GO) run ./cmd/ipipe-bench -quick -check all >"$$dir/replay.txt"; \
	$(GO) run ./cmd/ipipe-bench -quick -check -pdes 2 fig17 scale-nodes \
		faults-pdes migrate-pdes >>"$$dir/replay.txt"; \
	sed -n 's/^  digest //p' "$$dir/replay.txt" | LC_ALL=C sort >"$$dir/replay.digests"; \
	grep -v '^#\|^obs:' internal/bench/testdata/replay_golden.txt | diff - "$$dir/replay.digests"
	$(GO) run ./cmd/ipipe-bench -seed 1 -parallel 2 all | diff -u -F '^== ' internal/bench/testdata/full_seed1.txt -
	@echo "replay-smoke: ok"

# census: which code no program runs. The four programs are built with
# -cover and run as the roots below; the root Example functions run under
# go test -coverpkg. go tool covdata merges their counters, and the
# result is held to testdata/unexecuted.txt (its header gives the
# format): a function no root enters fails, named, unless the file
# classifies it, and so does a file with more unexecuted statements than
# its line allows. A count below its line, or a listed function that now
# runs, is printed as a note. Everything goes to a fresh temporary
# directory, removed on exit.
census:
	dir="$$(mktemp -d)" && trap 'rm -rf "$$dir"' EXIT && set -e; \
	for c in ipipe-bench ipipe-sim ipipe-trace; do $(GO) build -cover -o "$$dir/$$c" ./cmd/$$c; done; \
	$(GO) build -cover -o "$$dir/benchmark" ./benchmark; \
	mkdir "$$dir/cov"; export GOCOVERDIR="$$dir/cov"; \
	"$$dir/ipipe-bench" -seed 1 -parallel 2 all >/dev/null; \
	"$$dir/ipipe-bench" -quick -check -pdes 2 all >/dev/null; \
	"$$dir/ipipe-bench" -quick -report - >/dev/null; \
	"$$dir/ipipe-bench" -quick -json all >/dev/null; \
	"$$dir/ipipe-bench" -quick -csv all >/dev/null; \
	"$$dir/ipipe-bench" -quick -trace "$$dir/bench.json" -metrics "$$dir/bench.ndjson" ablate-queue >/dev/null; \
	for app in rkv dt rta nf echo; do \
		"$$dir/ipipe-sim" -app $$app -check -trace "$$dir/$$app.json" -metrics "$$dir/$$app.ndjson" >/dev/null; \
	done; \
	"$$dir/ipipe-sim" -app mesh -nodes 8 -partitions 4 -pdes 2 -duration 5ms -check \
		-trace "$$dir/mesh.json" -metrics "$$dir/mesh.ndjson" >/dev/null; \
	for f in "$$dir"/*.json; do "$$dir/ipipe-trace" check "$$f" >/dev/null; done; \
	for f in "$$dir"/*.ndjson; do "$$dir/ipipe-trace" check-metrics "$$f" >/dev/null; done; \
	for w in mesh_classic mesh_pdes rkv_mixed rkv_write dt_host; do \
		"$$dir/benchmark" -workload $$w -seconds 0 -trace 0 >/dev/null; \
		"$$dir/benchmark" -workload $$w -seconds 0 -trace 1 >/dev/null; \
	done; \
	unset GOCOVERDIR; \
	$(GO) test -count=1 -cover -coverpkg=repro/... -run '^Example' . -args -test.gocoverdir="$$dir/cov" >/dev/null; \
	$(GO) tool covdata func -i="$$dir/cov" >"$$dir/funcs.txt"; \
	$(GO) tool covdata textfmt -i="$$dir/cov" -o "$$dir/profile.txt"; \
	awk -v list=testdata/unexecuted.txt -v funcs="$$dir/funcs.txt" ' \
	function rel(f) { sub(/^repro\//, "", f); sub(/:.*/, "", f); return f } \
	FILENAME == list { \
		if (/^#/ || NF < 2) next; \
		if ($$2 ~ /:$$/) { listed[$$1 " " substr($$2, 1, length($$2) - 1)] = 1; next } \
		n = split($$2, r, "-"); lo[$$1] = r[1]; hi[$$1] = r[n]; next \
	} \
	FILENAME == funcs { \
		if ($$1 == "total") next; \
		key = rel($$1) " " $$2; \
		if ($$NF != "0.0%") { if (key in listed) print "census: note: " key " now runs; drop its line"; next } \
		idle++; \
		if (!(key in listed)) { print "census: " key " is entered by no root, and testdata/unexecuted.txt does not classify it"; bad = 1 } \
		next \
	} \
	FNR > 1 { \
		f = rel($$1); total += $$2; \
		if ($$3 == 0) { un[f] += $$2; all += $$2 } \
	} \
	END { \
		for (f in un) if (!(f in hi)) { print "census: " f ": " un[f] " unexecuted statements, and testdata/unexecuted.txt has no line for it"; bad = 1 } \
			else if (un[f] > hi[f] + 0) { print "census: " f ": " un[f] " unexecuted statements, more than its line allows (" hi[f] ")"; bad = 1 } \
		for (f in lo) if (un[f] + 0 < lo[f] + 0) print "census: note: " f ": " un[f] + 0 " unexecuted statements, fewer than its line (" lo[f] "); lower it"; \
		printf "census: %d of %d statements unexecuted, %d functions never entered\n", all, total, idle; \
		exit bad \
	}' testdata/unexecuted.txt "$$dir/funcs.txt" "$$dir/profile.txt"

# check: the CI step — formatting, static analysis, the race suite, the
# allocation budgets, the fuzz targets, the fault and replay smoke tests,
# and the coverage census. ipipe-sim's traced, metered and checked runs
# of every app are tier-1 tests (cmd/ipipe-sim TestEveryAppChecksClean).
check: fmt-check vet race alloc-budget fuzz-smoke fault-smoke replay-smoke census

# bench: the repository's one performance benchmark (benchmark/README.md)
# — the full ledger at seed 1, ~85s. Judge a change with two ledgers:
# `make bench-compare A=parent.json B=change.json`.
bench:
	bash benchmark/run.sh -seed 1 -out bench.json

bench-compare:
	bash benchmark/run.sh -compare $(A) $(B)
