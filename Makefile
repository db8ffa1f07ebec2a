GO ?= go

.PHONY: build test check bench bench-compare race alloc-budget fuzz-smoke vet fmt-check fault-smoke replay-smoke

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

# race: every library package under the race detector. sim.Group's window
# workers poll, steal and park rather than block on a channel, so which
# of those paths a test takes depends on how many Ps there are: the
# engine package runs a second time at -cpu 1,2,4 — fewer Ps than
# workers, as many, and more.
race:
	$(GO) test -race ./internal/... .
	$(GO) test -race -cpu 1,2,4 ./internal/sim/...

# alloc-budget: the exact allocation budgets of the per-message path —
# what one message costs each layer and what one request costs a whole
# mesh, DT and RKV run — counted with testing.AllocsPerRun /
# MemStats.Mallocs, no wall clock.
alloc-budget:
	$(GO) test -count=1 -run 'Alloc(Budget|Free|OneAllocation)' ./internal/... .

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
# injected faults appear as spans on the dedicated faults lanes.
fault-smoke:
	$(GO) run ./cmd/ipipe-bench -quick -trace /tmp/ipipe-fault-smoke.json \
		faults-availability >/dev/null
	$(GO) run ./cmd/ipipe-trace check /tmp/ipipe-fault-smoke.json
	@grep -q '"crash kv0"' /tmp/ipipe-fault-smoke.json || \
		{ echo "fault-smoke: no fault span in trace" >&2; exit 1; }
	@echo "fault-smoke: fault spans present"

# replay-smoke: golden-replay the whole quick registry, an invariant
# checker on every cluster, along every determinism axis that applies
# (sweep 1 vs N; 1 vs 2 and 1 vs 4 window workers for partitioned runs),
# then the -pdes 2 entries: every digest must equal its line of
# internal/bench/testdata/replay_golden.txt (the obs: lines are go test's).
replay-smoke:
	$(GO) run ./cmd/ipipe-bench -quick -check all >/tmp/ipipe-replay-smoke.txt
	$(GO) run ./cmd/ipipe-bench -quick -check -pdes 2 fig17 scale-nodes \
		faults-pdes migrate-pdes >>/tmp/ipipe-replay-smoke.txt
	sed -n 's/^  digest //p' /tmp/ipipe-replay-smoke.txt | LC_ALL=C sort >/tmp/ipipe-replay-smoke.digests
	grep -v '^#\|^obs:' internal/bench/testdata/replay_golden.txt | diff - /tmp/ipipe-replay-smoke.digests
	@echo "replay-smoke: ok"

# check: the CI step — formatting, static analysis, the race suite, the
# allocation budgets, the fuzz targets, and the fault and replay smoke
# tests. ipipe-sim's traced, metered and checked runs of every app are
# tier-1 tests (cmd/ipipe-sim TestEveryAppChecksClean).
check: fmt-check vet race alloc-budget fuzz-smoke fault-smoke replay-smoke

# bench: the repository's one performance benchmark (benchmark/README.md)
# — the full ledger at seed 1, ~85s. Judge a change with two ledgers:
# `make bench-compare A=parent.json B=change.json`.
bench:
	bash benchmark/run.sh -seed 1 -out bench.json

bench-compare:
	bash benchmark/run.sh -compare $(A) $(B)
