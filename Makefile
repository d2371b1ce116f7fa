# CI entry points for the NMAP reproduction. `make ci` is what a
# pipeline should run; the individual targets exist for local use.

GO ?= go

# Profile-guided optimization: default.pgo is a committed CPU profile of
# the representative fig12 run (refresh with `make pgo`). Build/bench
# targets pass it explicitly so every package — not just the main one —
# compiles with profile feedback; pgo-smoke proves the PGO codegen is
# physics-byte-identical to a -pgo=off build.
PGO = default.pgo
PGOFLAG = $(if $(wildcard $(PGO)),-pgo=$(PGO),)

.PHONY: ci vet govulncheck build test race bench bench-compare golden golden-digests golden-gate fault-smoke failover-smoke cluster-smoke gray-smoke determinism-gate fuzz-smoke checkpoint-smoke chaos-smoke pgo pgo-smoke pgo-bench profile clean

ci: vet govulncheck build race golden-gate fault-smoke failover-smoke cluster-smoke gray-smoke determinism-gate fuzz-smoke checkpoint-smoke chaos-smoke pgo-smoke bench-compare

# Fault-injection smoke matrix: the loss/retry/throttle/watchdog paths
# run under the race detector, then one figure regenerates end to end
# with every fault class armed at once.
FAULT_SPEC = loss=0.02,irqloss=0.001,irqjitter=2us,throttle=50/2ms@10
fault-smoke:
	$(GO) test -race -count=1 \
		-run 'Fault|Retry|Overload|WireLoss|LostIRQ|SockQCap|Watchdog|Throttle|Abort' \
		./internal/sim/ ./internal/faults/ ./internal/cpu/ ./internal/server/ ./internal/experiments/
	$(GO) run ./cmd/nmapsim -quick -faults $(FAULT_SPEC) -rto 20ms fig2 > /dev/null

# Hard-fault failover matrix: core crash/recovery, queue stalls, RSS
# re-steering and load shedding under the race detector, then the
# resilience figure regenerates twice under a scheduled core crash and
# must produce identical bytes (crash choreography is deterministic).
CRASH_SPEC = corecrash=1@150ms:100ms,queuestall=2@180ms:40ms
failover-smoke:
	$(GO) test -race -count=1 \
		-run 'Crash|Failover|Resteer|ReSteer|Shed|Stall|Offline|Online|Adopt|Resilience|HardFault' \
		./internal/faults/ ./internal/cpu/ ./internal/nic/ ./internal/kernel/ \
		./internal/governor/ ./internal/audit/ ./internal/server/ ./internal/experiments/ ./internal/fuzzer/
	$(GO) build -o .failover-nmapsim ./cmd/nmapsim
	./.failover-nmapsim -quick -audit fig-resilience > .failover-a.txt
	./.failover-nmapsim -quick -audit fig-resilience > .failover-b.txt
	cmp .failover-a.txt .failover-b.txt
	./.failover-nmapsim -quick -faults $(CRASH_SPEC) -rto 20ms -audit fig9 > /dev/null
	rm -f .failover-nmapsim .failover-a.txt .failover-b.txt

# Fleet failover gate: the node-crash choreography (router resteers,
# health mark-down/half-open recovery, cluster conservation ledger) runs
# under the race detector; the fleet figure then regenerates twice under
# a scheduled node crash with the auditor on and must render identical
# bytes; and the 1-node cluster must stay byte-identical to the plain
# single-server run (the zero-overhead-abstraction gate).
cluster-smoke:
	$(GO) test -race -count=1 \
		-run 'Cluster|NodeCrash|NodeSlow|NodeFault|Router|Health|FleetPowerCap|TotalOutage' \
		./internal/cluster/ ./internal/faults/ ./internal/nic/ ./internal/audit/ \
		./internal/server/ ./internal/experiments/
	$(GO) build -o .cluster-nmapsim ./cmd/nmapsim
	./.cluster-nmapsim -quick -audit -nodes 3 fig-cluster > .cluster-a.txt
	./.cluster-nmapsim -quick -audit -nodes 3 fig-cluster > .cluster-b.txt
	cmp .cluster-a.txt .cluster-b.txt
	$(GO) test -count=1 -run TestSingleNodeClusterByteIdentical ./internal/cluster/
	rm -f .cluster-nmapsim .cluster-a.txt .cluster-b.txt

# Gray-failure gate: the interconnect fabric, link fault family
# (partition/linkslow/linkloss), flap-damped prober and hedged front end
# run under the race detector across every layer they touch; the
# gray-failure figure then regenerates twice with the auditor on and
# must render identical bytes (per-link jitter, seeded drops and hedge
# timers are all replay-stable); and the zero-cost contract holds: a
# fabric armed only by past-horizon link faults must stay byte-identical
# to no fabric at all, as must a 1-node cluster to a plain server.
gray-smoke:
	$(GO) test -race -count=1 \
		-run 'GrayFail|Partition|LinkSlow|LinkLoss|LinkFault|Hedge|Flap|Fabric|Probation|OneWay|CheckCluster|SeedCorpusClean|Fleet' \
		./internal/cluster/ ./internal/faults/ ./internal/audit/ \
		./internal/experiments/ ./internal/fuzzer/
	$(GO) build -o .gray-nmapsim ./cmd/nmapsim
	./.gray-nmapsim -quick -audit -nodes 3 fig-grayfail > .gray-a.txt
	./.gray-nmapsim -quick -audit -nodes 3 fig-grayfail > .gray-b.txt
	cmp .gray-a.txt .gray-b.txt
	$(GO) test -count=1 -run 'TestLinkFaultPastHorizonByteIdentical|TestSingleNodeClusterByteIdentical' ./internal/cluster/
	rm -f .gray-nmapsim .gray-a.txt .gray-b.txt

# Determinism gate: the same faulted configuration must render the same
# bytes twice — fault schedule, retransmissions, and physics included —
# and the invariant auditor must be a pure observer: running the same
# configuration with -audit on cannot change a single output byte.
determinism-gate:
	$(GO) build -o .gate-nmapsim ./cmd/nmapsim
	./.gate-nmapsim -quick -faults $(FAULT_SPEC) -rto 20ms fig9 > .gate-a.txt
	./.gate-nmapsim -quick -faults $(FAULT_SPEC) -rto 20ms fig9 > .gate-b.txt
	cmp .gate-a.txt .gate-b.txt
	./.gate-nmapsim -quick -faults $(FAULT_SPEC) -rto 20ms -audit fig9 > .gate-c.txt
	cmp .gate-a.txt .gate-c.txt
	rm -f .gate-nmapsim .gate-a.txt .gate-b.txt .gate-c.txt

# Golden-output gate: one SHA-256 per "== ... ==" section of the quick
# reproduction (`nmapsim -quick all`) and of three faulted runs — the
# soft-fault and hard-fault fig9 specs above and a fleet under link
# faults — so both the fault grammar and the fault scheduler are held
# to byte-identical physics. `make golden-gate` recomputes the digests
# and diffs them against the committed $(GOLDEN), naming every section
# that moved. `make golden` rewrites $(GOLDEN); run it only for an
# intended physics change, and name that change in CHANGES.md.
GOLDEN = testdata/golden-quick.sha256
GRAY_SPEC = partition=1|fe@250ms:100ms,linkslow=2@300ms:50ms:8,linkloss=1@400ms:50ms:0.05
golden-digests:
	$(GO) build -o .golden-nmapsim ./cmd/nmapsim
	rm -rf .golden && mkdir .golden
	./.golden-nmapsim -quick all > .golden/all
	./.golden-nmapsim -quick -faults '$(FAULT_SPEC)' -rto 20ms fig9 > .golden/fault-fig9
	./.golden-nmapsim -quick -faults '$(CRASH_SPEC)' -rto 20ms fig9 > .golden/crash-fig9
	./.golden-nmapsim -quick -nodes 3 -faults '$(GRAY_SPEC)' fig-cluster > .golden/gray-cluster
	for run in all fault-fig9 crash-fig9 gray-cluster; do \
		awk -v d=.golden/$$run.sec 'BEGIN { f = sprintf("%s%02d", d, 0) } \
			/^== / { close(f); f = sprintf("%s%02d", d, ++n) } { print > f }' .golden/$$run; \
		for f in .golden/$$run.sec*; do \
			printf '%s  %s: %s\n' "$$(sha256sum < $$f | cut -c1-64)" $$run "$$(head -n 1 $$f)"; \
		done; \
	done > .golden/digests
	rm -f .golden-nmapsim

golden: golden-digests
	mkdir -p $(dir $(GOLDEN))
	cp .golden/digests $(GOLDEN)
	rm -rf .golden

golden-gate: golden-digests
	diff -u $(GOLDEN) .golden/digests
	rm -rf .golden

# Checkpoint smoke: kill a journaled sweep mid-run, resume it from the
# journal, and require byte-identical stdout against an uninterrupted
# run. Every cell is a deterministic seeded simulation, so a journaled
# result and a recomputed one must render identically no matter where
# the kill landed (including before any cell completed).
checkpoint-smoke:
	$(GO) build -o .ckpt-nmapsweep ./cmd/nmapsweep
	./.ckpt-nmapsweep -points 6 -dur 250 -parallel 1 > .ckpt-ref.txt
	rm -f .ckpt.journal
	-timeout -s KILL 1 ./.ckpt-nmapsweep -points 6 -dur 250 -parallel 1 -checkpoint .ckpt.journal > /dev/null 2>&1
	./.ckpt-nmapsweep -points 6 -dur 250 -parallel 1 -checkpoint .ckpt.journal > .ckpt-resume.txt 2> /dev/null
	cmp .ckpt-ref.txt .ckpt-resume.txt
	rm -f .ckpt-nmapsweep .ckpt-ref.txt .ckpt-resume.txt .ckpt.journal

# Harness chaos gate: the self-healing orchestration must survive every
# harness fault class with a byte-identical report. The Go scenarios
# cover kill-mid-sweep, torn/corrupted/duplicated journal lines, flaky
# and poison cells, and simulated disk-full; the CLI leg below then
# kills a journaled sweep, tears its tail, flips a byte mid-journal,
# proves -fsck flags the damage, and requires the resumed sweep to
# render the same bytes as an unfaulted run anyway. A poisoned sweep
# must name its quarantined cells in the report, never drop them.
chaos-smoke:
	$(GO) test -count=1 ./internal/harnesschaos/
	$(GO) build -o .chaos-nmapsweep ./cmd/nmapsweep
	./.chaos-nmapsweep -points 6 -dur 250 -parallel 1 > .chaos-ref.txt
	rm -f .chaos.journal
	-timeout -s KILL 1 ./.chaos-nmapsweep -points 6 -dur 250 -parallel 1 -checkpoint .chaos.journal > /dev/null 2>&1
	touch .chaos.journal
	printf 'j2 9999 deadbeef {"torn' >> .chaos.journal
	dd if=/dev/zero of=.chaos.journal bs=1 seek=3 count=1 conv=notrunc status=none
	! ./.chaos-nmapsweep -fsck -checkpoint .chaos.journal > /dev/null
	./.chaos-nmapsweep -points 6 -dur 250 -parallel 1 -checkpoint .chaos.journal > .chaos-resume.txt 2> /dev/null
	cmp .chaos-ref.txt .chaos-resume.txt
	sh -c './.chaos-nmapsweep -points 2 -dur 50 -policy chaos-bogus -quarantine > .chaos-q.txt 2> /dev/null; test $$? -eq 3'
	grep -q QUARANTINED .chaos-q.txt
	rm -f .chaos-nmapsweep .chaos-ref.txt .chaos-resume.txt .chaos.journal .chaos-q.txt

# Capture CPU and heap (allocs) profiles from the standard fig12-quick
# run: `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) build -o .prof-nmapsim ./cmd/nmapsim
	./.prof-nmapsim -quick -cpuprofile cpu.prof -memprofile mem.prof fig12 > /dev/null
	rm -f .prof-nmapsim
	@echo "wrote cpu.prof and mem.prof (view with: go tool pprof cpu.prof)"

# Fuzz smoke: replay the checked-in corpus, let the native fuzzer mutate
# for a few seconds, then push 200 fresh random configurations through
# the auditor with the standalone driver. Any invariant violation fails
# the build and leaves a minimized reproducer in fuzz-failures/.
fuzz-smoke:
	$(GO) test -count=1 -run 'TestSeedCorpusClean|FuzzAuditInvariants' ./internal/fuzzer/
	$(GO) test -run '^$$' -fuzz FuzzAuditInvariants -fuzztime 10s ./internal/fuzzer/
	$(GO) run ./cmd/nmapfuzz -n 200 -seed 1

# Record a fresh PGO profile from the representative fig12-quick run.
# The profile is recorded with a -pgo=off binary so it describes the
# un-optimized hot paths (iterating PGO on its own output converges on
# stale inlining decisions), then committed as $(PGO).
pgo:
	$(GO) build -pgo=off -o .pgo-nmapsim ./cmd/nmapsim
	./.pgo-nmapsim -quick -parallel 1 -cpuprofile $(PGO) fig12 > /dev/null
	rm -f .pgo-nmapsim
	@echo "wrote $(PGO); commit it so make ci builds with it"

# PGO determinism gate: profile-guided codegen must never drift physics.
# The PGO build renders fig9 twice (self-deterministic) and the bytes
# must match a -pgo=off build of the same source exactly.
pgo-smoke:
	$(GO) build $(PGOFLAG) -o .pgo-on-nmapsim ./cmd/nmapsim
	$(GO) build -pgo=off -o .pgo-off-nmapsim ./cmd/nmapsim
	./.pgo-on-nmapsim -quick fig9 > .pgo-a.txt
	./.pgo-on-nmapsim -quick fig9 > .pgo-b.txt
	cmp .pgo-a.txt .pgo-b.txt
	./.pgo-off-nmapsim -quick fig9 > .pgo-c.txt
	cmp .pgo-a.txt .pgo-c.txt
	rm -f .pgo-on-nmapsim .pgo-off-nmapsim .pgo-a.txt .pgo-b.txt .pgo-c.txt

# Advisory pgo-on/off delta: re-run the fast benchmarks with PGO codegen
# and print the delta table against the committed baseline without
# gating (the baseline records which codegen produced it in its "pgo"
# field).
pgo-bench:
	$(GO) run $(PGOFLAG) ./cmd/nmapbench -delta BENCH_sim.json

vet:
	$(GO) vet ./...

# Known-vulnerability scan over the module graph and reachable call
# paths. The tool is not vendored; when absent the step reports how to
# install it (pin v1.1.4 for reproducible CI) and succeeds, so air-gapped
# builds still pass. CI hosts with the binary on PATH get the real scan.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck: not on PATH, skipping scan" ; \
		echo "govulncheck: to enable: go install golang.org/x/vuln/cmd/govulncheck@v1.1.4" ; \
	fi

build:
	$(GO) build $(PGOFLAG) ./...

test:
	$(GO) test ./...

# The experiments exercise goroutine fan-out, so the tier-1 gate runs
# them under the race detector.
race:
	$(GO) test -race ./...

# Refresh the tracked performance baseline: engine ns/op + allocs/op and
# the serial-vs-parallel wall-clock of the Fig 12/13 quick matrix. Run by
# hand only: `make ci` does not depend on it, so a CI run never rewrites
# the committed baseline with whatever host it happened to land on.
bench:
	$(GO) run $(PGOFLAG) ./cmd/nmapbench -o BENCH_sim.json
	@cat BENCH_sim.json

# Diff the fast benchmarks (engine micro + end-to-end allocs/request)
# against the committed baseline; fails on >20% ns/op or any allocs/op
# regression. Non-fatal in `make ci` (leading '-') because wall-clock
# numbers recorded on a different host are advisory, but the failure
# still prints for the reviewer.
bench-compare:
	-$(GO) run $(PGOFLAG) ./cmd/nmapbench -compare BENCH_sim.json

clean:
	$(GO) clean ./...
