# Tier-1 verification recipe (see ROADMAP.md). The -race pass covers the
# packages that run real goroutines under the real execution layer (the
# root package's service tests included), and the simulator, whose procs
# are coroutines resumed from the caller of Run.
RACE_PKGS = . ./internal/omp/ ./internal/exec/ ./internal/mpi/ ./internal/tenancy/ ./internal/device/ ./internal/sim/

.PHONY: verify build test vet staticcheck race race-stress figures golden-check bench-smoke trace-smoke

verify: build vet staticcheck test race

build:
	go build ./...

vet:
	go vet ./...

# staticcheck runs when the tool is on PATH (CI installs it; a local
# checkout without it still gets the full verify, minus this pass).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	go test ./...

race:
	go test -race $(RACE_PKGS)

# race-stress repeats the -race pass 20 times at GOMAXPROCS 1, 2 and 8,
# so schedule-dependent races show up on any machine; GOMAXPROCS=1 also
# covers coroutine switching with a single P.
race-stress:
	@for procs in 1 2 8; do \
		echo "race-stress: GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs go test -race -count=20 $(RACE_PKGS) || exit 1; \
	done

figures:
	go run ./cmd/kompbench -quick

# golden-check regenerates every ablation at full scale under both
# simulator event queues (the timer wheel, and the binary heap kept as
# its differential oracle) and compares each byte-for-byte against the
# checked-in ABLATIONS.txt: virtual results may only move when a change
# means them to (then regenerate the file with
# `go run ./cmd/kompbench -ablation all > ABLATIONS.txt`).
golden-check:
	@dir=$${TMPDIR:-/tmp}/komp-golden && mkdir -p $$dir && \
	go build -o $$dir/kompbench ./cmd/kompbench && \
	for eq in wheel heap; do \
		KOMP_SIM_EQ=$$eq $$dir/kompbench -ablation all > $$dir/ABLATIONS.txt 2>/dev/null && \
		cmp $$dir/ABLATIONS.txt ABLATIONS.txt || exit 1; \
		echo "golden-check: ABLATIONS.txt byte-identical (KOMP_SIM_EQ=$$eq)"; \
	done

# bench-smoke runs the EPCC figures, every ablation, and the
# per-construct profile twice at -quick scale and diffs the outputs
# byte-for-byte: stdout must be a pure function of the seed (simulator
# determinism). Not part of `verify` (it costs a couple of minutes) but
# documented next to it in ROADMAP.md; run it when touching the
# runtime's synchronization paths or the instrumentation spine.
bench-smoke:
	@dir=$${TMPDIR:-/tmp}/komp-bench-smoke && mkdir -p $$dir && \
	go build -o $$dir/kompbench ./cmd/kompbench && \
	for run in 1 2; do \
		( $$dir/kompbench -quick -figure fig7 && \
		  $$dir/kompbench -quick -figure fig13 && \
		  $$dir/kompbench -quick -ablation all && \
		  $$dir/kompbench -quick -profile ) \
		  > $$dir/run$$run.txt 2>/dev/null || exit 1; \
	done; \
	cmp $$dir/run1.txt $$dir/run2.txt && \
		echo "bench-smoke: two runs byte-identical"

# trace-smoke re-renders the synthetic spine stream through the Chrome
# trace emitter and compares it byte-for-byte against the checked-in
# golden file (internal/trace/testdata/chrome_trace.json). Regenerate the
# golden after an intentional format change with:
#   go test ./internal/trace/ -run Golden -update
trace-smoke:
	@go test ./internal/trace/ -run TestGoldenChromeTrace -count=1 && \
		echo "trace-smoke: trace JSON matches golden file"
