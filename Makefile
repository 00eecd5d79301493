# Developer entry points. Everything here is plain go tooling; there are
# no external dependencies.

GO ?= go

.PHONY: all build vet surface fma lint test cover race fuzz bench-smoke bench-check clean

all: build vet test

# build and vet also cover bench/ (its own module, `replace`d onto this
# one, so offline-safe): a deletion under internal/ that breaks the
# benchmark's imports fails here, not in bench-check at the end. Its one
# package is a main, which a bare `go build ./...` would write into bench/.
build:
	$(GO) build ./...
	cd bench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# surface runs the four whole-tree gates of tier-1 by one name (≈3 s,
# DESIGN §3.1): no declaration or method under internal/ that no
# program reaches, no option field that every program gives one value,
# no document citing a test that is gone, no package-scope name
# shadowing a predeclared one.
surface:
	$(GO) test -run 'TestInternalSurface|TestConfigKnobs|TestDocCitations|TestNoShadowedBuiltins' .

# fma cross-compiles the module for arm64 with -S (≈4 s, no emulator)
# and fails on any fused multiply-add, naming its file:line. The Go spec
# lets a compiler fuse x*y + z into one rounding unless a float64(…)
# conversion rounds the product first; amd64 never fuses, arm64 does, so
# a fused site can move a golden byte on one architecture only. The
# listing goes through printf, not echo: its data bytes hold sequences
# such as \c, at which a POSIX sh echo stops printing.
fma:
	@asm="$$(GOARCH=arm64 $(GO) build -gcflags='cmpqos/...=-S' ./... 2>&1)" || \
		{ echo "arm64 build failed:"; printf '%s\n' "$$asm" | grep -E '^[^[:space:]]+\.go:[0-9]+:'; exit 1; }; \
	out="$$(printf '%s\n' "$$asm" | grep -E '[[:space:]]FN?M(ADD|SUB)[DS][[:space:]]' | \
		grep -oE '\([^)]*\.go:[0-9]+\)' | tr -d '()' | sed 's|^$(CURDIR)/||' | \
		sort -u -t: -k1,1 -k2,2n)"; \
	if [ -n "$$out" ]; then \
		echo "arm64 fuses a multiply-add at (round the product with float64(…)):"; \
		echo "$$out"; exit 1; fi

# lint is the static-analysis gate: vet, the surface gates, the arm64
# fused-op check, canonical formatting, and — when installed —
# staticcheck. staticcheck stays optional locally so the target works in
# offline dev containers; CI installs it and runs the full gate.
lint: vet surface fma
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test -timeout 10m ./...

# cover is the coverage axis of the whole-tree gates (≈60 s, DESIGN
# §3.1): every package's tests run with coverage of the whole module,
# then the root package's list test merges the test binaries' blocks by
# max count and fails on a block no test runs that
# testdata/uncovered.txt does not list (with its reason: io, invariant,
# stringer or process), and on a listed block that now runs, so the list
# only shrinks.
cover:
	$(GO) test -timeout 10m -coverpkg=./... -coverprofile=cover.out ./...
	COVER_PROFILE=$(CURDIR)/cover.out $(GO) test -count=1 -run TestUncoveredList .

# race runs the full suite under the race detector. The experiment
# fan-out (internal/parallel) is the main subject: every multi-run
# experiment must stay data-race-free at any worker count, and so must
# the singleflight memo (parallel.Memo) the run cache, the curve store
# and the tapes share across its workers.
race:
	$(GO) test -race -timeout 20m ./...

# fuzz runs a short smoke of each fuzz target (one package per -fuzz
# invocation, as the go tool requires): the job-file and fault-plan
# parsers must never crash on arbitrary input, and the indexed Timeline
# must stay bit-identical to its naive reference on any op sequence,
# the simulator's scheduler and reserved allocator, which keep no list
# between passes, must place, start and size every job as the
# list-based ones they replaced,
# the GAC's bounded scan must answer and bill exactly as probing every
# node does (and a plan that is never committed bills nothing), the WAL
# decoder must recover an intact prefix from any bytes, the WAL record
# appender must write json.Marshal's bytes (and
# refuse what it refuses) for any record, the hand-written snapshot
# encoder must write encoding/json's bytes for any LAC (internal/qos)
# and any daemon state (internal/server), the request scanner must
# accept only what encoding/json accepts and decode it to the same
# request, the appended submit/cancel answers must be writeJSON's
# bytes and header, the fast-forward's closed-form float
# accumulation must leave the bits the stepped additions leave for any
# accumulator and addends, and the packed arrival and deadline tapes
# (Rice-coded gaps, 2-bit classes) must read back
# what the full-width reference tape reads for any gaps and classes,
# through single, interleaved and concurrent cursors.
fuzz:
	$(GO) test -fuzz=Fuzz -fuzztime=10s -timeout 5m ./internal/jobfile
	$(GO) test -fuzz=Fuzz -fuzztime=10s -timeout 5m ./internal/fault
	$(GO) test -fuzz=FuzzTimelineEquivalence -fuzztime=10s -timeout 5m ./internal/qos
	$(GO) test -fuzz=FuzzGACEquivalence -fuzztime=10s -timeout 5m ./internal/qos
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s -timeout 5m ./internal/qos
	$(GO) test -fuzz=FuzzWALRecordEncoding -fuzztime=10s -timeout 5m ./internal/qos
	$(GO) test -fuzz=FuzzSnapshotEncodeEquivalence -fuzztime=10s -timeout 5m ./internal/qos
	$(GO) test -fuzz=FuzzSnapshotEncodeEquivalence -fuzztime=10s -timeout 5m ./internal/server
	$(GO) test -fuzz=FuzzRequestDecode -fuzztime=10s -timeout 5m ./internal/server
	$(GO) test -fuzz=FuzzResponseEncode -fuzztime=10s -timeout 5m ./internal/server
	$(GO) test -fuzz=FuzzRepeatAdd -fuzztime=10s -timeout 5m ./internal/sim
	$(GO) test -fuzz=FuzzAssignMatchesListScheduler -fuzztime=10s -timeout 5m ./internal/sim
	$(GO) test -fuzz=FuzzTapeRoundTrip -fuzztime=10s -timeout 5m ./internal/workload

# bench-smoke compiles and runs the timeline admission, GAC submit,
# cluster dispatch, daemon snapshot and arrival tape decode benches once
# each (-benchtime=1x): a CI guard that the O(log n) timeline, the bound
# rows the GAC and the fleet dispatcher scan, the streaming snapshot
# writer, the Rice decoder and their benchmarks keep building and
# running — timings are meaningless here; the cluster line's B/op
# (-benchmem) is not: it puts fleet dispatch's allocation in the CI
# log. (The fast-forward path and
# the control plane are run by bench-check: sim-node's paper and pid
# classes, sim-fleet; of the fast-forward only the repeatAdd kernel has
# a package benchmark, the evidence for its cut-over constant.) It also runs
# the two closed-loop gates: the feedback smoke (pid must not break
# more promises than static under the same storms) and the -ctrl
# static golden identity (the nil controller reproduces the open-loop
# pipeline byte for byte). Last come the paper-scale goldens: the
# registry rendered once at workers 1, checked against a workers-4,
# an uncached and a warm re-render, its CSV exports against
# internal/experiments/testdata/csv_golden.txt and its text against
# RESULTS.txt, and `qossim -exp NAME`'s output against the file on the
# five entries that reuse fig5's grid.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTimeline|BenchmarkGACSubmit' -benchtime=1x -timeout 10m .
	$(GO) test -run '^$$' -bench 'BenchmarkClusterDispatch' -benchtime=1x -benchmem -timeout 10m .
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshotPersist' -benchtime=1x -benchmem -timeout 10m ./internal/server
	$(GO) test -run '^$$' -bench 'BenchmarkRepeatAdd' -benchtime=1x -timeout 10m ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkArrivalsNext' -benchtime=1x -timeout 10m ./internal/workload
	$(GO) test -run 'TestFeedbackControllerBeatsStatic' -count=1 ./internal/experiments
	$(GO) test -run 'TestControllerStaticIdentity' -count=1 ./internal/sim
	$(GO) test -run 'TestGoldenTablesCacheOnVsOff|TestCSVExports|TestResultsFileMatchesRender' -count=1 ./internal/experiments
	$(GO) test -run 'TestResultsFileMatchesRun' -count=1 ./cmd/qossim

# bench-check runs the smoke tests of the repository benchmark (bench/ is
# its own module, so `make test` never sees it): every workload for a
# fraction of a second, with its correctness checks on.
bench-check:
	cd bench && $(GO) test ./...

clean:
	$(GO) clean ./...
