GO ?= go

.PHONY: build test race vet fmt budget cross-build verify bench bench-go alloc obs-overhead propagation-smoke alert-smoke rca-smoke bench-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also vets the nested benchmark module, which `go build ./...` never
# compiles: an export it uses that goes missing fails here, not only at
# bench-smoke.
vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet .

race:
	$(GO) test -race ./...

# fmt fails (listing the offenders) if any tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# OBS_BUDGET is the most non-test lines internal/obs/... may hold.
OBS_BUDGET := 3153

# budget is the size-and-knob gate: no non-test Go file outside benchmark/
# may mention a SLEUTH_ environment variable (flags and struct fields are the
# only knobs); no non-test Go file outside benchmark/ may use a
# sync.WaitGroup except internal/par (the one batch fan-out, par.For) and
# internal/ingest (its long-lived shard goroutines); and
# internal/obs/... must stay within OBS_BUDGET non-test lines (it ships a
# name only if a default-pack rule, the per-layer budget or a behaviour test
# reads it; TestEverySignalHasAReader holds every name to DESIGN.md §7's
# table). Prints the per-package non-test line table ROADMAP quotes.
budget:
	@hits=$$(grep -rn 'SLEUTH_' --include='*.go' . | grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' -e '_test\.go:'); \
	if [ -n "$$hits" ]; then echo "SLEUTH_ in non-test Go outside benchmark/:"; echo "$$hits"; exit 1; fi
	@hits=$$(grep -rn 'sync\.WaitGroup' --include='*.go' . | grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' -e '_test\.go:' \
		-e '^\./internal/par/' -e '^\./internal/ingest/'); \
	if [ -n "$$hits" ]; then echo "sync.WaitGroup in non-test Go outside internal/par and internal/ingest (fan out on par.For):"; echo "$$hits"; exit 1; fi
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -exec wc -l {} + | \
	awk -v budget=$(OBS_BUDGET) '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; all += $$1; if (d ~ /^\.\/internal\/obs/) obs += $$1 } \
	END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
	printf "%6d  non-test Go outside benchmark/\n%6d  internal/obs/... (budget %d)\n", all, obs, budget; exit obs > budget }'

# cross-build keeps the non-amd64 build honest: internal/tensor carries an
# amd64 assembly arm, and on every other architecture the scalar kernels
# must build and vet on their own (`make vet` runs asmdecl on the amd64
# .s files). It then reads the arm64 assembly of internal/gnn and
# internal/core: the scalar passes that must equal the tape bit for bit
# (incremental.go, counterfactual.go, score.go) may hold no fused
# multiply-add. arm64 fuses a*b+c into one rounding where the tape rounds
# the product on its own; writing the product as float64(a*b) stops it.
# amd64 never fuses, so no test there can see this. The build cache
# replays the -S output, so the step is cheap.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/gnn ./internal/core 2>&1) || { echo "$$asm"; exit 1; }; \
	hits=$$(echo "$$asm" | grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' | grep -E '/(incremental|counterfactual|score)\.go:[0-9]+\)'); \
	if [ -n "$$hits" ]; then echo "fused multiply-add in a tape-exact scalar pass (round the product with float64(a*b)):"; echo "$$hits"; exit 1; fi

# verify is the pre-merge gate: static checks, a clean build, the arm64
# cross-build, the budget gate, the full suite under the race detector
# (the data-parallel trainer and the batched inference paths are only
# trustworthy race-clean), the
# allocation-regression tests (which the race detector's instrumentation
# skips, so they need a non-race pass), and a smoke run of the
# observability-overhead benchmark — the disabled-path numbers back the
# "off by default costs nothing" claim — plus the distributed-tracing
# propagation smoke test (collector + model server in-process, one scored
# request, one joined trace whose ring half re-ingests through the
# collector), the watchdog alert smoke (a synthetic p99 regression must
# fire the stock burn-rate rule, link a resolvable exemplar trace and
# resolve after recovery), the rca-smoke gate (the localiser's verdicts and
# Analyze's diagnoses on fixed seed suites must match pinned golden
# hashes), bench-smoke (the
# benchmark module's own tests), and fuzz-smoke (five seconds of each span
# decoder against its reflection oracle, of the AVX2 matmul and AddMin
# kernels against the scalar ones, of the traceparent parser, of the alert-rule parser, of
# the model loader, of the spans JSONL loader, of the /score handler and of
# trace assembly against its reference).
# Latency itself is gated by the benchmark (`bash benchmark/run.sh`), not
# here.
verify: fmt vet build cross-build budget race alloc obs-overhead propagation-smoke alert-smoke rca-smoke bench-smoke fuzz-smoke

# alloc runs the allocation-regression guards without the race detector:
# the steady-state training step must allocate (essentially) nothing, the
# per-trace predict cost must stay a small constant, the clustering
# engine's steady-state kernels (Eq. 1 merge, bounded-heap row selection,
# packed-matrix access) must not allocate per call and a whole Pairwise
# call must cost the same few allocations at any n, the ingest tail
# sampler's per-trace verdict must allocate nothing, a warm ScoreBatch
# must cost only its result slices and worker constants (the pooled
# scoring workspaces bring their encoding and row evaluator back; 48 on 8
# traces), a warm 4-trace POST through the /score handler with obs
# disabled must stay within 140 (body read, decode, assembly, ScoreBatch
# and the JSON reply), the watchdog tick — disabled AND enabled steady state —
# must allocate nothing, a warm counterfactual session (open, six
# questions, close) must allocate nothing but a pool drop's share, a warm
# localisation query must stay within 48 allocations and, on the
# Synthetic-256 benchmark queries, 21 000 bytes (a session buffer that
# stops being recycled, or a re-encode per counterfactual, blows through
# both), the span decoders must stay at ≤ 2.5 allocations
# per span on every dialect (the span, one string for its two IDs, a
# share of the strings it interns), an interning table grown past its
# cap must not go back to the pool (TestPooledTableCap), a warm
# collector POST with obs disabled must cost the decoder's allocations
# plus a constant and allocate fewer bytes than the body it carries
# (TestIngestBodySteadyStateAllocs: the body is read into a pooled
# buffer), trace assembly must cost at most 5 allocations whatever the
# span count and a span-ID index grown past its cap must not go back to
# the pool (TestPooledTableCap in internal/trace), a warm store window fetch
# must allocate for the traces it returns and not for the spans it holds,
# OpSummaries must allocate per operation and not per span
# (TestOpSummariesSteadyStateAllocs), encoding a trace against a warm
# clustering vocabulary must cost its
# two result slices, and a window of traces encoded before must cost
# TraceSets less than one allocation per trace. These tests auto-skip under -race, so `make race`
# alone would never exercise them.
alloc:
	$(GO) test -run 'SteadyStateAllocs|TestPooledTableCap' -count=1 ./internal/tensor ./internal/core ./internal/obs ./internal/obs/alert ./internal/cluster ./internal/ingest ./internal/modelserver ./internal/rca ./internal/otel ./internal/collector ./internal/trace ./internal/store

# bench regenerates every table and figure of the paper's evaluation.
bench:
	$(GO) run ./cmd/benchrunner -exp all

# bench-go runs the in-tree Go micro/macro benchmarks (training scaling,
# inference batching, localisation, span decoding, obs overhead); they take
# -cpuprofile.
# Stage- and incident-level numbers come from `bash benchmark/run.sh`.
bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

obs-overhead:
	$(GO) test -bench='BenchmarkObsOverhead|BenchmarkSeriesAppend|BenchmarkTracePropagation' -benchtime=10000x -run=^$$ ./internal/obs

# propagation-smoke drives one scored request under a caller's traceparent
# into an in-process model server and asserts a single joined distributed
# self-trace, its exemplar, and that the ring-resident spans re-ingest
# through an in-process collector and are re-scored by the pipeline itself.
propagation-smoke:
	$(GO) test -run 'TestPropagationSmoke' -count=1 .

# alert-smoke is the self-watchdog end-to-end gate: a synthetic score-p99
# regression fires the stock modelserver burn-rate rule within two ticks,
# the firing alert carries the worst exemplar trace ID (resolvable via the
# same /debug/traces endpoint `sleuthctl trace` uses), the ALERTS series
# shows up on /metrics, and the alert resolves once the regression clears.
alert-smoke:
	$(GO) test -run 'TestAlertSmoke' -count=1 ./internal/obs/alert

# rca-smoke is the localisation golden gate: on a fixed seed suite
# (seeds 20–22, a slowdown and a CPU+error plan, 40 requests each) the
# localiser's root-cause sets, hashed query by query, and its count of
# true-root hits must equal the pinned constants; then TestAnalyzeGolden
# holds the whole §3.3 pipeline (Analyze: distances, HDBSCAN under the
# shipped policy, medoid localisation, report order) to its pinned hash of
# every Diagnosis over two worlds and three incident windows.
rca-smoke:
	$(GO) test -run 'TestRCASmokeGolden' -count=1 ./internal/rca
	$(GO) test -run 'TestAnalyzeGolden' -count=1 .

# bench-smoke runs the benchmark module's own tests (≈ 2 s): a smoke run of
# every workload, seed repeatability, BENCHMARK.json staying in sync with
# the metric tables, and the refusal to start with any SLEUTH_*
# variable set.
bench-smoke:
	$(GO) -C benchmark test -count=1 .

# fuzz-smoke runs each span decoder's fuzz target for five seconds from the
# committed corpus (internal/otel/testdata/fuzz): no panic, an error iff the
# encoding/json oracle errors, equal spans otherwise. FuzzMatmulAcc then
# runs five seconds of random shapes and bit patterns through both matmul
# arms (internal/tensor/testdata/fuzz): every cell bit-equal, NaN to NaN.
# FuzzMatmulNT then does the same for both arms of matmulNTAcc, the
# backward dX kernel. FuzzAddMin then runs five seconds of bit patterns through both arms of
# AddMin, the Pairwise dense-column kernel: every cell bit-equal, NaN to
# NaN. FuzzParseTraceparent then runs five seconds of headers through
# obs.ParseTraceparent: no panic, and every accepted context is valid and
# round-trips through its rendering. FuzzParseRules then runs five seconds
# of rule files through alert.ParseRules: no panic, every accepted rule has
# only non-negative durations, and every accepted set round-trips through
# json.Marshal unchanged. FuzzLoad then runs five seconds of model blobs
# through core.Load (the body of POST /models/{name}): no panic or fatal
# error, and every accepted model survives Save → Load with bit-equal
# parameters and normals. FuzzLoadJSONL then runs five seconds of streams
# through store.LoadJSONL: no panic, and every span the store holds passes
# trace.Span.Valid. FuzzScore then runs five seconds of request bodies
# through the model server's handler on a published model: no panic, no
# 5xx, and no result for a trace holding a span trace.Span.Valid rejects.
# FuzzAssemble then runs five seconds of span lists (duplicate IDs,
# orphans, self-parents, cycles, mixed trace IDs, equal starts, spans
# Valid rejects) through trace.Assemble and trace.AssembleAll against the
# reference assembly in the package's tests: equal traces, error kinds
# and skip counts (internal/trace/testdata/fuzz).
# The last four cap the minimisation of a new input at 200 runs: the
# default 60 s would spend all five seconds minimising the first
# interesting input.
# A failing input is written under testdata/fuzz; commit it with the fix.
fuzz-smoke:
	@for target in FuzzDecodeOTLP FuzzDecodeZipkin FuzzDecodeJaeger FuzzDecodeSpans; do \
		$(GO) test -run=^$$ -fuzz="^$$target$$" -fuzztime=5s ./internal/otel || exit 1; done
	$(GO) test -run=^$$ -fuzz='^FuzzMatmulAcc$$' -fuzztime=5s ./internal/tensor
	$(GO) test -run=^$$ -fuzz='^FuzzMatmulNT$$' -fuzztime=5s ./internal/tensor
	$(GO) test -run=^$$ -fuzz='^FuzzAddMin$$' -fuzztime=5s ./internal/tensor
	$(GO) test -run=^$$ -fuzz='^FuzzParseTraceparent$$' -fuzztime=5s ./internal/obs
	$(GO) test -run=^$$ -fuzz='^FuzzParseRules$$' -fuzztime=5s ./internal/obs/alert
	$(GO) test -run=^$$ -fuzz='^FuzzLoad$$' -fuzztime=5s -fuzzminimizetime=200x ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzLoadJSONL$$' -fuzztime=5s -fuzzminimizetime=200x ./internal/store
	$(GO) test -run=^$$ -fuzz='^FuzzScore$$' -fuzztime=5s -fuzzminimizetime=200x ./internal/modelserver
	$(GO) test -run=^$$ -fuzz='^FuzzAssemble$$' -fuzztime=5s -fuzzminimizetime=200x ./internal/trace
