# Convenience targets for the Apollo reproduction.

GO ?= go

.PHONY: all build lint test fuzz-smoke race stress bench results quick-results cover clean serve-smoke loop-smoke flight-smoke fleet-smoke compile-smoke lineage-smoke vet-bench vet-diff loc bench-smoke bench-compare examples

# One command is the gate: everything CI's lint, test and race jobs run.
all: build lint vet-diff loc test examples fuzz-smoke bench-smoke race serve-smoke loop-smoke flight-smoke fleet-smoke compile-smoke lineage-smoke

build:
	$(GO) build ./...
	$(GO) vet ./...

# apollo-vet enforces the project invariants that have forced fixes —
# hot-path no-alloc / lock-free, typed 64-bit atomics only, lock scope
# and lock-rank order, failure-path hygiene (error sinks, cancellable
# blocking, outbound HTTP deadlines), and live waivers — over the whole
# module, eight analyzers in one pass over one fact base; the 386
# cross-build is the atomics rule's dynamic twin: the module must keep
# compiling for a 32-bit target. Copy-on-write publication, deterministic
# bytes and goroutine-leak freedom are not lints but tests that run in
# `make test`: the frozen-snapshot audits (internal/bg/cowtest, again
# under -race in `make race` and `make stress`), TestSameInputsSameBytes,
# and internal/bg's spawn-site test with bgtest.NoLeaks. Every Go file,
# untracked new ones too, must be as gofmt writes it.
lint:
	@out=$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go')); \
	[ -z "$$out" ] || { echo "lint: not gofmt-clean (run gofmt -w):" $$out >&2; exit 1; }
	$(GO) run ./cmd/apollo-vet ./...
	GOARCH=386 $(GO) build ./...

# The CI ratchet: fail on any diagnostic not in the committed baseline
# and on more live waivers than it records, so the module's finding and
# waiver counts can only go down.
vet-diff:
	GO=$(GO) bash scripts/vet_diff.sh

# The number north star 2 is judged by: non-test Go lines outside the
# benchmark module and the analyzer corpora, and internal/analysis's
# share of them. A ratchet like vet-diff: more lines than
# results/LOC_BASELINE.txt records fail, so the count goes up only by an
# edit of that file in the PR that needs it. The benchmark module's own
# non-test lines are printed on the same line, for information only (no
# ratchet), so that deletions there show too.
LOC = git ls-files $(1) | grep -v '_test.go$$' | grep -v '^benchmark/' | grep -v testdata | xargs cat | wc -l
BENCH_LOC = git ls-files 'benchmark/*.go' | grep -v '_test.go$$' | grep -v testdata | xargs cat | wc -l
loc:
	@n=$$($(call LOC,'*.go')); max=$$(cat results/LOC_BASELINE.txt); \
	echo "non-test Go lines: $$n (internal/analysis: $$($(call LOC,'internal/analysis/*.go')); baseline $$max; benchmark/: $$($(BENCH_LOC)), not ratcheted)"; \
	[ "$$n" -le "$$max" ] || { echo "loc: $$n lines, results/LOC_BASELINE.txt allows $$max; delete, or raise the baseline in this PR and say why" >&2; exit 1; }

# Self-run benchmark: the full analyzer suite over this module, with the
# machine-readable summary (per-analyzer counts, live waivers, wall
# time) written next to the other results.
vet-bench:
	$(GO) run ./cmd/apollo-vet -summary-out results/vet_summary.json ./...
	@cat results/vet_summary.json

test:
	$(GO) test ./...

# The five example programs, run and diffed against
# results/examples_output.txt (quickstart's temporary path masked).
examples:
	GO="$(GO)" bash scripts/examples.sh

# Ten seconds of each fuzz target, in the order they run:
#   FuzzParseModelOrEnvelope  the model decoder, differential against a
#                             probe and encoding/json into the format's
#                             wire structs (same accept/reject, bytes,
#                             hash and predictions), and whatever
#                             decodes must be safe to walk;
#   FuzzCompiledPredict       compiled-vs-interpreted prediction;
#   FuzzTrain                 the tree fit (dtree.Train against the
#                             re-sorting reference trainer, same bytes,
#                             every split separating);
#   FuzzParseRow              the row scanner (dataset.ParseRow, under
#                             ReadJSONL and the spool cursor, and both
#                             paths of dataset.ScanRows: the one-pass
#                             plain-row walk, checking only or converting
#                             too, and scanRow, which takes every row the
#                             walk hands back);
#   FuzzParseHeader           the frame header (it round-trips, and a
#                             segment that starts with it polls to rows or
#                             an error);
#   FuzzDecodeBatch           the telemetry batch decoder;
#   FuzzDecodePredict         the predict body decoder;
#   FuzzTailRead              the segment tail over arbitrary bytes cut
#                             anywhere (whole lines only, the longest
#                             newline-terminated prefix, offsets never
#                             back);
#   FuzzReadJournal           the loop-journal reader (events or an error);
#   FuzzDecodeOffsets         a flight record's offset trails, source
#                             mapping and snapshot decoded against any
#                             compiled tree;
#   FuzzFlightCapture         a whole capture through apollo-inspect
#                             flight's analyses.
# The row scanner, batch and predict-body decoders are each checked
# against encoding/json (same input accepted but for the documented
# narrowings, same values read). go test takes one -fuzz target per
# package run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseModelOrEnvelope$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledPredict$$' -fuzztime=10s ./internal/ctree
	$(GO) test -run '^$$' -fuzz '^FuzzTrain$$' -fuzztime=10s ./internal/dtree
	$(GO) test -run '^$$' -fuzz '^FuzzParseRow$$' -fuzztime=10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzParseHeader$$' -fuzztime=10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime=10s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePredict$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzTailRead$$' -fuzztime=10s ./internal/journal
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime=10s ./internal/looptrace
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOffsets$$' -fuzztime=10s ./internal/ctree
	$(GO) test -run '^$$' -fuzz '^FuzzFlightCapture$$' -fuzztime=10s ./cmd/apollo-inspect

race:
	$(GO) test -race ./...

# The repository benchmark (benchmark/, its own module, `replace apollo
# => ../`) calls this module's packages directly; its own 8-second check
# catches an API break against it before the benchmark pipeline runs. The
# retrain step's two microbenchmarks (window labelling, incremental spool
# poll over Table I-shaped rows), the model decode every publish, PUT and
# refresh makes (a trainer-published 41-feature envelope), the ingest
# path's two (batch decode, POST /telemetry handler)
# and the launch path's Begin + End under the stock wiring run once each,
# so they cannot rot.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench '^(BenchmarkLabel|BenchmarkParseModelOrEnvelope|BenchmarkCursorPollIncr|BenchmarkDecodeBatch|BenchmarkIngestHandler|BenchmarkTunerLaunch|BenchmarkTunerLaunchCleverLeaf)$$' -benchtime 1x ./internal/core ./internal/telemetry ./internal/server ./internal/tuner

# The before/after a performance PR quotes: ten alternating parent/change
# pairs of the repository benchmark, judged by `benchmark/run.sh -compare`
# (about 70 minutes; `make bench-compare PARENT=<ref>`).
bench-compare:
	bash scripts/bench_compare.sh $(PARENT)

# Scheduler stress under the race detector across a GOMAXPROCS sweep,
# multiplying the goroutine interleavings the single-shot race run
# explores: the closed-loop e2e scenario (it sweeps inside the test), and
# the frozen-snapshot audits of the seven publishing packages, whose
# reader runs beside each package's own writers (-cpu sweeps those).
STRESS_COUNT ?= 3
FROZEN_PKGS = ./internal/bg/cowtest ./internal/caliper ./internal/metrics ./internal/features \
	./internal/registry ./internal/client ./internal/fleet/hashring ./internal/tuner
stress:
	$(GO) test -race -count=$(STRESS_COUNT) -run 'ClosedLoop' .
	$(GO) test -race -count=$(STRESS_COUNT) -cpu 1,2,4 -run 'Frozen' $(FROZEN_PKGS)

# One benchmark per paper table/figure plus overhead/ablation benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
results:
	$(GO) run ./cmd/apollo-bench -exp all | tee results/full_results.txt

quick-results:
	$(GO) run ./cmd/apollo-bench -exp all -quick

cover:
	$(GO) test -cover ./...

# End-to-end smoke test of the model service against a real daemon:
# record -> train -> push -> predict -> metrics -> shutdown.
serve-smoke:
	GO="$(GO)" ./scripts/serve_smoke.sh

# End-to-end smoke test of the closed training loop against real
# daemons: a stale champion mispredicts a live run, telemetry flows to
# the service spool, apollo-traind retrains and publishes a challenger,
# and the running tuner hot-swaps to it before exiting.
loop-smoke:
	GO="$(GO)" ./scripts/loop_smoke.sh

# End-to-end smoke test of the flight recorder: capture a timed Chrome
# trace and a decision capture from the live debug endpoints of a running
# tuner, then validate both with apollo-inspect.
flight-smoke:
	GO="$(GO)" ./scripts/flight_smoke.sh

# End-to-end smoke test of the fleet layer: three replicas with peer
# delta sync, a champion converging to one version/ETag everywhere, a
# client fleet (apollo-tune -clients 4) surviving a kill of the
# ring-owner replica with zero failed model refreshes, and a collective
# retrain over the merged spools.
fleet-smoke:
	GO="$(GO)" ./scripts/fleet_smoke.sh

# End-to-end smoke test of the compiled decision path: train -> publish
# (registry compiles) -> apollo-inspect models -verify differentially
# checks compiled vs interpreted predictions locally and through the
# live /predict endpoint.
compile-smoke:
	GO="$(GO)" ./scripts/compile_smoke.sh

# End-to-end smoke test of closed-loop lineage tracing: three replicas,
# apollo-traind, and apollo-tune journal loop events into one directory;
# one forced drift cycle must stitch into a complete causal timeline
# with a nonzero loop reaction time, and the publish replica must export
# the apollo_model_lineage info-series.
lineage-smoke:
	GO="$(GO)" ./scripts/lineage_smoke.sh

clean:
	$(GO) clean ./...
