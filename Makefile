# Tier-1 gate: everything a PR must keep green (see ROADMAP.md).
#
# All scratch output lives under one temp root ($(TMP)); the CLIs used
# by the smoke targets are built once into $(TMP)/bin via the
# shared Go build cache instead of per-target `go run` compiles.
TMP := /tmp/repro-make
BIN := $(TMP)/bin

.PHONY: check build bench-build test vet fmt lint verify fuzz-short smoke paper-golden store-smoke determinism explain-smoke sweep-smoke serve-smoke static-smoke bench-smoke clean

check: vet fmt lint build bench-build test fuzz-short verify smoke paper-golden store-smoke determinism explain-smoke sweep-smoke serve-smoke static-smoke bench-smoke

vet:
	go vet ./...

# Formatting gate: fails, listing the files, when any Go file in the
# tree (the benchmark module included) is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi
	@echo "fmt ok: gofmt -l lists no file"

# Determinism linter: no map-order iteration, wall-clock reads or
# math/rand in packages whose output must be byte-identical (see
# docs/VERIFY.md). Part of the determinism gate.
lint: $(BIN)/detlint
	$(BIN)/detlint .

$(BIN)/detlint: build
	@mkdir -p $(BIN)
	go build -o $@ ./cmd/detlint

# Static machine-code verification of every seed benchmark on both
# ISAs: encoding ranges, CFG/delay slots, def-before-use, stack
# discipline (docs/VERIFY.md). Exit 3 on any violation.
verify: $(BIN)/repro
	$(BIN)/repro -verify

# Short fuzz passes: random instruction streams must never panic the
# verifier, and generated corpus programs must compile, verify and
# compute identical results on every ISA (the standing miscompile
# fuzzer, docs/SWEEP.md).
fuzz-short:
	go test ./internal/verify/ -fuzz FuzzVerify -fuzztime 10s -run '^$$'
	go test ./internal/mcc/ -fuzz FuzzDifferential -fuzztime 10s -run '^$$'
	go test ./internal/static/ -fuzz FuzzContainment -fuzztime 10s -run '^$$'

build:
	go build ./...

# The benchmark harness is its own module (benchmark/go.mod replaces
# repro with ..), so the root build and test skip it; vet and build it
# here so an API change in the library cannot break it unnoticed. The
# binary goes to the scratch root, not into the source tree.
bench-build:
	cd benchmark && go vet ./... && go build -o $(TMP)/bench-build/ ./...

test:
	go test -race ./...

$(BIN)/repro: build
	@mkdir -p $(BIN)
	go build -o $@ ./cmd/repro

$(BIN)/perfgate: build
	@mkdir -p $(BIN)
	go build -o $@ ./cmd/perfgate

$(BIN)/simd: build
	@mkdir -p $(BIN)
	go build -o $@ ./cmd/simd

# End-to-end smoke: one experiment with structured output attached.
smoke: $(BIN)/repro
	$(BIN)/repro -run fig4 -json $(TMP)/smoke >/dev/null
	@test -s $(TMP)/smoke/fig4.json && echo "smoke ok: $(TMP)/smoke/fig4.json"

# Paper golden: the text of every registered experiment must match the
# checked-in reference line for line, and a mismatch prints the lines
# that moved. TestPaperGoldenMatchesDigests holds the reference to
# benchmark/testdata/paper.sha256. After an intended output change,
# regenerate the reference with
#   go run ./cmd/repro -run all -timing=false > internal/experiments/testdata/paper.txt
# and review its diff.
paper-golden: $(BIN)/repro
	$(BIN)/repro -run all -timing=false > $(TMP)/paper.txt
	diff -u internal/experiments/testdata/paper.txt $(TMP)/paper.txt
	@echo "paper golden ok: all experiments match internal/experiments/testdata/paper.txt"

# Store smoke: a run writes the columnar measurement store alongside the
# JSON, a second run reproduces it byte for byte, the query CLI can read
# it back, and perfgate's cycle gate passes the pair (docs/STORE.md).
store-smoke: $(BIN)/repro $(BIN)/perfgate
	$(BIN)/repro -run fig4 -json $(TMP)/store-a -timing=false >/dev/null
	$(BIN)/repro -run fig4 -json $(TMP)/store-b -timing=false >/dev/null
	cmp $(TMP)/store-a/points.mcst $(TMP)/store-b/points.mcst
	$(BIN)/repro -query 'by=cycles top=3' -store $(TMP)/store-a/points.mcst | grep -q '"matched"'
	$(BIN)/perfgate -surface $(TMP)/store-a/points.mcst,$(TMP)/store-b/points.mcst
	@echo "store smoke ok: $(TMP)/store-a/points.mcst round-trips and reproduces"

# Determinism guard: the same experiment run twice — once sequentially,
# once in parallel through the job scheduler — must produce
# byte-identical stdout and structured output (-timing=false strips the
# only wall-clock field; metrics.json is excluded — it holds timing
# histograms by design).
determinism: $(BIN)/repro
	$(BIN)/repro -run fig4 -json $(TMP)/det-a -timing=false > $(TMP)/det-a.out
	$(BIN)/repro -run fig4 -json $(TMP)/det-b -timing=false > $(TMP)/det-b.out
	$(BIN)/repro -run fig4 -json $(TMP)/det-j8 -timing=false -jobs 8 > $(TMP)/det-j8.out
	cmp $(TMP)/det-a.out $(TMP)/det-b.out
	cmp $(TMP)/det-a/fig4.json $(TMP)/det-b/fig4.json
	cmp $(TMP)/det-a/summary.json $(TMP)/det-b/summary.json
	cmp $(TMP)/det-a.out $(TMP)/det-j8.out
	cmp $(TMP)/det-a/fig4.json $(TMP)/det-j8/fig4.json
	cmp $(TMP)/det-a/summary.json $(TMP)/det-j8/summary.json
	cmp $(TMP)/det-a/points.mcst $(TMP)/det-b/points.mcst
	cmp $(TMP)/det-a/points.mcst $(TMP)/det-j8/points.mcst
	@echo "determinism ok: -jobs 1 and -jobs 8 byte-identical (incl. points.mcst)"

# Explain smoke: the A/B drill-down (surface diff → stall heatmaps →
# annotated disassembly, docs/EXPLAIN.md) on a fig4-style pair must be
# byte-identical across repeated runs and under the parallel scheduler,
# text and JSON both.
explain-smoke: $(BIN)/repro
	$(BIN)/repro -explain 'a=D16/16/2 b=DLXe/32/3 bench=towers waits=1 top=1 rows=6' -json $(TMP)/exp-a > $(TMP)/exp-a.out
	$(BIN)/repro -explain 'a=D16/16/2 b=DLXe/32/3 bench=towers waits=1 top=1 rows=6' -json $(TMP)/exp-b > $(TMP)/exp-b.out
	$(BIN)/repro -explain 'a=D16/16/2 b=DLXe/32/3 bench=towers waits=1 top=1 rows=6' -json $(TMP)/exp-j8 -jobs 8 > $(TMP)/exp-j8.out
	cmp $(TMP)/exp-a.out $(TMP)/exp-b.out
	cmp $(TMP)/exp-a.out $(TMP)/exp-j8.out
	cmp $(TMP)/exp-a/explain.json $(TMP)/exp-b/explain.json
	cmp $(TMP)/exp-a/explain.json $(TMP)/exp-j8/explain.json
	@echo "explain smoke ok: A/B drill-down byte-identical across runs and -jobs 8"

# Sweep smoke: a small full-factorial sweep over generated programs
# must pass every verify + differential gate, log exactly the
# checked-in reference (static summary lines included), produce a
# byte-identical surface sequentially and under -jobs 8, and answer
# queries (docs/SWEEP.md). After an intended log change, regenerate the
# reference with
#   go run ./cmd/repro -sweep 'classes=loopy,callheavy count=2 seed=7 waits=0-2' > internal/sweep/testdata/smoke.log
# and review its diff.
sweep-smoke: $(BIN)/repro
	$(BIN)/repro -sweep 'classes=loopy,callheavy count=2 seed=7 waits=0-2' -store $(TMP)/sweep-a.mcst -faildir $(TMP)/sweep-fail-a > $(TMP)/sweep-a.out
	$(BIN)/repro -sweep 'classes=loopy,callheavy count=2 seed=7 waits=0-2' -store $(TMP)/sweep-b.mcst -faildir $(TMP)/sweep-fail-b -jobs 8 > $(TMP)/sweep-b.out
	diff -u internal/sweep/testdata/smoke.log $(TMP)/sweep-a.out
	cmp $(TMP)/sweep-a.out $(TMP)/sweep-b.out
	cmp $(TMP)/sweep-a.mcst $(TMP)/sweep-b.mcst
	$(BIN)/repro -query 'by=cycles top=3' -store $(TMP)/sweep-a.mcst | grep -q '"matched"'
	@echo "sweep smoke ok: corpus verified, log matches internal/sweep/testdata/smoke.log, surface byte-identical across -jobs 8"

# Static-analyzer smoke: the zero-simulation cost/density sweep over
# all 90 images must exit clean, print exactly the checked-in text,
# write a static.json whose sha256 is the pinned one, and reproduce
# both byte for byte across repeated runs and under the parallel pool
# (docs/STATIC.md). After an intended output change, regenerate both
# references with
#   go run ./cmd/repro -static -json /tmp/static > internal/static/testdata/repro-static.txt && sha256sum /tmp/static/static.json | cut -d' ' -f1 > internal/static/testdata/repro-static.json.sha256
# and review their diff.
static-smoke: $(BIN)/repro
	$(BIN)/repro -static -json $(TMP)/static-a > $(TMP)/static-a.out
	$(BIN)/repro -static -json $(TMP)/static-b > $(TMP)/static-b.out
	$(BIN)/repro -static -json $(TMP)/static-j8 -jobs 8 > $(TMP)/static-j8.out
	diff -u internal/static/testdata/repro-static.txt $(TMP)/static-a.out
	@got=$$(sha256sum $(TMP)/static-a/static.json | cut -d' ' -f1); want=$$(cat internal/static/testdata/repro-static.json.sha256); \
	if [ "$$got" != "$$want" ]; then echo "static.json sha256 $$got, want $$want (internal/static/testdata/repro-static.json.sha256)"; exit 1; fi
	cmp $(TMP)/static-a.out $(TMP)/static-b.out
	cmp $(TMP)/static-a.out $(TMP)/static-j8.out
	cmp $(TMP)/static-a/static.json $(TMP)/static-b/static.json
	cmp $(TMP)/static-a/static.json $(TMP)/static-j8/static.json
	@echo "static smoke ok: text and static.json match the checked-in references, byte-identical across runs and -jobs 8"

# Service smoke: boot simd, hit /healthz, run the same one-point batch
# twice (the repeat must be served from the result cache with an
# identical body), check /metrics shows the hit, then shut down
# gracefully with SIGTERM.
serve-smoke: $(BIN)/simd
	@sh scripts/serve_smoke.sh $(BIN)/simd $(TMP)/serve-smoke

# Bench smoke: one iteration of each layer benchmark of the simulator
# (bare, pipeline engine, paper cache systems) and the store, so they
# keep building and running. Numbers are noise at 1x; wall-clock speed
# is judged by `bash benchmark/run.sh` (benchmark/README.md), and
# TestRunDoesNotAllocate holds the loop's allocation budget.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./internal/sim/ ./internal/store/
	@echo "bench smoke ok: sim and store layer benchmarks ran"

clean:
	rm -rf $(TMP) /tmp/repro-smoke
