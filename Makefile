# Convenience targets around dune.  JOBS/BENCH_JOBS/FUZZ_TRACES tune
# the parallel sweeps and the fuzzer; see README "Running the
# evaluation in parallel".

.PHONY: all build test bench bench-quick bench-json fuzz fmt-check smoke serve explore lockfree litmus perfbench-smoke ci clean

all: build

build:
	dune build

test: build
	dune runtest

# Full evaluation reproduction + Bechamel microbenchmarks.
bench: build
	dune exec bench/main.exe

# Shrunk smoke run of the same.
bench-quick: build
	BENCH_QUICK=1 dune exec bench/main.exe

# Machine-readable bench manifest for the perf trajectory: the quick
# run, serialized to BENCH_JSON (schema persistsim-bench/1).  Compare
# two manifests with `persistsim perf old.json new.json`.
BENCH_JSON ?= /tmp/persistsim-bench.json
bench-json: build
	BENCH_QUICK=1 BENCH_OUT=$(BENCH_JSON) dune exec bench/main.exe > /dev/null
	python3 -m json.tool $(BENCH_JSON) > /dev/null

# Long differential fuzz of the persist engine against the oracle:
# 2000 traces per model (the test suite's default is 200).
fuzz: build
	FUZZ_TRACES=2000 dune exec test/test_fuzz.exe

# Formatting gate (dune files; ocamlformat is not a dependency).
fmt-check:
	dune build @fmt

# Quick end-to-end check of the observability outputs: metrics and
# trace dumps must be valid JSON, the graph export well-formed DOT.
smoke: build
	dune exec bin/persistsim.exe -- table1 --inserts 200 --metrics-out /tmp/persistsim-metrics.json > /dev/null
	python3 -m json.tool /tmp/persistsim-metrics.json > /dev/null
	dune exec bin/persistsim.exe -- fig3 --inserts 200 --trace-out /tmp/persistsim-trace.json > /dev/null
	python3 -m json.tool /tmp/persistsim-trace.json > /dev/null
	dune exec bin/persistsim.exe -- graph --design cwl --model epoch --out /tmp/persistsim-graph.dot
	grep -q "digraph persist_graph" /tmp/persistsim-graph.dot
	dune exec bin/persistsim.exe -- kv --inserts 100 > /dev/null
	dune exec bin/persistsim.exe -- kv --recovery --samples 100 > /dev/null
	dune exec bin/persistsim.exe -- perf BENCH_PR10.json > /dev/null
	dune exec bin/persistsim.exe -- perf BENCH_PR9.json BENCH_PR10.json --report-only > /dev/null

# Served KV smoke: a small sweep (the amortization table), group-commit
# recovery injection, and the buggy batcher must be caught.
serve: build
	dune exec bin/persistsim.exe -- serve --requests 768 --rate 64 --keys 96 --shards 1,2 --batch 1,8,32 > /dev/null
	dune exec bin/persistsim.exe -- serve --recovery --shards 2 --batch 3 --requests 24 --keys 16 --rate 1000 > /dev/null
	dune exec bin/persistsim.exe -- serve --recovery --buggy --shards 1 --batch 3 --requests 24 --keys 16 --rate 1000 | grep -q "RECOVERY VIOLATION"

# DPOR exploration smoke: the queue sweep against the brute-force
# oracle (same graph census, far fewer schedules), and the buggy KV
# discipline must be flagged with a replayable counter-example.
explore: build
	dune exec bin/persistsim.exe -- explore --workload queue --depth 2 --oracle --csv
	dune exec bin/persistsim.exe -- explore --workload kv --model strand --depth 2 --jobs 2 > /dev/null
	dune exec bin/persistsim.exe -- explore --workload kv --buggy --depth 2 | grep -q "RECOVERY VIOLATION"

# Lock-free CAS set: the flush-all vs NVTraverse sweep, recovery
# injection of the correct discipline, and the buggy traversal (no
# pre-CAS destination flush) must be caught.
lockfree: build
	dune exec bin/persistsim.exe -- lockfree --inserts 64 > /dev/null
	dune exec bin/persistsim.exe -- lockfree --recovery --discipline nvtraverse --depth 2 --model sc --max-schedules 2048 > /dev/null
	dune exec bin/persistsim.exe -- lockfree --recovery --discipline nvtraverse --depth 1 --model tso-buffered > /dev/null
	dune exec bin/persistsim.exe -- lockfree --buggy --depth 2 --model sc | grep -q "RECOVERY VIOLATION"

# Litmus suite: every program's outcome set checked exhaustively under
# the full machine matrix (sc, tso-sync, tso-buffered; brute force +
# engine/oracle cross-check), then again with DPOR; the queue sweep on
# the SC vs TSO machine.
litmus: build
	dune exec bin/persistsim.exe -- litmus --model all
	dune exec bin/persistsim.exe -- litmus --model all --dpor
	dune exec bin/persistsim.exe -- machine --inserts 2000 > /dev/null

# Benchmark smoke: every perfbench workload for 2 seconds, untraced.
# perfbench/run.py exits non-zero when a pinned output check fails
# (`correct: false`) or the benchmark cannot be built or run.
perfbench-smoke: build
	for w in sweep crash-check explore; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 > /dev/null || exit 1; \
	done

# What .github/workflows/ci.yml runs.
ci: fmt-check build test smoke serve explore lockfree litmus perfbench-smoke

clean:
	dune clean
