.PHONY: all build test analyze bench bench-smoke bench-check bench-datalog bench-maintain-par bench-maintain-count model-check model-check-smoke servebench-selftest ci clean

all: build

build:
	dune build @all

# OCAMLRUNPARAM=b: backtraces from any executor failure inside the
# stress matrix (test/test_parallel.ml runs up to 8 domains per case)
test: model-check-smoke
	OCAMLRUNPARAM=b dune runtest

# static analysis of every example program: strata, effect sets,
# ownership verification, maintenance advice; exits non-zero on lint
# errors (warnings pass)
analyze:
	@for f in examples/*.dl; do \
	  echo "== $$f"; \
	  dune exec bin/dms.exe -- analyze $$f || exit 1; \
	done

# exhaustive bounded model checking of the executor's concurrency
# protocols (lib/analysis); needs the instrumented Vatomic, hence the
# analysis profile. The smoke variant is part of `make test`.
model-check:
	dune exec --profile analysis bin/model_check.exe

model-check-smoke:
	dune exec --profile analysis bin/model_check.exe -- --smoke

bench:
	dune exec bench/main.exe

# compiled plans vs the interpreter: materialization + maintenance
# batches on twin databases, plus the executor-composed row; writes
# BENCH_datalog.json
bench-datalog:
	dune exec bench/main.exe -- datalog

# real parallel DRed maintenance (Incremental.apply ~domains) vs the
# serial walk at 2/4/8 worker domains, with a database-parity assert
# on every configuration; writes BENCH_maintain_par.json
bench-maintain-par:
	dune exec bench/main.exe -- maintain-par

# counting vs DRed maintenance on deletion-heavy update streams, with
# a database-parity assert on every program x mix cell; writes
# BENCH_maintain_count.json
bench-maintain-count:
	dune exec bench/main.exe -- maintain-count

# tiny traces through the full dispatch matrix (both executors, all
# domain counts, Executor.check everywhere), a small compiled-vs-
# interpreter pass, a 2-domain parallel-maintenance parity pass and
# the counting-vs-DRed parity grid; then one short traced servebench run per serve-path workload
# (parity against its twin), whose report line (configuration and
# exact work counters) is kept; under a minute; writes
# BENCH_*_smoke.json into the current directory. Needs at least 2
# cores: servebench refuses wide-par (2 domains) and tc-read (driver
# plus commit domain) on a 1-core host, and the target then fails
bench-smoke:
	dune exec bench/main.exe -- dispatch-smoke datalog-smoke maintain-par-smoke maintain-count-smoke
	@for w in tc-copy wide-par tc-read; do \
	  echo "== servebench $$w"; \
	  out=$$(python3 servebench/run.py --workload $$w --seed 7 --seconds 2 --trace 1) \
	    || { printf '%s\n' "$$out"; exit 1; }; \
	  printf '%s\n' "$$out" | tail -n 2 | head -n 1 > BENCH_servebench_$${w}_smoke.json; \
	done

# compare the BENCH_*_smoke.json of the last `make bench-smoke` against
# the committed baselines: fails on parity drift (task/tuple/changed
# counts, workload structure, servebench's exact work counters), never
# on timing noise — policy in EXPERIMENTS.md. Refresh baselines by copying the fresh files over
# tools/baselines/ when a change legitimately moves the counts.
bench-check:
	dune exec tools/bench_check.exe -- --baseline tools/baselines --fresh .

# the serve-path benchmark's self-check: every workload, parity and
# layer attribution, about a minute
servebench-selftest:
	python3 servebench/selftest.py

# what .github/workflows/ci.yml runs per compiler
ci: build test analyze bench-smoke bench-check servebench-selftest

clean:
	dune clean
