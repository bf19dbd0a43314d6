PYTHON ?= python
SMOKE_WORKERS ?= 2
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-slow test-cov compile lint ci ci-golden check-regression \
	bench bench-smoke bench-overload bench-fault-storm bench-chaos \
	bench-throughput bench-observability bench-population regen-golden \
	docs docs-cli workload workflow population

## tier-1 test suite (slow-marked tests are deselected; see test-slow)
test:
	$(PYTHON) -m pytest -x -q

## tier-1 suite with the coverage gate CI enforces (>=80% on stats +
## parallel + faults + resilience + observe + columnar + the invocation
## step both replay loops share).  Falls back to
## the plain tier-1 run when pytest-cov is not installed, so `make ci`
## works in minimal environments too.
test-cov:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -x -q \
			--cov=repro.stats --cov=repro.parallel \
			--cov=repro.faults --cov=repro.resilience \
			--cov=repro.observe --cov=repro.columnar \
			--cov=repro.simulator.step \
			--cov-report=term-missing --cov-fail-under=80; \
	else \
		echo "pytest-cov not installed; running tier-1 tests without the coverage gate"; \
		$(PYTHON) -m pytest -x -q; \
	fi

## long-running tests only (large-scale parallel equivalence, ...)
test-slow:
	$(PYTHON) -m pytest -x -q -m slow

## byte-compile the library as a syntax gate
compile:
	$(PYTHON) -m compileall -q src

## critical-rule lint gate (see ruff.toml); skipped when ruff is absent
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint gate"; \
	fi

## intentionally regenerate the golden-trace fixtures (commit the diff!)
regen-golden:
	$(PYTHON) tests/golden/builder.py

## golden-drift gate: regenerating the fixtures must be a no-op, so fixture
## drift can never land silently
ci-golden: regen-golden
	git diff --exit-code tests/golden/

## perf-regression gate: emitted BENCH_*.json vs committed baselines (+-25%)
check-regression:
	$(PYTHON) benchmarks/check_regression.py

## regenerate the CLI reference from the argparse definition
docs-cli:
	$(PYTHON) tools/gen_cli_docs.py

## docs gate: the generated CLI reference must be diff-clean (the ci-golden
## pattern applied to documentation), every markdown link must resolve, and
## every runnable cookbook snippet must execute
docs: docs-cli
	git diff --exit-code docs/cli.md
	$(PYTHON) tools/check_links.py
	$(PYTHON) -m pytest tests/test_docs_examples.py -q

## what CI runs — the workflow invokes these same targets, one per step,
## in this order, so local `make ci` and CI can never drift
ci: compile lint test-cov test-slow bench-smoke bench-overload bench-fault-storm bench-chaos bench-throughput bench-observability check-regression ci-golden docs

## regenerate all paper figures/tables (pytest-benchmark harness)
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q -s

## fast scheduler-regression gate: 10k replay + workflow + sharded +
## overloaded equivalence checks under a time budget (emits BENCH_smoke.json)
bench-smoke:
	$(PYTHON) benchmarks/smoke_replay.py --workers $(SMOKE_WORKERS)

## overload sweep benchmark (emits BENCH_overload_sweep.json)
bench-overload:
	$(PYTHON) -m pytest benchmarks/bench_overload_sweep.py -q -s

## fault-storm / metastable-failure benchmark (emits BENCH_fault_storm.json)
bench-fault-storm:
	$(PYTHON) -m pytest benchmarks/bench_fault_storm.py -q -s

## chaos replay benchmark: supervision overhead (<=5%) + crash-recovery
## wall clock under an injected worker kill (emits BENCH_chaos_replay.json)
bench-chaos:
	$(PYTHON) -m pytest benchmarks/bench_chaos_replay.py -q -s

## 100k trace + workflow throughput benchmarks (refresh the BENCH jsons the
## perf-regression gate compares — a gated benchmark CI never re-ran would
## be comparing the committed artifact against itself)
bench-throughput:
	$(PYTHON) -m pytest benchmarks/bench_workload_throughput.py benchmarks/bench_workflow_throughput.py -q

## pure-observer overhead gate: detached hooks <=1%, attached observers
## <=10% on the 100k trace (emits BENCH_observability.json)
bench-observability:
	$(PYTHON) -m pytest benchmarks/bench_observability.py -q -s

## million-function population replay (multi-minute; emits
## BENCH_population.json — commit the refreshed artifact, check-regression
## gates it against baselines.json like the other committed-artifact tiers)
bench-population:
	$(PYTHON) -m pytest benchmarks/bench_population_replay.py -q -s

## quick trace-driven workload replay demo
workload:
	$(PYTHON) -m repro.cli workload --pattern mixed --duration 300 --rate 2

## quick DAG workflow replay demo (chain / fan-out / branch compositions)
workflow:
	$(PYTHON) -m repro.cli workflow --workflow pipeline --duration 300 --rate 1

## quick multi-tenant population replay demo (synthetic Zipf/diurnal/burst)
population:
	$(PYTHON) -m repro.cli population --functions 2000 --duration 300 --rate 50 --workers 2
