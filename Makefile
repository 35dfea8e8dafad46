PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: test bench bench-full

# Tier-1 verification: the full unit/integration test suite.
test:
	$(PYTHON) -m pytest -x -q

# End-to-end benchmark: the five workloads of BENCHMARK.json, each in
# a fresh process (see benchmarks/e2e/README.md; compare two runs'
# --out files with benchmarks/e2e/compare.py).
bench:
	$(PYTHON) benchmarks/e2e/run.py --seed 0

# The full experiment benchmark suite (figures, tables, ablations,
# scenario) in quick mode, plus the end-to-end benchmark's checks.
bench-full:
	$(PYTHON) -m pytest benchmarks -q
