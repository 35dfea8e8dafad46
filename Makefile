PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: test bench

# Tier-1 verification: the full unit/integration test suite, including
# quick-scale sanity checks of every table, figure and ablation
# (regenerate those artifacts with python -m repro.experiments).
test:
	$(PYTHON) -m pytest -x -q

# End-to-end benchmark: the five workloads of BENCHMARK.json, each in
# a fresh process (see benchmarks/e2e/README.md; compare two runs'
# --out files with benchmarks/e2e/compare.py).
bench:
	$(PYTHON) benchmarks/e2e/run.py --seed 0

