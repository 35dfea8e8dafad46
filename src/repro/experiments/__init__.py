"""Experiment harness: reproduce every table and figure of the paper.

* :mod:`repro.experiments.world` — one run's wiring (:class:`World`);
* :mod:`repro.experiments.runner` — run one (trace, policy) pair;
* :mod:`repro.experiments.tables` — Tables 1 and 2;
* :mod:`repro.experiments.figures` — Figures 1-4;
* :mod:`repro.experiments.ablations` — design-choice sweeps
  (reservation mode, paging-model parameters, network speed,
  baselines);
* ``python -m repro.experiments`` — CLI to run everything.
"""

import importlib

#: Public name -> the submodule defining it, imported on first access.
#: Importing the package eagerly would load the runner before
#: ``python -m repro.experiments.runner`` executes it as ``__main__``.
_EXPORTS = {
    "POLICIES": "world",
    "World": "world",
    "build_blocking_trace": "scenario",
    "default_config": "runner",
    "run_blocking_scenario": "scenario",
    "run_experiment": "runner",
    "run_group": "runner",
    "run_heterogeneity_experiment": "heterogeneity",
    "run_trace": "runner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
