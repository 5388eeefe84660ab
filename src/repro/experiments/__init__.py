"""Experiment harness: datasets, runner, metrics, tables, figures.

Reproduces every table and figure of the paper's evaluation (Section 7 and
appendices); the ``benchmarks/`` suite regenerates them, one
``test_<table-or-figure>.py`` module per experiment.
"""

from repro.experiments.datasets import (
    DatasetInstance,
    build_dataset,
    dataset_names,
)
from repro.experiments.metrics import (
    amortization_threshold,
    barrier_reduction,
)
from repro.experiments.parallel import run_suite_parallel
from repro.experiments.runner import (
    ExperimentResult,
    run_instance,
    run_suite,
)

__all__ = [
    "DatasetInstance",
    "ExperimentResult",
    "amortization_threshold",
    "barrier_reduction",
    "build_dataset",
    "dataset_names",
    "run_instance",
    "run_suite",
    "run_suite_parallel",
]
