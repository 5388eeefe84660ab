"""Wavefront-profile analysis of dependence DAGs.

The *average* wavefront size (Appendix A) summarizes parallelizability in
one number, but scheduling behaviour depends on the whole width profile:
warm-up ramps (single-source grids), constant-width bands (natural FEM
orders), and spiky irregular profiles schedule very differently.  These
helpers compute the profile and the summary statistics the dataset design
in this reproduction is based on (see :mod:`repro.experiments.datasets`).
"""

from __future__ import annotations

import numpy as np

from repro.graph.dag import DAG
from repro.graph.wavefront import wavefront_levels

__all__ = ["wavefront_profile", "profile_statistics"]


def wavefront_profile(dag: DAG) -> np.ndarray:
    """Width of every wavefront level, in level order."""
    if dag.n == 0:
        return np.zeros(0, dtype=np.int64)
    level = wavefront_levels(dag)
    widths = np.zeros(int(level.max()) + 1, dtype=np.int64)
    np.add.at(widths, level, 1)
    return widths


def profile_statistics(dag: DAG) -> dict[str, float]:
    """Summary statistics of the wavefront profile.

    Returns
    -------
    dict with keys:
        ``levels``       number of wavefronts;
        ``mean_width``   average wavefront size (the Appendix-A metric);
        ``median_width`` robust central width;
        ``max_width``    peak parallelism;
        ``warmup_levels`` levels before the width first reaches half of
                          the median (the ramp a scheduler must climb —
                          large for single-source grids, ~0 for natural
                          FEM bands);
        ``width_cv``     coefficient of variation of widths (irregularity).
    """
    widths = wavefront_profile(dag)
    if widths.size == 0:
        return {
            "levels": 0, "mean_width": 0.0, "median_width": 0.0,
            "max_width": 0.0, "warmup_levels": 0, "width_cv": 0.0,
        }
    median = float(np.median(widths))
    threshold = max(median / 2.0, 1.0)
    above = np.nonzero(widths >= threshold)[0]
    warmup = int(above[0]) if above.size else int(widths.size)
    mean = float(widths.mean())
    return {
        "levels": int(widths.size),
        "mean_width": mean,
        "median_width": median,
        "max_width": float(widths.max()),
        "warmup_levels": warmup,
        "width_cv": float(widths.std() / mean) if mean else 0.0,
    }
