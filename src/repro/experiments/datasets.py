"""The five evaluation datasets (Section 6.2), built offline.

* ``suitesparse`` — FEM/structural proxies standing in for the SuiteSparse
  SPD sample of Table A.1;
  the selection criteria of Section 6.2.1 are applied: enough flops and
  ``avg wavefront >= 2 * 22`` cores.
* ``metis`` — the same matrices symmetrically permuted with our nested
  dissection ordering before taking the lower triangle (Section 6.2.2).
* ``ichol`` — IC(0) factors of the minimum-degree-ordered matrices
  (Section 6.2.3).
* ``erdos_renyi`` — Section 6.2.4's construction, scaled to N = 10,000
  with the same three density regimes (p chosen to hit comparable average
  wavefront regimes).
* ``narrow_band`` — Section 6.2.5's construction with the paper's exact
  ``(p, B)`` pairs at N = 10,000.

Everything is deterministic given the per-instance seeds.  Instances are
cached in-process because several benchmarks share them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.errors import ConfigurationError
from repro.graph.dag import DAG
from repro.graph.wavefront import critical_path_length
from repro.matrix.csr import CSRMatrix
import numpy as _np

from repro.matrix.generators import (
    banded_stencil_lower,
    erdos_renyi_lower,
    grid_laplacian_2d,
    kron_expand,
    narrow_band_lower,
    parabolic_like,
    random_geometric_spd,
    rcm_mesh,
    spd_from_edges,
)
from repro.matrix.ichol import ichol0
from repro.matrix.ordering.amd import minimum_degree_ordering
from repro.matrix.ordering.nd import nested_dissection_ordering
from repro.matrix.ordering.rcm import rcm_ordering
from repro.matrix.permute import permute_symmetric
from repro.matrix.properties import flop_count

__all__ = ["DatasetInstance", "build_dataset", "dataset_names"]

#: Section 6.2.1 selection rule, scaled to proxy sizes: the paper requires
#: >= 2M flops and avg wavefront >= 2 * 22; the flop floor is scaled by the
#: ~50x size reduction of the proxies, the wavefront floor is kept as-is.
MIN_FLOPS = 30_000
MIN_AVG_WAVEFRONT = 44.0


class DatasetInstance:
    """A named lower-triangular SpTRSV instance with its DAG and stats."""

    __slots__ = ("name", "lower", "dag", "n_wavefronts", "avg_wavefront",
                 "flops")

    def __init__(self, name: str, lower: CSRMatrix) -> None:
        self.name = name
        self.lower = lower
        self.dag = DAG.from_lower_triangular(lower)
        self.n_wavefronts = critical_path_length(self.dag)
        self.avg_wavefront = (
            self.dag.n / self.n_wavefronts if self.n_wavefronts else 0.0
        )
        self.flops = flop_count(lower)

    @property
    def n(self) -> int:
        return self.lower.n

    @property
    def nnz(self) -> int:
        return self.lower.nnz

    def __repr__(self) -> str:
        return (
            f"DatasetInstance({self.name!r}, n={self.n}, nnz={self.nnz}, "
            f"avg_wf={self.avg_wavefront:.0f})"
        )


# ---------------------------------------------------------------------------
# the symmetric SPD "SuiteSparse proxy" matrices
# ---------------------------------------------------------------------------
def _spd_proxies() -> list[tuple[str, Callable[[], CSRMatrix]]]:
    """Full symmetric SPD matrices mimicking the Table A.1 regimes.

    Names hint at the SuiteSparse matrix whose structure class they proxy.
    """
    return [
        # RCM-ordered structural FEM sheets (af_shell/af_0_k101 class):
        # consecutive-id wavefront levels, local downward coupling
        ("afshell_220x180", lambda: rcm_mesh(
            220, 180, reach=1, lateral_prob=0.25, long_edge_prob=0.03,
            seed=1)),
        ("afshell_150x300", lambda: rcm_mesh(
            150, 300, reach=1, lateral_prob=0.3, long_edge_prob=0.03,
            seed=2)),
        # multi-DOF variants (audikw_1/bone010 class): 3-4 DOF per node
        ("audikw_110x3", lambda: kron_expand(
            rcm_mesh(110, 110, reach=1, lateral_prob=0.3, seed=3),
            3, seed=4)),
        ("bone_80x4", lambda: kron_expand(
            rcm_mesh(80, 90, reach=2, lateral_prob=0.2,
                     long_edge_prob=0.02, seed=5), 4, seed=6)),
        # wide shallow solid (Emilia/Fault class)
        ("emilia_60x500", lambda: rcm_mesh(
            60, 500, reach=2, lateral_prob=0.25, long_edge_prob=0.03,
            seed=7)),
        # random band (s3dkt3m2/msdoor class)
        ("msdoor_24k", lambda: _sym_stencil(24000, 400, 8, seed=8)),
        # light scalar grids (thermal2/ecology2/apache2 class): 3 nnz/row,
        # single-source warm-up ramp — the hardest shape for GrowLocal
        ("thermal_180", lambda: grid_laplacian_2d(180, 180)),
        # mixed solid (Serena/Geo class): 2 DOF, moderate lateral coupling
        ("serena_100x220", lambda: kron_expand(
            rcm_mesh(100, 220, reach=1, lateral_prob=0.4,
                     long_edge_prob=0.04, seed=13), 2, seed=14)),
        # unstructured mesh (offshore/StocF class)
        ("offshore_geo_d2", lambda: kron_expand(
            random_geometric_spd(6000, radius=0.021, seed=9), 2, seed=10)),
        # extreme parallelism outliers (parabolic_fem/bundle_adj class)
        ("parabolic_30k", lambda: parabolic_like(
            30000, pool=3000, degree=3, seed=11)),
        ("bundle_20k", lambda: parabolic_like(
            20000, pool=4000, degree=11, seed=12)),
    ]


def _sym_stencil(n: int, bandwidth: int, offsets: int, *,
                 seed: int) -> CSRMatrix:
    """Symmetric SPD matrix whose lower triangle is a banded stencil."""
    pattern = banded_stencil_lower(n, bandwidth, offsets, seed=seed)
    rows = _np.repeat(_np.arange(n, dtype=_np.int64), pattern.row_nnz())
    strict = pattern.indices < rows
    return spd_from_edges(n, rows[strict], pattern.indices[strict])


def _filter(instances: list[DatasetInstance]) -> list[DatasetInstance]:
    """Apply the Section 6.2.1 selection rule (scaled)."""
    return [
        inst
        for inst in instances
        if inst.flops >= MIN_FLOPS and inst.avg_wavefront >= MIN_AVG_WAVEFRONT
    ]


@lru_cache(maxsize=None)
def _suitesparse() -> tuple[DatasetInstance, ...]:
    out = []
    for name, build in _spd_proxies():
        lower = build().lower_triangle()
        out.append(DatasetInstance(name, lower))
    return tuple(_filter(out))


@lru_cache(maxsize=None)
def _metis() -> tuple[DatasetInstance, ...]:
    """ND-permuted variants (Section 6.2.2): permute the *symmetric*
    matrix, then take the lower triangle — non-equivalent problems with
    more available parallelism."""
    out = []
    for name, build in _spd_proxies():
        full = build()
        perm = nested_dissection_ordering(full)
        lower = permute_symmetric(full, perm).lower_triangle()
        out.append(DatasetInstance(f"{name}_metis", lower))
    return tuple(_filter(out))


@lru_cache(maxsize=None)
def _ichol() -> tuple[DatasetInstance, ...]:
    """IC(0) factors after a fill-reducing ordering (Section 6.2.3).

    The paper uses Eigen's AMD; our quotient-graph minimum degree is
    super-linear in Python, so matrices beyond 12k rows fall back to RCM.
    RCM is also fill-reducing and — unlike the nested dissection used for
    the METIS variant — keeps moderate wavefronts, reproducing Table A.3's
    characteristic position *between* the natural and METIS orderings.
    """
    out = []
    for name, build in _spd_proxies():
        full = build()
        if full.n <= 12_000:
            perm = minimum_degree_ordering(full)
        else:
            perm = rcm_ordering(full)
        permuted = permute_symmetric(full, perm)
        factor = ichol0(permuted)
        out.append(DatasetInstance(f"{name}_ichol", factor))
    return tuple(_filter(out))


@lru_cache(maxsize=None)
def _erdos_renyi() -> tuple[DatasetInstance, ...]:
    """Erdős–Rényi matrices (Section 6.2.4), N = 8,000.

    The paper uses N = 100,000 with p = 1e-4, 5e-4, 2e-3 (expected row
    degrees ~10, ~50, ~200); the proxies keep the low/medium/high degree
    regimes (~10, ~50, ~100) at N = 8,000 — wavefront statistics scale
    accordingly.  (The top degree is halved to keep the pure-Python
    transitive reduction of the SpMP baseline, whose cost is
    ``O(sum deg^2)``, within the benchmark budget.)
    """
    out = []
    n = 8_000
    configs = [("1m", 1.25e-3), ("5m", 6.25e-3), ("20m", 1.25e-2)]
    for cfg_idx, (tag, p) in enumerate(configs):
        for rep, letter in enumerate("ABC"):
            lower = erdos_renyi_lower(n, p, seed=1000 + 17 * rep + 97 * cfg_idx)
            out.append(DatasetInstance(f"ER_8k_{tag}_{letter}", lower))
    return tuple(out)


@lru_cache(maxsize=None)
def _narrow_band() -> tuple[DatasetInstance, ...]:
    """Narrow-bandwidth matrices (Section 6.2.5), N = 10,000 with the
    paper's exact (p, B) pairs."""
    out = []
    n = 10_000
    configs = [("p14_b10", 0.14, 10.0), ("p5_b20", 0.05, 20.0),
               ("p3_b42", 0.03, 42.0)]
    for cfg_idx, (tag, p, band) in enumerate(configs):
        for rep, letter in enumerate("ABC"):
            lower = narrow_band_lower(
                n, p, band, seed=2000 + 31 * rep + 89 * cfg_idx
            )
            out.append(DatasetInstance(f"NB_10k_{tag}_{letter}", lower))
    return tuple(out)


_DATASETS: dict[str, Callable[[], tuple[DatasetInstance, ...]]] = {
    "suitesparse": _suitesparse,
    "metis": _metis,
    "ichol": _ichol,
    "erdos_renyi": _erdos_renyi,
    "narrow_band": _narrow_band,
}


def dataset_names() -> list[str]:
    """The five dataset identifiers, in the paper's order."""
    return ["suitesparse", "metis", "ichol", "erdos_renyi", "narrow_band"]


def build_dataset(name: str) -> tuple[DatasetInstance, ...]:
    """Build (and cache) a dataset by name."""
    try:
        builder = _DATASETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; available: {dataset_names()}"
        ) from None
    return builder()


def dataset_statistics(name: str) -> list[dict[str, object]]:
    """Rows of the Appendix A tables: name, size, nnz, avg wavefront."""
    return [
        {
            "matrix": inst.name,
            "size": inst.n,
            "nnz": inst.nnz,
            "avg_wavefront": int(inst.avg_wavefront),
        }
        for inst in build_dataset(name)
    ]
