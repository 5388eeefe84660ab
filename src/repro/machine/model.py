"""Machine models: the simulated counterparts of the paper's testbeds.

All times are in abstract *cycles*.  The parameters are calibrated so that
the *ratios* that drive the paper's evaluation match its testbeds at the
proxy problem sizes used here (Section 6.3 machines ran matrices roughly
20x larger; barrier latency is scaled by the same factor so that the
barrier-cost-to-total-work ratio of a wavefront schedule is preserved —
see :mod:`repro.experiments.calibration` for the fit):

* per-row compute cost  ``row_overhead + cycles_per_nnz * nnz(row)``;
* cache misses cost ``miss_penalty`` each (reuse-distance model);
* a global barrier costs ``barrier_latency`` cycles (grows with core count
  in reality; presets encode the 22-core value and
  :meth:`MachineModel.barrier_cost` scales it mildly with active cores);
* asynchronous point-to-point synchronization costs ``p2p_latency`` per
  cross-core dependency wait plus ``p2p_check`` per flag check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["MachineModel", "get_machine", "list_machines"]


@dataclass(frozen=True)
class MachineModel:
    """Parameters of a simulated shared-memory multicore.

    Attributes
    ----------
    name:
        Preset identifier.
    n_cores:
        Physical cores on one socket.
    cycles_per_nnz:
        Compute cycles per stored entry of a row (multiply + add + indexing).
    row_overhead:
        Fixed cycles per row (loop control, division by the diagonal).
    barrier_latency:
        Cycles per global synchronization barrier at 22 active cores.
    barrier_per_core:
        Additional barrier cycles per active core beyond one (tree/linear
        combining term).
    p2p_latency:
        Cycles a consumer waits after a cross-core producer finishes
        (cache-line transfer in the asynchronous model).
    p2p_check:
        Cycles per cross-core dependency flag check (busy-wait read).
    cache_lines:
        Per-core cache capacity in lines (reuse-distance window).
    line_elems:
        Matrix/vector elements per cache line (8 doubles in 64 bytes).
    miss_penalty:
        Cycles per cache miss (latency already overlapped with compute is
        excluded; this is the exposed stall).
    clock_ghz:
        Nominal clock, used only to convert simulated cycles to seconds for
        amortization thresholds.
    """

    name: str
    n_cores: int
    cycles_per_nnz: float = 2.0
    row_overhead: float = 6.0
    barrier_latency: float = 400.0
    barrier_per_core: float = 6.0
    p2p_latency: float = 60.0
    p2p_check: float = 8.0
    cache_lines: int = 4096
    line_elems: int = 8
    miss_penalty: float = 24.0
    clock_ghz: float = 2.5

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigurationError("n_cores must be >= 1")
        if self.line_elems < 1:
            raise ConfigurationError("line_elems must be >= 1")
        if self.cache_lines < 1:
            raise ConfigurationError("cache_lines must be >= 1")

    def barrier_cost(self, active_cores: int) -> float:
        """Barrier cycles when ``active_cores`` cores synchronize."""
        if active_cores <= 1:
            return 0.0
        return self.barrier_latency + self.barrier_per_core * (
            active_cores - 1
        )

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert simulated cycles to wall-clock seconds at the nominal
        clock (for amortization-threshold accounting)."""
        return cycles / (self.clock_ghz * 1e9)

    def with_cores(self, n_cores: int) -> "MachineModel":
        """The same machine restricted/extended to ``n_cores`` cores."""
        return replace(self, n_cores=n_cores)


# ---------------------------------------------------------------------------
# presets (Section 6.3)
# ---------------------------------------------------------------------------
_PRESETS: dict[str, MachineModel] = {
    # Intel Xeon Gold 6238T: 22 cores, 140.8 GB/s — the main machine.
    # Calibrated (repro.experiments.calibration) so the
    # barrier-overhead-to-work and locality ratios of the paper's testbed
    # are preserved at the ~50x smaller proxy matrices.
    "intel_xeon_6238t": MachineModel(
        name="intel_xeon_6238t",
        n_cores=22,
        cycles_per_nnz=2.0,
        row_overhead=6.0,
        barrier_latency=1200.0,
        barrier_per_core=10.0,
        p2p_latency=1400.0,
        p2p_check=10.0,
        cache_lines=768,
        miss_penalty=40.0,
        clock_ghz=1.9,
    ),
    # AMD EPYC 7763: 64 cores across 8 chiplets — cross-CCX traffic makes
    # barriers, misses and p2p transfers pricier, reproducing the lower
    # per-core speed-ups of Table 7.4.
    "amd_epyc_7763": MachineModel(
        name="amd_epyc_7763",
        n_cores=64,
        cycles_per_nnz=2.0,
        row_overhead=6.0,
        barrier_latency=4200.0,
        barrier_per_core=30.0,
        p2p_latency=3400.0,
        p2p_check=16.0,
        cache_lines=1024,
        miss_penalty=90.0,
        clock_ghz=2.45,
    ),
    # Huawei Kunpeng 920-4826 (ARM): 48 cores, between the two x86 parts.
    "kunpeng_920": MachineModel(
        name="kunpeng_920",
        n_cores=48,
        cycles_per_nnz=2.2,
        row_overhead=7.0,
        barrier_latency=1500.0,
        barrier_per_core=12.0,
        p2p_latency=1600.0,
        p2p_check=11.0,
        cache_lines=1024,
        miss_penalty=46.0,
        clock_ghz=2.6,
    ),
}


def list_machines() -> list[str]:
    """Names of available machine presets.

    Examples
    --------
    >>> from repro import list_machines
    >>> "intel_xeon_6238t" in list_machines()
    True
    """
    return sorted(_PRESETS)


def get_machine(name: str) -> MachineModel:
    """Look up a machine preset by name.

    Examples
    --------
    >>> from repro import get_machine
    >>> m = get_machine("intel_xeon_6238t")
    >>> (m.name, m.n_cores)
    ('intel_xeon_6238t', 22)
    """
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {name!r}; available: {list_machines()}"
        ) from None
