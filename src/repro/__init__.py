"""repro — Efficient Parallel Scheduling for Sparse Triangular Solvers.

A self-contained reproduction of Böhnlein, Papp, Steiner, Matzoros &
Yzelman, *Efficient Parallel Scheduling for Sparse Triangular Solvers*
(IPDPS 2025, arXiv:2503.05408): the GrowLocal barrier scheduler, Funnel
coarsening, the SpMP/HDagg/BSPg/wavefront baselines, the locality
reordering, block-parallel scheduling, and a simulated multicore machine
for the evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import (DAG, GrowLocalScheduler, forward_substitution,
...                    threaded_sptrsv)
>>> from repro.matrix.generators import erdos_renyi_lower
>>> L = erdos_renyi_lower(1000, 2e-3, seed=0)
>>> b = np.ones(L.n)
>>> x = forward_substitution(L, b)
>>> dag = DAG.from_lower_triangular(L)
>>> schedule = GrowLocalScheduler().schedule(dag, n_cores=8)
>>> np.allclose(threaded_sptrsv(L, b, schedule), x)
True

Subpackages
-----------
``repro.matrix``     sparse matrix substrate (CSR, generators, orderings,
                     IC(0), Matrix-Market I/O)
``repro.graph``      dependence DAGs, wavefronts, transitive reduction,
                     acyclicity-preserving coarsening
``repro.scheduler``  GrowLocal and all baseline schedulers
``repro.exec``       execution plans: a matrix's level set lowered once
                     to flat arrays, pluggable backend kernels
                     (numpy/numba), plan caching
``repro.machine``    the simulated multicore (BSP + asynchronous models),
                     one cost kernel pricing schedules directly
``repro.solver``     SpTRSV kernels, the threaded schedule executor,
                     SpTRSM, PCG, Gauß–Seidel
``repro.service``    concurrent solve service: keyed requests coalesced
                     into SpTRSM micro-batches, per-system stats
``repro.experiments`` datasets, runner (sequential + process-sharded),
                     metrics, tables and figures
``repro.store``      persisted execution plans, saved and loaded
                     explicitly; every load passes the plan integrity
                     gate
``repro.tuner``      autotuner: per-matrix scheduler selection
                     (features -> cost-model prior -> profile),
                     persisted tuning profiles, the "auto" scheduler
"""

from repro.errors import (
    ConfigurationError,
    InvalidPartitionError,
    InvalidScheduleError,
    MatrixFormatError,
    NotTriangularError,
    ReproError,
    SingularMatrixError,
)
from repro.exec import (
    ExecutionPlan,
    PlanCache,
    compile_plan,
    get_backend,
    list_backends,
)
from repro.graph.dag import DAG
from repro.machine.model import MachineModel, get_machine, list_machines
from repro.matrix.csr import CSRMatrix
from repro.scheduler import (
    BlockScheduler,
    BSPListScheduler,
    FunnelGrowLocalScheduler,
    GrowLocalScheduler,
    HDaggScheduler,
    Schedule,
    Scheduler,
    SerialScheduler,
    SpMPScheduler,
    WavefrontScheduler,
    make_scheduler,
)
from repro.service import SolveService
from repro.tuner import (
    AutoScheduler,
    Autotuner,
    TuningDecision,
    TuningProfile,
    extract_features,
    load_profile,
    save_profile,
)
from repro.solver import (
    backward_substitution,
    forward_substitution,
    threaded_sptrsv,
)

__version__ = "1.0.0"

__all__ = [
    "AutoScheduler",
    "Autotuner",
    "BSPListScheduler",
    "BlockScheduler",
    "CSRMatrix",
    "ConfigurationError",
    "DAG",
    "ExecutionPlan",
    "FunnelGrowLocalScheduler",
    "GrowLocalScheduler",
    "HDaggScheduler",
    "InvalidPartitionError",
    "InvalidScheduleError",
    "MachineModel",
    "MatrixFormatError",
    "NotTriangularError",
    "PlanCache",
    "ReproError",
    "Schedule",
    "Scheduler",
    "SerialScheduler",
    "SingularMatrixError",
    "SolveService",
    "SpMPScheduler",
    "TuningDecision",
    "TuningProfile",
    "WavefrontScheduler",
    "__version__",
    "backward_substitution",
    "compile_plan",
    "extract_features",
    "forward_substitution",
    "get_backend",
    "get_machine",
    "list_backends",
    "list_machines",
    "load_profile",
    "make_scheduler",
    "save_profile",
    "threaded_sptrsv",
]
