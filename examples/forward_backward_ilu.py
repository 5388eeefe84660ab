#!/usr/bin/env python
"""Both sweep directions on one problem: ILU(0) + scheduled forward AND
backward substitution.

The paper's algorithm covers forward- and backward-substitution
symmetrically (Section 2.2).  This example factors a non-symmetric matrix
with ILU(0), schedules the forward solve on the lower factor's DAG and the
backward solve on the upper factor's *backward* DAG, checks the backward
schedule against that DAG (Definition 2.1), runs the forward schedule as
its barrier program (one thread per core, validated first) against the
serial forward sweep, and applies the preconditioner with the serial
pair.

Run:  python examples/forward_backward_ilu.py
"""

import numpy as np

from repro import DAG, GrowLocalScheduler
from repro.graph.wavefront import critical_path_length
from repro.matrix.csr import CSRMatrix
from repro.matrix.ilu import ilu0
from repro.solver.backward import backward_dag
from repro.solver.sptrsv import backward_substitution, forward_substitution
from repro.solver.threaded import threaded_sptrsv


def build_nonsymmetric(n: int, seed: int = 0) -> CSRMatrix:
    """A diagonally dominant non-symmetric sparse matrix (convection-
    diffusion-like: symmetric diffusion + skewed convection band)."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(4.0)
        for off in (-7, -1, 1, 5):
            j = i + off
            if 0 <= j < n and rng.random() < 0.8:
                rows.append(i); cols.append(j)
                vals.append(-0.5 - 0.5 * rng.random() * (off > 0))
    return CSRMatrix.from_coo(n, rows, cols, vals)


def main() -> None:
    a = build_nonsymmetric(5000)
    lower, upper = ilu0(a)
    print(f"A: n={a.n}, nnz={a.nnz};  ILU(0): "
          f"L nnz={lower.nnz}, U nnz={upper.nnz}")

    # forward schedule on L's DAG, backward schedule on U's backward DAG
    fdag = DAG.from_lower_triangular(lower)
    bdag = backward_dag(upper)
    scheduler = GrowLocalScheduler()
    fsched = scheduler.schedule(fdag, n_cores=8)
    bsched = scheduler.schedule(bdag, n_cores=8)
    bsched.validate(bdag)  # Definition 2.1
    print(f"forward : {critical_path_length(fdag)} wavefronts -> "
          f"{fsched.n_supersteps} supersteps")
    print(f"backward: {critical_path_length(bdag)} wavefronts -> "
          f"{bsched.n_supersteps} supersteps (valid for U's backward DAG)")

    # apply the preconditioner M^{-1} = U^{-1} L^{-1}: serial sweeps
    b = np.sin(np.arange(a.n) * 0.01)
    y = forward_substitution(lower, b)
    x = backward_substitution(upper, y)

    # the forward schedule, run as its barrier program on 8 threads
    y_threaded = threaded_sptrsv(lower, b, fsched)
    assert np.allclose(y_threaded, y)
    print(f"threaded forward schedule == serial forward sweep: "
          f"max diff {np.abs(y_threaded - y).max():.2e}")

    residual = np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b)
    print(f"ILU(0) preconditioner quality: ||A M^-1 b - b|| / ||b|| = "
          f"{residual:.3f}")


if __name__ == "__main__":
    main()
