"""Golden schedules: every scheduler's output on seeded inputs, pinned
bit for bit.

The schedulers, the funnel partition and the quotient graph are tuned for
speed (a one-sort DAG build, label-array partitions, a Kahn sweep without
``np.unique``, GrowLocal's inlined iteration loop).  Each such change must
leave every schedule exactly as it was, so this module pins the SHA-256 of

* ``cores`` and ``supersteps`` of growlocal, funnel+gl, hdagg, spmp,
  wavefront and bspg at 8 and 22 cores;
* the in- and out-funnel ``part_of`` labels under HDagg's weight cap;
* ``coarsen``'s ``part_of`` and coarse-DAG arrays for the in-funnel
  partition;

on narrow-band, Erdős–Rényi, grid and mesh generator matrices of about
2,000 rows.  The digests were recorded from the implementation before
those speed-ups.  A change that alters any of them alters behaviour: if
that is intended, say so and re-record them with :func:`_digest`.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.graph.coarsen import coarsen, in_funnel_partition, out_funnel_partition
from repro.graph.dag import DAG
from repro.matrix.generators import (
    erdos_renyi_lower,
    grid_laplacian_2d,
    narrow_band_lower,
    rcm_mesh,
)
from repro.scheduler.registry import make_scheduler

MATRICES = {
    "narrow-band": lambda: narrow_band_lower(2000, 0.05, 20.0, seed=2501),
    "erdos-renyi": lambda: erdos_renyi_lower(2000, 0.0125, seed=2502),
    "grid": lambda: grid_laplacian_2d(45, 45).lower_triangle(),
    "mesh": lambda: rcm_mesh(
        32, 64, reach=1, lateral_prob=0.3, long_edge_prob=0.03, seed=2503,
    ).lower_triangle(),
}
SCHEDULERS = ("growlocal", "funnel+gl", "hdagg", "spmp", "wavefront", "bspg")
CORES = (8, 22)

GOLDEN = {
    "narrow-band/in-funnel":
        "b12874d1c060ace6018de0dc1cfb91e1a7be570ec45b33eb3c8e0e78d9226ebb",
    "narrow-band/out-funnel":
        "c14dc92115950b1e1427290d3076bcd5e0f7bd87946212e9e495f2c49b946c66",
    "narrow-band/coarsen":
        "d0e081cd30c929408a857fd0ed21bda42ab91c68244ca358a3b8c266cb9ccec7",
    "narrow-band/growlocal/8":
        "a919a8513f833f83e7f596586630f26daa140e63087265ffeab1046f263a9000",
    "narrow-band/growlocal/22":
        "5460b9e730be43128b8432a365ca62683014a83e09d2878500ca6f859f4012d8",
    "narrow-band/funnel+gl/8":
        "3dca48275c77d0f4887f050a36f9fa75f101187df4e23d90b41d7ac09722d052",
    "narrow-band/funnel+gl/22":
        "97e67269b2e2cab1f83ac8ed5e1e1dc72a3e7c7336afebcf7c347c12593a9eee",
    "narrow-band/hdagg/8":
        "795f56bc03f572a9c1c86b0951036f19c752a69e691c42856b4abcdddaf2fb71",
    "narrow-band/hdagg/22":
        "6004b0876a684acce2cb0fbb31b77f460fb0693c6c6cc09909c9320c229be0fd",
    "narrow-band/spmp/8":
        "9e69afa8ae22441288313a6908a99349218a5b1da999d669a832be319775a5ba",
    "narrow-band/spmp/22":
        "f246f38b8c4a4554a740edf85128e82edcec0e879208daffc8d449673bf8b63d",
    "narrow-band/wavefront/8":
        "9e69afa8ae22441288313a6908a99349218a5b1da999d669a832be319775a5ba",
    "narrow-band/wavefront/22":
        "f246f38b8c4a4554a740edf85128e82edcec0e879208daffc8d449673bf8b63d",
    "narrow-band/bspg/8":
        "0727f0eb8764e76806a1a9bf3839b7eda8778ccf7b7e0e606c6a14e45eb7a457",
    "narrow-band/bspg/22":
        "ef66ab3a0f3b16602a336e98884ccb663aa15f7c8d01914ca648835c8ddb43ca",
    "erdos-renyi/in-funnel":
        "7b4b5b792f8366e2e55eca1d3b341612fa1652cf5332f4306eea6d98d07e8b31",
    "erdos-renyi/out-funnel":
        "139834273547e3cd835c678451db2b4c6ba3cf69d355732b934ae1bc446f087f",
    "erdos-renyi/coarsen":
        "acc1b043ae02e3535ee6d53e15418be16d0e43572afebe3d7b155235e8b6cff7",
    "erdos-renyi/growlocal/8":
        "7bf7272778ac8ae7e77849896ed89db259c85e4ef904a8640b58bb55acd5fea1",
    "erdos-renyi/growlocal/22":
        "4ef4491ae467dbbfd0cfe0ece8500f371cbdd14a65a9cf62d5649a50e3d28836",
    "erdos-renyi/funnel+gl/8":
        "259ddd4050f9aeaed8b91154ffada6ed4e1247ef816ae7d6d5d9efe3071604c4",
    "erdos-renyi/funnel+gl/22":
        "96a413e936f7ec8745006e1d9628bef03aedd769d0a3b320b9ebbc6ff8c9398d",
    "erdos-renyi/hdagg/8":
        "9d6d8e73028e6efa99af27ae9437f6f196feb1b7228cb9c64a5de12112d7db58",
    "erdos-renyi/hdagg/22":
        "ddc79258e27252d2c84726ba99ba784d359aff9056c40aad1c6a22d947fe207b",
    "erdos-renyi/spmp/8":
        "811a9b95cdb9617051fa85c01a7e839e0da7bdd00d7f076e3e4502c27440a042",
    "erdos-renyi/spmp/22":
        "ba0c61d23b2522bd7da75d39c49679f46fa977e1e5b4e7f74894e39eab0432a8",
    "erdos-renyi/wavefront/8":
        "811a9b95cdb9617051fa85c01a7e839e0da7bdd00d7f076e3e4502c27440a042",
    "erdos-renyi/wavefront/22":
        "ba0c61d23b2522bd7da75d39c49679f46fa977e1e5b4e7f74894e39eab0432a8",
    "erdos-renyi/bspg/8":
        "fbd279a9e7a2acc30e808788695563b731979f38e0313ae6f020d7d9498cb506",
    "erdos-renyi/bspg/22":
        "c82285a0bb1a4fc4688174a7285c373d94142a1cf81abe8432959b8b4e421b21",
    "grid/in-funnel":
        "24491321ed4d6b71eeb698f94785ae6332371e8411b2e3081b59f91a7f014d32",
    "grid/out-funnel":
        "0dc4bb9dca576f11a386e3fb952e6c9f2980e07c814b09681dee657a0099d075",
    "grid/coarsen":
        "396379428c6f98d7912a2ed1a9d2b72d39ea5c8d13b131b174c91557decd4ab9",
    "grid/growlocal/8":
        "c4a7b834297ae73861587b0070792b17afc9ffba66b4057597ff1df79f0259df",
    "grid/growlocal/22":
        "c4a7b834297ae73861587b0070792b17afc9ffba66b4057597ff1df79f0259df",
    "grid/funnel+gl/8":
        "b2a9f179d5de3339e4abaa8581049d754dc34c7daac9a437fcf6201f165b962e",
    "grid/funnel+gl/22":
        "b2a9f179d5de3339e4abaa8581049d754dc34c7daac9a437fcf6201f165b962e",
    "grid/hdagg/8":
        "e203fb0c62e6916708e501b2b50ae9ca0e1c2f5303969405f8469350b83b8ea2",
    "grid/hdagg/22":
        "08292049203642bbaab63f2148736537828323f5bd24e53456ad25b9adcf2082",
    "grid/spmp/8":
        "bf45ff0fe33be713da9981268e7ce842fb396194fe10bc25959c63934a50558d",
    "grid/spmp/22":
        "3dacc0d7a396de2369001ba7c5366a8b71cc12cd7c2f93fda4a05992a42576ff",
    "grid/wavefront/8":
        "bf45ff0fe33be713da9981268e7ce842fb396194fe10bc25959c63934a50558d",
    "grid/wavefront/22":
        "3dacc0d7a396de2369001ba7c5366a8b71cc12cd7c2f93fda4a05992a42576ff",
    "grid/bspg/8":
        "b0d654d791b498e7eefd0ef1034a7a32f09925b30c4946b979a96b51eb543a5f",
    "grid/bspg/22":
        "d1899682001eb500f205f9bc4e39bcadfc435f79d748896e6b5e2a2586cf892a",
    "mesh/in-funnel":
        "3288f458bfdcaed9d73a32f21af1a28a9fd99c4e6e52105396c8476560123ebf",
    "mesh/out-funnel":
        "c2a910fc71def5bb30c33164d3a29ea6e30801b1ab9a62f10f3552946afba0a8",
    "mesh/coarsen":
        "cf1cd6453018b98828e452d68457a42cd033dd86554fb3364a69dbc35bc90607",
    "mesh/growlocal/8":
        "106dae31253e6c8769de263375ae8e4979cd033b8b4b91269abd970a71d96494",
    "mesh/growlocal/22":
        "d31a1b618a36e8bc9c11277d6f8a5f683b5effc0f5292dc718341c6fac3d0f9d",
    "mesh/funnel+gl/8":
        "5fec2ff33b1a2fd1177a63ad306e768483e35cca27b3e66da3190a76e13f9c71",
    "mesh/funnel+gl/22":
        "a6505ed01e488db148706ebc9344ffc7b8a627fec981489648a8d9d218216479",
    "mesh/hdagg/8":
        "0ffb67d7e4b0348e34f5b9011f257fc6c92319b65ff13bbd9809179ab57cebdc",
    "mesh/hdagg/22":
        "14eb16f2b8521601ee38ca9619297427286e9c6ff2958a275e5567683ff7f904",
    "mesh/spmp/8":
        "e0024e49ddc7f7ad08c4a1f3612eb73e7dac499f0ad327d16428fe5701cde2e8",
    "mesh/spmp/22":
        "46d2024506140c48ed6093f4a0fdb533471f9d7fbe3893fb4fc71e08d910be24",
    "mesh/wavefront/8":
        "e0024e49ddc7f7ad08c4a1f3612eb73e7dac499f0ad327d16428fe5701cde2e8",
    "mesh/wavefront/22":
        "46d2024506140c48ed6093f4a0fdb533471f9d7fbe3893fb4fc71e08d910be24",
    "mesh/bspg/8":
        "6198c3030ad1188451201a96190486a2aee611181c0b63656be6488609da4daa",
    "mesh/bspg/22":
        "93e8ad12389977f83457a881e33740e96897c85e78dbbc6d94e7391e164c5683",
}


def _digest(*arrays: np.ndarray) -> str:
    """SHA-256 over each array as int64, each prefixed by its length."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()


@lru_cache(maxsize=None)
def _dag(matrix: str) -> DAG:
    return DAG.from_lower_triangular(MATRICES[matrix]())


def _cap(dag: DAG) -> int:
    """HDagg's default funnel weight cap."""
    return 8 * max(int(dag.weights.mean()), 1)


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("matrix", list(MATRICES))
def test_schedule_matches_golden(matrix, scheduler, cores):
    schedule = make_scheduler(scheduler).schedule(_dag(matrix), cores)
    digest = _digest(schedule.cores, schedule.supersteps)
    assert digest == GOLDEN[f"{matrix}/{scheduler}/{cores}"]


@pytest.mark.parametrize("matrix", list(MATRICES))
def test_funnel_labels_match_golden(matrix):
    dag = _dag(matrix)
    in_labels = in_funnel_partition(dag, max_weight=_cap(dag))
    out_labels = out_funnel_partition(dag, max_weight=_cap(dag))
    assert _digest(in_labels) == GOLDEN[f"{matrix}/in-funnel"]
    assert _digest(out_labels) == GOLDEN[f"{matrix}/out-funnel"]


@pytest.mark.parametrize("matrix", list(MATRICES))
def test_coarse_dag_matches_golden(matrix):
    dag = _dag(matrix)
    result = coarsen(dag, in_funnel_partition(dag, max_weight=_cap(dag)))
    c = result.coarse
    digest = _digest(result.part_of, c.child_ptr, c.child_idx,
                     c.parent_ptr, c.parent_idx, c.weights)
    assert digest == GOLDEN[f"{matrix}/coarsen"]
