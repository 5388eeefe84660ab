"""Micro-benchmark of the execution-plan subsystem.

Records plan-compile and plan-execute times on a 10k-row synthetic
instance so future PRs have a perf trajectory, and asserts the headline
property of this layer: plan-based execution beats the seed's per-row
Python loop by at least 3x on solve time (in practice the margin is an
order of magnitude; the floor leaves room for slow CI machines).

Also measures the amortization picture — compile once, solve many — and
the scheduled path, mirroring the reuse scenarios of Table 7.6.

``REPRO_BENCH_SMOKE=1`` shrinks the instance (assertions stay on) so CI
can exercise the perf floor on every push.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro.analysis.verify import check_plan
from repro.exec import compile_plan, get_backend
from repro.experiments.bench import make_deep_narrow, make_wide_shallow
from repro.experiments.tables import format_table
from repro.graph.dag import DAG
from repro.matrix.generators import erdos_renyi_lower
from repro.scheduler import GrowLocalScheduler
from repro.solver.sptrsv import solve_rows
from repro.utils.timing import Timer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N = 4_000 if SMOKE else 10_000
DENSITY = 2e-3
REPEATS = 5

HAS_NUMBA = importlib.util.find_spec("numba") is not None
needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        with Timer() as t:
            fn()
        times.append(t.elapsed)
    return float(np.median(times))


def test_plan_vs_per_row_loop_speedup(benchmark):
    lower = erdos_renyi_lower(N, DENSITY, seed=0)
    b = np.linspace(1.0, 2.0, N)
    backend = get_backend()

    with Timer() as t_compile:
        plan = compile_plan(lower)

    x_plan = backend.solve(plan, b)  # warm-up (and correctness probe)
    plan_exec = _median_time(lambda: backend.solve(plan, b))

    x_loop = np.zeros(N)
    order = np.arange(N, dtype=np.int64)

    def legacy():
        x_loop.fill(0.0)
        solve_rows(lower, b, x_loop, order)

    loop_exec = _median_time(legacy, repeats=3)

    np.testing.assert_allclose(x_plan, x_loop, rtol=1e-10)

    # the scheduled path: compile once, execute off the same subsystem
    schedule = GrowLocalScheduler().schedule(
        DAG.from_lower_triangular(lower), 8
    )
    with Timer() as t_compile_sched:
        sched_plan = compile_plan(lower, schedule)
    sched_exec = _median_time(lambda: backend.solve(sched_plan, b))

    speedup = loop_exec / plan_exec
    print()
    print(format_table(
        ["kernel", "compile s", "execute s", "batches"],
        [
            ["seed per-row loop", 0.0, loop_exec, N],
            ["plan (serial)", t_compile.elapsed, plan_exec,
             plan.n_batches],
            ["plan (growlocal/8)", t_compile_sched.elapsed, sched_exec,
             sched_plan.n_batches],
        ],
        title=f"exec-plan micro-benchmark (n={N}, backend="
              f"{backend.name})",
        float_fmt="{:.5f}",
    ))
    print(f"plan-based solve speedup over per-row loop: {speedup:.1f}x; "
          f"compile amortizes after "
          f"{t_compile.elapsed / max(loop_exec - plan_exec, 1e-12):.1f} "
          f"solves")

    assert speedup >= 3.0, (
        f"plan execution only {speedup:.2f}x faster than the per-row loop"
    )
    # compiling must stay cheap enough to amortize within a handful of
    # solves (Table 7.6 reuse factors start at ~10)
    assert t_compile.elapsed < 100 * loop_exec

    benchmark(lambda: backend.solve(plan, b))


def test_numpy_deep_narrow_beats_per_row_loop():
    """The numpy tier must not fall off the deep-narrow dispatch cliff.

    Deep-narrow corpus: a dependency chain, one row per batch.  A
    vectorized gather / segment-sum / scatter per batch made the numpy
    backend slower than the seed's per-row ``solve_rows`` loop; runs of
    low-work batches are one scalar sweep instead, which must beat that
    loop by at least 2x.
    """
    lower = make_deep_narrow(n=4_000 if SMOKE else 20_000, seed=1)
    plan = compile_plan(lower)
    b = np.linspace(1.0, 2.0, lower.n)
    backend = get_backend("numpy")

    x_plan = backend.solve(plan, b)  # warm-up (and correctness probe)
    plan_exec = _median_time(lambda: backend.solve(plan, b))

    x_loop = np.zeros(lower.n)
    order = np.arange(lower.n, dtype=np.int64)

    def legacy():
        x_loop.fill(0.0)
        solve_rows(lower, b, x_loop, order)

    loop_exec = _median_time(legacy, repeats=3)
    np.testing.assert_allclose(x_plan, x_loop, rtol=1e-10)

    speedup = loop_exec / plan_exec
    print(f"\ndeep-narrow (n={lower.n}, {plan.n_batches} batches): "
          f"per-row loop {loop_exec:.5f}s, numpy {plan_exec:.5f}s -> "
          f"{speedup:.2f}x")
    assert speedup >= 2.0, (
        f"numpy solve only {speedup:.2f}x faster than the per-row loop "
        f"on the deep-narrow corpus"
    )


def test_numpy_block_beats_column_solves_on_the_serving_shape():
    """Micro-batching must pay at the backend, without threads.

    The serving shape (64 levels of 100 rows, 3 dependencies each, the
    shape of the service floors' systems): one 16-column
    ``solve_block`` must cost at most half of 16 single-RHS ``solve``
    calls on the numpy tier.  The two are timed in alternating rounds
    and the best of each compared, so a slow stretch of a shared host
    hits both sides.
    """
    lower = make_wide_shallow(levels=64, width=100, deps=3, seed=0)
    plan = compile_plan(lower)
    backend = get_backend("numpy")
    b_block = np.random.default_rng(0).standard_normal((lower.n, 16))
    columns = [b_block[:, c].copy() for c in range(16)]
    x_block = backend.solve_block(plan, b_block)  # warm-up: builds
    for c, b in enumerate(columns):               # the program
        np.testing.assert_array_equal(x_block[:, c], backend.solve(plan, b))

    t_columns, t_block = [], []
    for _ in range(9 if SMOKE else 21):
        with Timer() as t:
            for b in columns:
                backend.solve(plan, b)
        t_columns.append(t.elapsed)
        with Timer() as t:
            backend.solve_block(plan, b_block)
        t_block.append(t.elapsed)
    ratio = min(t_columns) / min(t_block)
    print(f"\nserving shape (n={lower.n}, {plan.n_batches} batches): "
          f"16 solves {min(t_columns) * 1e3:.2f} ms, one 16-column "
          f"block {min(t_block) * 1e3:.2f} ms -> {ratio:.2f}x")
    assert ratio >= 2.0, (
        f"a 16-column block costs {1 / ratio:.2f}x of 16 solves on the "
        f"serving shape (floor: at most 0.5x)"
    )


class TestSetupFloors:
    """Set-up is O(nnz) whatever the plan's depth.

    Two shapes with the same row count: a dependency chain (one row
    per level, fewer non-zeros) and five wide levels.  Compiling the
    chain must stay within 4x of compiling the wide shape; a level pass
    that costs O(n) per level reads about 30-40x.  On the wide plan the
    verifier's source cross-check must stay within 8x of the structural
    checks alone; sorting the non-zeros to compare them reads about
    15-25x.
    """

    def _shapes(self):
        deep = make_deep_narrow(n=4_000 if SMOKE else 20_000, seed=1)
        wide = make_wide_shallow(
            levels=5, width=800 if SMOKE else 4_000, seed=0
        )
        assert deep.n == wide.n and deep.nnz < wide.nnz
        return deep, wide

    def test_deep_compile_within_4x_of_wide(self):
        deep, wide = self._shapes()
        compile_plan(deep)  # warm caches
        compile_plan(wide)
        t_deep = _median_time(lambda: compile_plan(deep))
        t_wide = _median_time(lambda: compile_plan(wide))
        ratio = t_deep / t_wide
        print(f"\ncompile (n={deep.n}): chain {t_deep * 1e3:.2f} ms, "
              f"wide {t_wide * 1e3:.2f} ms -> {ratio:.2f}x")
        assert ratio <= 4.0, (
            f"compiling the chain costs {ratio:.1f}x the wide shape "
            f"of the same row count (floor 4x)"
        )

    def test_source_check_within_8x_of_structural_check(self):
        _, wide = self._shapes()
        plan = compile_plan(wide)
        check_plan(plan, matrix=wide)  # warm caches
        t_source = _median_time(lambda: check_plan(plan, matrix=wide))
        t_plain = _median_time(lambda: check_plan(plan))
        ratio = t_source / t_plain
        print(f"\ncheck_plan (n={wide.n}): with matrix "
              f"{t_source * 1e3:.2f} ms, without {t_plain * 1e3:.2f} ms "
              f"-> {ratio:.2f}x")
        assert ratio <= 8.0, (
            f"the source cross-check costs {ratio:.1f}x the structural "
            f"checks (floor 8x)"
        )


def _require_threads(minimum: int = 2) -> int:
    """Skip parallel-vs-sequential floors on single-threaded runners —
    a prange over one thread is the sequential sweep plus overhead."""
    import numba

    threads = numba.get_num_threads()
    if threads < minimum:
        pytest.skip(f"parallel floor needs >= {minimum} numba threads, "
                    f"have {threads}")
    return threads


@needs_numba
def test_parallel_tier_beats_sequential_numba_on_wide_shallow():
    """The prange tier must win where the plan exposes parallelism.

    Wide-shallow corpus: a handful of dependency layers, thousands of
    mutually independent rows each, so every batch has at least
    ``PARALLEL_BATCH_ROWS`` rows and ``numba-parallel`` runs each as one
    prange span.  It must beat the sequential ``numba`` sweep.
    Conservative floor: any real multi-core win clears it; a regression
    to sequential dispatch does not.
    """
    threads = _require_threads()
    lower = make_wide_shallow(
        levels=8, width=2_000 if SMOKE else 10_000, seed=0
    )
    plan = compile_plan(lower)
    b = np.linspace(1.0, 2.0, lower.n)
    seq = get_backend("numba")
    par = get_backend("numba-parallel")
    assert all(parallel for _, _, parallel in par.dispatch(plan))

    np.testing.assert_array_equal(  # also warms both kernels
        seq.solve(plan, b), par.solve(plan, b)
    )
    t_seq = _median_time(lambda: seq.solve(plan, b))
    t_par = _median_time(lambda: par.solve(plan, b))

    speedup = t_seq / t_par
    print(f"\nwide-shallow (n={lower.n}, {plan.n_batches} batches, "
          f"{threads} threads): numba {t_seq:.5f}s, numba-parallel "
          f"{t_par:.5f}s -> {speedup:.2f}x")
    assert speedup > 1.05, (
        f"numba-parallel only {speedup:.2f}x vs sequential numba on the "
        f"wide-shallow corpus ({threads} threads)"
    )


@needs_numba
def test_fused_beats_unfused_parallel_on_deep_narrow():
    """Fusion must kill per-layer dispatch where layers are tiny.

    Deep-narrow corpus: a dependency chain, one row per batch.
    ``numba-parallel`` runs the whole chain as a handful of sequential
    sweeps (``fused_dispatch``); the reference loop below pays one
    prange kernel dispatch (plus a parallel-region fork/join) per
    batch.  The fused path must win by a wide margin — the floor is far
    below the measured gap but far above noise.
    """
    from repro.exec.kernels_numba import jit_kernels

    lower = make_deep_narrow(n=4_000 if SMOKE else 20_000, seed=1)
    plan = compile_plan(lower)
    assert plan.n_fused_groups < plan.n_batches
    b = np.linspace(1.0, 2.0, lower.n)
    par = get_backend("numba-parallel")
    psweep = jit_kernels().psweep
    args = (plan.rows, plan.off_ptr, plan.off_cols, plan.off_vals,
            plan.diag, b)
    bounds = plan.batch_ptr.tolist()

    def per_batch():
        x = np.zeros(plan.n)
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True):
            psweep(*args, x, lo, hi)
        return x

    np.testing.assert_array_equal(  # also warms both dispatch paths
        par.solve(plan, b), per_batch()
    )
    t_fused = _median_time(lambda: par.solve(plan, b))
    t_unfused = _median_time(per_batch)

    speedup = t_unfused / t_fused
    print(f"\ndeep-narrow (n={lower.n}, {plan.n_batches} batches "
          f"-> {plan.n_fused_groups} fused spans): per-batch prange "
          f"{t_unfused:.5f}s, fused {t_fused:.5f}s -> {speedup:.2f}x")
    assert speedup >= 3.0, (
        f"fused dispatch only {speedup:.2f}x over per-batch dispatch on "
        f"the deep-narrow corpus"
    )


class TestValidationZeroOverheadFloor:
    """Plan validation is strictly opt-in: the hot compile path must not
    pay for it — not a verifier import, not a single check — unless the
    ``REPRO_VALIDATE_PLANS`` gate is on or ``validate=True`` is passed.
    """

    def _matrix(self):
        n = 1_000 if SMOKE else 3_000
        return erdos_renyi_lower(n, 5e-3, seed=0)

    def test_gate_off_never_touches_the_verifier(self, monkeypatch):
        import repro.analysis.verify as verify_mod

        def bomb(*a, **k):  # pragma: no cover - must never run
            raise AssertionError(
                "verifier invoked on the gate-off compile path"
            )

        monkeypatch.delenv("REPRO_VALIDATE_PLANS", raising=False)
        monkeypatch.setattr(verify_mod, "check_plan", bomb)
        monkeypatch.setattr(verify_mod, "maybe_check_cached", bomb)
        lower = self._matrix()
        compile_plan(lower)
        compile_plan(lower, validate=None)

    def test_gate_off_compile_time_floor(self, monkeypatch):
        """Env-gated default must cost the same as validate=False."""
        monkeypatch.delenv("REPRO_VALIDATE_PLANS", raising=False)
        lower = self._matrix()
        compile_plan(lower)  # warm caches
        gated = _median_time(lambda: compile_plan(lower))
        explicit_off = _median_time(
            lambda: compile_plan(lower, validate=False)
        )
        # identical code path modulo one env read; generous 1.5x bound
        # keeps the floor meaningful without flaking on timer noise
        assert gated <= explicit_off * 1.5 + 1e-3, (
            f"gate-off compile {gated * 1e3:.2f} ms vs explicit-off "
            f"{explicit_off * 1e3:.2f} ms"
        )

    def test_validation_on_is_bounded(self, monkeypatch):
        """Opt-in validation stays a small multiple of the compile."""
        monkeypatch.delenv("REPRO_VALIDATE_PLANS", raising=False)
        lower = self._matrix()
        compile_plan(lower, validate=True)  # warm caches
        off = _median_time(lambda: compile_plan(lower, validate=False))
        on = _median_time(lambda: compile_plan(lower, validate=True))
        # the verifier is one vectorized pass over the plan arrays; it
        # must stay within a single-digit multiple of compilation
        assert on <= off * 10 + 5e-3, (
            f"validated compile {on * 1e3:.2f} ms vs plain "
            f"{off * 1e3:.2f} ms"
        )


class TestObsZeroOverheadFloor:
    """Observability is strictly opt-in: with ``REPRO_OBS`` off, the
    subsystem is never imported and the exec hot path pays at most one
    environment read per gate check — the floor ``docs/observability.md``
    promises.
    """

    def _matrix(self):
        n = 1_000 if SMOKE else 3_000
        return erdos_renyi_lower(n, 5e-3, seed=0)

    def test_gate_off_never_imports_obs(self):
        """A fresh gate-off process compiling and solving must not load
        repro.obs (subprocess so this test's own imports can't leak)."""
        import subprocess
        import sys

        code = (
            "import os, sys\n"
            "os.environ.pop('REPRO_OBS', None)\n"
            "import numpy as np\n"
            "from repro.exec import compile_plan, get_backend\n"
            "from repro.matrix.generators import erdos_renyi_lower\n"
            "m = erdos_renyi_lower(500, 5e-3, seed=0)\n"
            "plan = compile_plan(m)\n"
            "get_backend().solve(plan, np.ones(m.n))\n"
            "assert 'repro.obs' not in sys.modules\n"
            "print('CLEAN')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN" in proc.stdout

    def test_gate_off_get_obs_is_cheap(self, monkeypatch):
        """The per-call-site cost with the gate off is one env read."""
        from repro.obs_gate import get_obs

        monkeypatch.delenv("REPRO_OBS", raising=False)
        calls = 100_000
        with Timer() as t:
            for _ in range(calls):
                get_obs()
        per_call = t.elapsed / calls
        # a dict lookup plus a string compare; 5 µs/call is orders of
        # magnitude above reality but fails on a pathological regression
        assert per_call < 5e-6, (
            f"disabled get_obs() costs {per_call * 1e9:.0f} ns/call"
        )

    def test_gate_off_compile_and_solve_floor(self, monkeypatch):
        """Instrumented compile/solve with the gate off must cost the
        same as before the telemetry layer existed."""
        from repro.obs_gate import set_enabled

        monkeypatch.delenv("REPRO_OBS", raising=False)
        lower = self._matrix()
        b = np.ones(lower.n)
        backend = get_backend()
        plan = compile_plan(lower)  # warm caches
        backend.solve(plan, b)

        set_enabled(False)
        try:
            base_compile = _median_time(lambda: compile_plan(lower))
            base_solve = _median_time(lambda: backend.solve(plan, b))
        finally:
            set_enabled(None)
        gated_compile = _median_time(lambda: compile_plan(lower))
        gated_solve = _median_time(lambda: backend.solve(plan, b))

        # identical code path modulo one env read; generous 1.5x bound
        # keeps the floor meaningful without flaking on timer noise
        assert gated_compile <= base_compile * 1.5 + 1e-3, (
            f"gate-off compile {gated_compile * 1e3:.2f} ms vs forced-"
            f"off {base_compile * 1e3:.2f} ms"
        )
        assert gated_solve <= base_solve * 1.5 + 1e-3, (
            f"gate-off solve {gated_solve * 1e3:.2f} ms vs forced-off "
            f"{base_solve * 1e3:.2f} ms"
        )

    def test_obs_on_compile_is_bounded(self, monkeypatch):
        """Opt-in telemetry stays a small multiple of the plain cost."""
        from repro.obs_gate import get_obs, set_enabled

        monkeypatch.delenv("REPRO_OBS", raising=False)
        lower = self._matrix()
        off = _median_time(lambda: compile_plan(lower))
        set_enabled(True)
        try:
            get_obs().reset()
            compile_plan(lower)  # warm the instrumented path
            on = _median_time(lambda: compile_plan(lower))
            get_obs().reset()
        finally:
            set_enabled(None)
        # one span, one histogram observe and two counter incs per
        # compile — far below one compile's work
        assert on <= off * 3 + 5e-3, (
            f"instrumented compile {on * 1e3:.2f} ms vs plain "
            f"{off * 1e3:.2f} ms"
        )
