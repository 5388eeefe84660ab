"""Tests for the repo-invariant lint engine (``repro.analysis.lint``).

Two halves: per-rule unit tests on seeded source snippets (each rule
must both fire on its violation and stay quiet on the idiomatic form),
and the repo gate — ``repro check source`` must be clean on HEAD, which
is what CI enforces; a regression here means a new finding slipped in
without a pragma or a fix.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import check_source
from repro.analysis.lint import (
    LintFinding,
    default_rules,
    rule_catalogue,
    run_lint,
)
from repro.errors import ConfigurationError

RULE_IDS = {
    "unseeded-rng", "wallclock-timing", "atomic-write",
    "no-bare-assert", "lock-discipline", "direct-timing-in-hot-path",
}


def lint_snippet(tmp_path, code, *, name="mod.py"):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return run_lint([target])


def rules_fired(findings):
    return {f.rule for f in findings}


class TestEngine:
    def test_catalogue_metadata(self):
        catalogue = rule_catalogue()
        assert {r["id"] for r in catalogue} == RULE_IDS
        for r in catalogue:
            assert r["severity"] == "error"
            assert isinstance(r["autofixable"], bool)
            assert r["description"]

    def test_missing_target_raises(self):
        with pytest.raises(ConfigurationError):
            run_lint(["/no/such/lint/target.py"])

    def test_syntax_error_raises(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        with pytest.raises(ConfigurationError):
            run_lint([bad])

    def test_findings_sorted_and_stringable(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random
            b = random.choice([1, 2])
            a = random.random()
            """)
        assert [f.line for f in findings] == sorted(
            f.line for f in findings
        )
        assert all(isinstance(f, LintFinding) for f in findings)
        text = str(findings[0])
        assert "unseeded-rng" in text and "mod.py" in text

    def test_pragma_suppresses_named_rule_only(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random
            a = random.random()  # repro: allow[unseeded-rng]
            b = random.random()  # repro: allow[atomic-write]
            """)
        assert [f.line for f in findings] == [3]

    def test_pragma_multiple_ids(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            assert time.time()  # repro: allow[no-bare-assert, wallclock-timing]
            """)
        assert findings == []

    def test_directory_walk_skips_hidden(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "bad.py").write_text(
            "import random\nr = random.random()\n"
        )
        assert run_lint([tmp_path]) == []


class TestUnseededRng:
    def test_flags_default_rng_without_seed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import numpy as np
            rng = np.random.default_rng()
            """)
        assert rules_fired(findings) == {"unseeded-rng"}

    def test_allows_seeded_default_rng(self, tmp_path):
        assert lint_snippet(tmp_path, """\
            import numpy as np
            a = np.random.default_rng(0)
            b = np.random.default_rng(seed=7)
            """) == []

    def test_flags_stdlib_random(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random
            x = random.gauss(0, 1)
            """)
        assert rules_fired(findings) == {"unseeded-rng"}

    def test_unrelated_random_name_is_clean(self, tmp_path):
        assert lint_snippet(tmp_path, """\
            def random():
                return 4
            x = random()
            """) == []


class TestWallclockTiming:
    def test_flags_perf_counter(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            t = time.perf_counter()
            """)
        assert rules_fired(findings) == {"wallclock-timing"}

    def test_flags_from_import(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from time import monotonic
            t = monotonic()
            """)
        assert rules_fired(findings) == {"wallclock-timing"}

    def test_whitelisted_paths_are_exempt(self, tmp_path):
        code = "import time\nt = time.time()\n"
        for rel in ("utils/timing.py", "repro/service/worker.py",
                    "repro/obs/trace.py"):
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(code)
            assert run_lint([target]) == [], rel

    def test_sleep_is_not_a_clock(self, tmp_path):
        assert lint_snippet(tmp_path, """\
            import time
            time.sleep(0)
            """) == []


class TestDirectTimingInHotPath:
    def test_flags_clock_in_exec(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            t = time.perf_counter()
            """, name="repro/exec/fastpath.py")
        assert "direct-timing-in-hot-path" in rules_fired(findings)

    def test_flags_timer_construction_in_exec(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.utils.timing import Timer
            with Timer() as t:
                pass
            """, name="repro/exec/fastpath.py")
        assert rules_fired(findings) == {"direct-timing-in-hot-path"}

    def test_obs_facade_clock_is_clean(self, tmp_path):
        assert lint_snippet(tmp_path, """\
            from repro.obs_gate import get_obs

            def measure():
                obs = get_obs()
                if obs is not None:
                    return obs.clock()
                return None
            """, name="repro/exec/fastpath.py") == []

    def test_ignores_paths_outside_exec(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            t = time.monotonic()
            """, name="repro/scheduler/slowpath.py")
        assert rules_fired(findings) == {"wallclock-timing"}


class TestAtomicWrite:
    def test_flags_truncating_open(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            with open("out.txt", "w") as fh:
                fh.write("x")
            """)
        assert rules_fired(findings) == {"atomic-write"}

    def test_flags_path_open_and_mode_kwarg(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from pathlib import Path
            a = Path("f").open("w")
            b = open("g", mode="wb")
            """)
        assert [f.line for f in findings] == [2, 3]
        assert rules_fired(findings) == {"atomic-write"}

    def test_flags_path_write_text_and_write_bytes(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from pathlib import Path
            Path("f").write_text("x", encoding="utf-8")
            out = Path("g")
            out.write_bytes(b"x")
            """)
        assert [f.line for f in findings] == [2, 4]
        assert rules_fired(findings) == {"atomic-write"}

    def test_reads_and_appends_are_clean(self, tmp_path):
        assert lint_snippet(tmp_path, """\
            from pathlib import Path
            a = open("f")
            b = open("g", "r")
            c = open("h", "ab")
            d = open("i", "x")
            e = Path("j").read_text()
            """) == []

    def test_atomic_module_is_exempt(self, tmp_path):
        target = tmp_path / "utils" / "atomic.py"
        target.parent.mkdir(parents=True)
        target.write_text('fh = open("f", "w")\n')
        assert run_lint([target]) == []


class TestNoBareAssert:
    def test_flags_assert(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            def f(x):
                assert x > 0
                return x
            """)
        assert rules_fired(findings) == {"no-bare-assert"}

    def test_typed_raise_is_clean(self, tmp_path):
        assert lint_snippet(tmp_path, """\
            from repro.errors import ConfigurationError
            def f(x):
                if x <= 0:
                    raise ConfigurationError("x must be positive")
                return x
            """) == []


class TestLockDiscipline:
    def test_flags_unlocked_write(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    self.count += 1
            """)
        assert rules_fired(findings) == {"lock-discipline"}
        assert findings[0].line == 9

    def test_locked_write_is_clean(self, tmp_path):
        assert lint_snippet(tmp_path, """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
            """) == []

    def test_condition_counts_as_lock(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import threading

            class Box:
                def __init__(self):
                    self._cond = threading.Condition()
                    self.value = None

                def put(self, v):
                    self.value = v
            """)
        assert rules_fired(findings) == {"lock-discipline"}

    def test_lockless_class_is_exempt(self, tmp_path):
        assert lint_snippet(tmp_path, """\
            class Plain:
                def set(self, v):
                    self.value = v
            """) == []

    def test_ground_truth_clean_modules(self):
        """The classes the heuristic was tuned on must stay clean."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        findings = run_lint([
            src / "exec" / "plan_cache.py",
            src / "service" / "service.py",
        ])
        locky = [f for f in findings if f.rule == "lock-discipline"]
        assert locky == [], locky


class TestRepoGate:
    def test_head_is_clean(self):
        """``repro check source`` exit-0 invariant, as a unit test."""
        payload = check_source()
        assert payload["ok"], payload["findings"]
        assert payload["n_findings"] == 0
        assert {r["id"] for r in payload["rules"]} == RULE_IDS

    @pytest.mark.parametrize("rule_id,snippet", [
        ("unseeded-rng",
         "import random\nx = random.random()\n"),
        ("wallclock-timing",
         "import time\nt = time.perf_counter()\n"),
        ("atomic-write",
         'fh = open("f", "w")\n'),
        ("no-bare-assert",
         "assert True\n"),
        ("lock-discipline",
         "import threading\n\n\nclass C:\n"
         "    def __init__(self):\n"
         "        self._lock = threading.Lock()\n\n"
         "    def set(self, v):\n"
         "        self.v = v\n"),
    ])
    def test_seeded_violation_fails_cli_with_rule_id(
        self, tmp_path, rule_id, snippet
    ):
        """Each rule's violation drives the CLI to exit 1, naming it."""
        bad = tmp_path / "seeded.py"
        bad.write_text(snippet)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "source",
             "--path", str(bad), "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1, proc.stderr
        import json

        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert rule_id in {f["rule"] for f in payload["findings"]}

    def test_clean_source_exits_zero_via_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "source"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout


def test_default_rules_are_fresh_instances():
    a, b = default_rules(), default_rules()
    assert {r.id for r in a} == RULE_IDS
    assert all(x is not y for x, y in zip(a, b, strict=True))
