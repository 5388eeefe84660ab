"""The repository's invariant rules.

Each rule encodes one hard-won repo convention (see ``docs/analysis.md``
for the catalogue with rationale and suppression syntax):

* ``unseeded-rng`` — deterministic libraries don't roll global dice:
  every dataset and tie-break in this repo is reproducible because
  RNGs are constructed from explicit seeds.
* ``wallclock-timing`` — wall-clock reads are quarantined in the
  modules whose *job* is measurement (``utils/timing.py``, the service
  layer, the obs subsystem); everywhere else a stray
  ``perf_counter()`` is an unseeded measurement that poisons
  simulated/deterministic paths.
* ``atomic-write`` — a bare truncating ``open(path, "w")``,
  ``Path.write_text`` or ``Path.write_bytes`` tears files under crashes
  and racing writers; persisted artifacts go through
  :mod:`repro.utils.atomic`.
* ``no-bare-assert`` — ``assert`` disappears under ``python -O`` and
  raises the wrong type; library validation raises typed errors from
  :mod:`repro.errors`.  (Internal type-narrowing asserts carry an
  explicit ``# repro: allow[no-bare-assert]``.)
* ``direct-timing-in-hot-path`` — the execution hot path
  (``repro/exec/``) must not read clocks or construct
  :class:`~repro.utils.timing.Timer` directly; timing there flows
  through the observability facade (``get_obs()`` → ``obs.clock()``)
  so the disabled gate keeps the hot path measurement-free.
* ``lock-discipline`` — in a class that creates a
  ``threading.Lock``/``Condition``, attribute writes reachable outside
  a ``with self._lock:`` block are data races waiting for a scheduler
  to find them (tuned on ``plan_cache.py``/``service.py`` as the
  ground-truth clean corpus; ``__init__`` is exempt — the object is
  not yet shared).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import (
    LintFinding,
    ModuleSource,
    Rule,
    register_rule,
)

__all__ = [
    "AtomicWriteRule",
    "DirectTimingInHotPathRule",
    "LockDisciplineRule",
    "NoBareAssertRule",
    "UnseededRngRule",
    "WallclockTimingRule",
]


class _Imports:
    """Local-name → dotted-origin map for one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        self.modules[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, func: ast.expr) -> str | None:
        """Dotted origin of a call target, e.g. ``time.perf_counter``."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        if parts:
            origin = self.modules.get(node.id)
            if origin is None:
                origin = self.names.get(node.id)
            if origin is None:
                return None
            return ".".join([origin, *reversed(parts)])
        return self.names.get(node.id)


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class UnseededRngRule(Rule):
    id = "unseeded-rng"
    severity = "error"
    autofixable = False
    description = (
        "library code must not draw from unseeded randomness: "
        "np.random.default_rng() without a seed and any stdlib "
        "random.* call are forbidden (construct a Generator from an "
        "explicit seed instead)"
    )

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        imports = _Imports(module.tree)
        for call in _calls(module.tree):
            origin = imports.resolve(call.func)
            if origin is None:
                continue
            if origin == "numpy.random.default_rng" and not call.args \
                    and not call.keywords:
                yield self.finding(
                    module, call,
                    "np.random.default_rng() without a seed is "
                    "non-reproducible; pass an explicit seed",
                )
            elif origin.startswith("random."):
                yield self.finding(
                    module, call,
                    f"stdlib {origin}() draws from the global unseeded "
                    f"RNG; use np.random.default_rng(seed)",
                )


@register_rule
class WallclockTimingRule(Rule):
    id = "wallclock-timing"
    severity = "error"
    autofixable = False
    description = (
        "wall-clock reads (time.time/perf_counter/monotonic/"
        "process_time) are confined to utils/timing.py, service/ "
        "and obs/ — everywhere else timing flows "
        "through utils.timing.Timer (or the obs facade) so "
        "deterministic paths stay deterministic"
    )

    _CLOCKS = frozenset((
        "time.time",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
    ))
    _WHITELIST_SUFFIXES = (
        "utils/timing.py",
    )

    def _whitelisted(self, module: ModuleSource) -> bool:
        path = module.path.replace("\\", "/")
        if any(path.endswith(sfx) for sfx in self._WHITELIST_SUFFIXES):
            return True
        # the service layer measures latency; the obs subsystem *is*
        # the measurement infrastructure (its clock re-export is what
        # the rest of the repo routes through)
        return "repro/service/" in path or "repro/obs/" in path

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        if self._whitelisted(module):
            return
        imports = _Imports(module.tree)
        for call in _calls(module.tree):
            origin = imports.resolve(call.func)
            if origin in self._CLOCKS:
                yield self.finding(
                    module, call,
                    f"{origin}() outside the timing whitelist; measure "
                    f"through repro.utils.timing.Timer or move the "
                    f"code into a measurement module",
                )


@register_rule
class DirectTimingInHotPathRule(Rule):
    id = "direct-timing-in-hot-path"
    severity = "error"
    autofixable = False
    description = (
        "the execution hot path (repro/exec/) must not read clocks or "
        "construct utils.timing.Timer directly; route timing through "
        "the observability facade (get_obs() -> obs.clock()) so the "
        "disabled REPRO_OBS gate keeps solve/compile measurement-free"
    )

    _HOT_PATH_FRAGMENT = "repro/exec/"
    _TIMER_ORIGINS = frozenset((
        "repro.utils.timing.Timer",
        "repro.utils.Timer",
    ))

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        path = module.path.replace("\\", "/")
        if self._HOT_PATH_FRAGMENT not in path:
            return
        imports = _Imports(module.tree)
        for call in _calls(module.tree):
            origin = imports.resolve(call.func)
            if origin is None:
                continue
            if origin in WallclockTimingRule._CLOCKS:
                yield self.finding(
                    module, call,
                    f"{origin}() read directly on the execution hot "
                    f"path; call obs.clock() behind get_obs() so the "
                    f"disabled gate pays nothing",
                )
            elif origin in self._TIMER_ORIGINS:
                yield self.finding(
                    module, call,
                    "utils.timing.Timer constructed on the execution "
                    "hot path; instrument through the obs facade "
                    "(get_obs() histograms) instead",
                )


@register_rule
class AtomicWriteRule(Rule):
    id = "atomic-write"
    severity = "error"
    autofixable = False
    description = (
        "bare truncating open(path, 'w'), .write_text() or "
        ".write_bytes() tears files under crashes and racing writers; "
        "persisted artifacts go through repro.utils.atomic (temp file "
        "+ rename)"
    )

    _MODE_CHARS = frozenset("rwxab+tU")

    #: Methods that truncate their target before writing (``pathlib``).
    _TRUNCATING_METHODS = frozenset({"write_text", "write_bytes"})

    def _mode(self, call: ast.Call) -> str | None:
        """The mode argument of an ``open``-like call, when constant.

        ``open(path, "w")`` passes the mode second, ``Path(...)
        .open("w")`` first — rather than guess the callee's signature,
        any leading positional (or ``mode=``) string constant made
        solely of mode characters counts.
        """
        for kw in call.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                return kw.value.value
        for arg in call.args[:2]:
            if isinstance(arg, ast.Constant) \
                    and isinstance(arg.value, str) and arg.value \
                    and set(arg.value) <= self._MODE_CHARS:
                return arg.value
        return None

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        if module.path.replace("\\", "/").endswith("utils/atomic.py"):
            return
        for call in _calls(module.tree):
            func = call.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in self._TRUNCATING_METHODS:
                yield self.finding(
                    module, call,
                    f".{func.attr}() truncates before writing and is "
                    f"not crash-safe; write through repro.utils.atomic "
                    f"(atomic_write_text/atomic_write_json)",
                )
                continue
            if isinstance(func, ast.Name) and func.id == "open":
                pass
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                if isinstance(func.value, ast.Name) \
                        and func.value.id == "os":
                    continue  # os.open takes flag ints, not a mode
            else:
                continue
            mode = self._mode(call)
            if mode is not None and mode.startswith("w"):
                yield self.finding(
                    module, call,
                    f"truncating open(..., {mode!r}) is not "
                    f"crash-safe; write through repro.utils.atomic "
                    f"(atomic_write_text/atomic_write_json)",
                )


@register_rule
class NoBareAssertRule(Rule):
    id = "no-bare-assert"
    severity = "error"
    autofixable = False
    description = (
        "assert vanishes under python -O and raises AssertionError "
        "instead of a typed error; validate with exceptions from "
        "repro.errors (suppress type-narrowing asserts explicitly)"
    )

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    module, node,
                    "bare assert in library code; raise a typed error "
                    "from repro.errors instead",
                )


@register_rule
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    severity = "error"
    autofixable = False
    description = (
        "in a class owning a threading.Lock/RLock/Condition, self-"
        "attribute writes outside `with self.<lock>:` (and outside "
        "__init__) are data races; take the lock or suppress with a "
        "pragma stating why the write is safe"
    )

    _LOCK_TYPES = frozenset(("Lock", "RLock", "Condition"))

    def _lock_attrs(
        self, cls: ast.ClassDef, imports: _Imports
    ) -> set[str]:
        """Attributes assigned a ``threading.Lock()``-like object."""
        locks: set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            origin = imports.resolve(value.func)
            if origin is None or origin.split(".")[0] != "threading":
                continue
            if origin.split(".")[-1] not in self._LOCK_TYPES:
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    locks.add(target.attr)
        return locks

    def _is_lock_guard(self, item: ast.expr, locks: set[str]) -> bool:
        return (
            isinstance(item, ast.Attribute)
            and isinstance(item.value, ast.Name)
            and item.value.id == "self"
            and item.attr in locks
        )

    def _walk(
        self,
        module: ModuleSource,
        node: ast.AST,
        locks: set[str],
        held: bool,
    ) -> Iterator[LintFinding]:
        if isinstance(node, ast.With):
            if any(self._is_lock_guard(i.context_expr, locks)
                   for i in node.items):
                held = True
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                targets = []  # a bare annotation writes nothing
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target]
            for target in targets:
                if (
                    not held
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in locks
                ):
                    guards = " / ".join(
                        f"self.{name}" for name in sorted(locks)
                    )
                    yield self.finding(
                        module, node,
                        f"self.{target.attr} is written outside a "
                        f"`with {guards}:` block in a lock-owning "
                        f"class (reachable data race)",
                    )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(module, child, locks, held)

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        imports = _Imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            locks = self._lock_attrs(node, imports)
            if not locks:
                continue
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name == "__init__":
                    # construction happens before the object is shared
                    continue
                for stmt in item.body:
                    yield from self._walk(module, stmt, locks, False)
