"""Seeded end-to-end and per-layer benchmark of the SpTRSV pipeline.

``python3 bench/run.py`` is the entry point; ``bench/README.md`` lists
the workloads, the metrics and the layer each per-layer metric belongs
to.  The benchmark imports the library from the ``src/`` directory of
the checkout it lives in, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Raises ``FileNotFoundError`` when the checkout has no library
    sources, so the benchmark fails instead of measuring some other
    installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
