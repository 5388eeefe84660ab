"""README.md's Python snippets run as written.

The fenced ``python`` blocks are concatenated in document order (later
blocks reuse names the quickstart defines) and executed in one fresh
interpreter with ``PYTHONPATH=src``, so the README cannot drift from
the API it shows.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(blocks) >= 2  # the quickstart and the serving snippet
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
