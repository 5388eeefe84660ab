"""Atomic file writes: serialize, write a sibling temp file, rename.

Tuning profiles, plan-store sidecars, schedules, matrices and
observability snapshots are read back by later runs (often by *other*
processes: suite workers, services, CI steps).  A plain
``open(path, "w")`` truncates the target before the first byte is
written, so a crash mid-``json.dump`` — or two workers racing — leaves
a torn file that poisons every future warm start.  Every persisted artifact therefore goes through
:func:`atomic_write_text`: the full content is materialized first, lands
in a temp file *in the same directory* (same filesystem, so the rename
is atomic), and :func:`os.replace` swaps it in.  Readers observe either
the previous complete file or the new one, never a prefix.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_json", "atomic_write_text"]


def atomic_write_text(
    path: str | os.PathLike, text: str, *, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    On any failure the temp file is removed and the previous content of
    ``path`` is left untouched.

    Examples
    --------
    >>> import os, tempfile
    >>> from repro.utils.atomic import atomic_write_text
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     target = os.path.join(tmp, "out.txt")
    ...     atomic_write_text(target, "payload\\n")
    ...     open(target).read()
    'payload\\n'
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_json(
    payload: object,
    path: str | os.PathLike,
    *,
    indent: int | None = 2,
    sort_keys: bool = True,
) -> None:
    """Serialize ``payload`` and write it atomically.

    Serialization happens *before* the temp file is opened: an
    unserializable payload raises without a single byte reaching the
    filesystem, so the previous good file survives even the earliest
    failure mode.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)
