"""Coverage-aware thinning of observation records.

A bounded training store has to drop something; *what* it drops decides
how the learned prior degrades.  FIFO truncation forgets whole regions
of feature space as soon as recent traffic stops visiting them — a fleet
that tunes a new family of meshes for a week evicts everything it knew
about Erdős–Rényi structure.  The store prunes by **feature-space coverage**
instead: within each ``(scheduler, reordered, mode)`` variant the unique
feature vectors are ordered by farthest-point sampling (greedily keep
the vector farthest from everything kept so far), and records are
retained round-robin along that ordering, newest first per vector.  The
kept set spans the observed feature space as evenly as the budget
allows, however lopsided the traffic that produced it.

Determinism: ties in the farthest-point argmax break toward the lowest
index, the seed point is the vector farthest from the group centroid,
and the surviving records keep their original store order — pruning the
same records to the same budget always yields the same result.
"""

from __future__ import annotations

import numpy as np

from repro.tuner.features import MatrixFeatures
from repro.tuner.learn import feature_vector

__all__ = ["coverage_prune", "farthest_point_order"]


def farthest_point_order(vectors: np.ndarray, k: int | None = None) -> list[int]:
    """Indices of ``vectors`` in farthest-point-sampling order.

    The first index is the vector farthest from the centroid; each
    subsequent index maximizes the distance to the already-selected
    set.  ``k`` bounds the length of the returned ordering (default:
    all of them).  Cost is one vectorized distance pass per selected
    point — O(k · n) distances, never O(n²) memory.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.store import farthest_point_order
    >>> pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    >>> order = farthest_point_order(pts, k=2)
    >>> sorted(pts[order].ravel().tolist())   # one point per cluster
    [0.0, 10.1]
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    if n == 0:
        return []
    k = n if k is None else max(min(int(k), n), 1)
    centroid = vectors.mean(axis=0)
    first = int(np.linalg.norm(vectors - centroid, axis=1).argmax())
    order = [first]
    min_dist = np.linalg.norm(vectors - vectors[first], axis=1)
    for _ in range(1, k):
        nxt = int(min_dist.argmax())
        order.append(nxt)
        np.minimum(
            min_dist,
            np.linalg.norm(vectors - vectors[nxt], axis=1),
            out=min_dist,
        )
    return order


def _variant_key(record: dict) -> tuple[str, bool, str]:
    return (
        str(record.get("scheduler", "")),
        bool(record.get("reordered", False)),
        str(record.get("mode", "")),
    )


def _record_vector(record: dict) -> np.ndarray | None:
    try:
        return feature_vector(MatrixFeatures.from_dict(record["features"]))
    except (KeyError, TypeError, ValueError):
        return None


def _allocate_quotas(sizes: list[int], budget: int) -> list[int]:
    """Per-group budgets proportional to group size (largest-remainder
    rounding), each group getting at least one slot while slots last."""
    total = sum(sizes)
    if total <= budget:
        return list(sizes)
    shares = [budget * size / total for size in sizes]
    quotas = [int(s) for s in shares]
    # groups ordered by descending fractional remainder (ties: larger
    # group, then lower index) receive the leftover slots
    leftovers = sorted(
        range(len(sizes)),
        key=lambda i: (-(shares[i] - quotas[i]), -sizes[i], i),
    )
    remaining = budget - sum(quotas)
    for i in leftovers:
        if remaining <= 0:
            break
        quotas[i] += 1
        remaining -= 1
    # every non-empty group keeps at least one record while the budget
    # allows, funded by the largest quotas
    donors = sorted(range(len(sizes)), key=lambda i: -quotas[i])
    for i in range(len(sizes)):
        if sizes[i] > 0 and quotas[i] == 0:
            for j in donors:
                if quotas[j] > 1:
                    quotas[j] -= 1
                    quotas[i] = 1
                    break
    return [min(q, s) for q, s in zip(quotas, sizes, strict=True)]


def coverage_prune(records: list[dict], keep: int) -> list[dict]:
    """The ``<= keep`` records retained by coverage-aware thinning.

    Records that fail to parse (no feature payload) are dropped first;
    the budget is split across ``(scheduler, reordered, mode)`` variants
    proportionally to their size (each surviving variant keeps at least
    one record), and within a variant records are kept round-robin over
    the farthest-point ordering of its unique feature vectors, newest
    record first per vector.  The result preserves the original record
    order.
    """
    keep = max(int(keep), 0)
    if len(records) <= keep:
        return list(records)

    groups: dict[tuple[str, bool, str], list[tuple[int, bytes]]] = {}
    vectors_by_key: dict[bytes, np.ndarray] = {}
    for index, record in enumerate(records):
        vector = _record_vector(record)
        if vector is None:
            continue
        token = vector.tobytes()
        vectors_by_key.setdefault(token, vector)
        groups.setdefault(_variant_key(record), []).append((index, token))

    variant_order = sorted(groups)
    quotas = _allocate_quotas(
        [len(groups[v]) for v in variant_order], keep
    )

    kept_indices: list[int] = []
    for variant, quota in zip(variant_order, quotas, strict=True):
        if quota <= 0:
            continue
        members = groups[variant]
        # unique vectors in first-seen order; per vector, record indices
        # newest-first so the freshest measurement survives longest
        token_order: list[bytes] = []
        by_token: dict[bytes, list[int]] = {}
        for index, token in members:
            if token not in by_token:
                by_token[token] = []
                token_order.append(token)
            by_token[token].append(index)
        matrix = np.stack([vectors_by_key[t] for t in token_order])
        fps = farthest_point_order(matrix)
        ranked = [by_token[token_order[i]][::-1] for i in fps]
        taken = 0
        depth = 0
        while taken < quota:
            progressed = False
            for rows in ranked:
                if depth < len(rows):
                    kept_indices.append(rows[depth])
                    taken += 1
                    progressed = True
                    if taken >= quota:
                        break
            if not progressed:
                break
            depth += 1

    kept_indices.sort()
    return [records[i] for i in kept_indices]
