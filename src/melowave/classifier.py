"""Distance measures, kNN prediction and majority voting.

Neighbors are ordered by distance with exact ties broken by corpus
insertion order. A modal-class tie among the k nearest resolves to the
tied class owning the nearest point ("next nearest point" rule), which
makes k=2 predictions structurally identical to k=1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Sequence

import numpy as np


class Metric(Enum):
    EUCLIDEAN = "euclidean"
    CITYBLOCK = "cityblock"


def pairwise_distances(queries: np.ndarray, rows: np.ndarray, metric: Metric) -> np.ndarray:
    """Distance matrix between query rows and corpus rows."""
    # imported here, so that commands that measure no distance never load scipy
    from scipy.spatial.distance import cdist
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if queries.shape[1] != rows.shape[1]:
        raise ValueError(
            f"query length {queries.shape[1]} does not match corpus row length {rows.shape[1]}"
        )
    return cdist(queries, rows, metric.value)


@dataclass(frozen=True)
class LabeledCorpus:
    """Immutable classifier set: equal-length rows with class labels."""

    rows: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("corpus needs at least one row")
        if rows.shape[0] != len(self.labels):
            raise ValueError("one label per row is required")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class DistinctRows:
    """A matrix's distinct ``rows`` in first-occurrence order, each matrix
    row's distinct id (``ids``), and the copies of distinct row d: matrix
    rows ``copies[starts[d]:starts[d + 1]]``, ascending."""

    rows: np.ndarray
    ids: np.ndarray
    copies: np.ndarray
    starts: np.ndarray


def distinct_rows(matrix: np.ndarray) -> DistinctRows:
    """The rows of a matrix grouped by equal bytes."""
    seen: dict = {}
    ids = np.array([seen.setdefault(row.tobytes(), len(seen)) for row in matrix], dtype=np.intp)
    copies = np.argsort(ids, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=len(seen)))))
    return DistinctRows(matrix[copies[starts[:-1]]], ids, copies, starts)


def merge_nearest(
    dist: np.ndarray, best: tuple[np.ndarray, np.ndarray], groups: DistinctRows,
    excluded: tuple, first: int = 0,
) -> None:
    """Merges a distance block ``dist`` (masked in place) into ``best``: each
    query's first corpus rows in (distance, row) order and their distances,
    +inf past its last. ``dist[q, j]`` is query q's distance to every copy of
    distinct row ``first + j`` of ``groups``; rows lo[q]:hi[q] of ``excluded
    = (lo, hi)`` and non-finite entries are no neighbors of query q."""
    n_rows, n_groups = dist.shape
    n_cols, width = groups.copies.size, best[0].shape[1]
    base, end = groups.starts[first], groups.starts[first + n_groups]
    starts, copies = groups.starts[first : first + n_groups + 1] - base, groups.copies[base:end]
    lo, hi = excluded
    # a distinct row with every copy excluded is no neighbor; it first
    # occurs in some lo:hi, and distinct rows are in first-occurrence order
    head, tail = copies[starts[:-1]], copies[starts[1:] - 1]
    win = slice(*np.searchsorted(head, [lo.min(initial=n_cols), hi.max(initial=0)]))
    dist[:, win][(head[win] >= lo[:, None]) & (tail[win] < hi[:, None])] = np.inf
    # every finite distinct row left has a usable copy, so the first
    # `width` neighbors are copies of the distinct rows at or below both
    # the width-th smallest distance and the width-th best so far: of
    # each, its first `width` copies outside lo:hi, those below lo, then
    # those from hi on
    last = min(width, n_groups) - 1
    kth = np.fmin(np.partition(dist, last, axis=1)[:, last : last + 1], best[1][:, -1:])
    q, d = np.divmod(np.flatnonzero(dist <= np.fmin(kth, np.finfo(float).max)), n_groups)
    key = np.repeat(np.arange(n_groups), np.diff(starts)) * n_cols + copies  # ascending
    below = np.searchsorted(key, d * n_cols + lo[q]) - starts[d]
    above = np.searchsorted(key, d * n_cols + hi[q])
    pair, slot = np.nonzero(np.arange(width) < (below + starts[d + 1] - above)[:, None])
    old = np.isfinite(best[1])  # the neighbors so far, in the merge too
    rows = np.concatenate((np.nonzero(old)[0], q[pair]))
    dists = np.concatenate((best[1][old], dist[q, d][pair]))
    slots = np.where(slot < below[pair], starts[d][pair], (above - below)[pair]) + slot
    cols = np.concatenate((best[0][old], copies[slots]))
    order = np.lexsort((cols, dists, rows))
    rows, cols, dists = rows[order], cols[order], dists[order]
    count = np.bincount(rows, minlength=n_rows)
    rank = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    kept = rank < width
    best[0][:], best[1][:] = 0, np.inf
    best[0][rows[kept], rank[kept]], best[1][rows[kept], rank[kept]] = cols[kept], dists[kept]


def decide(nearest: np.ndarray, dist: np.ndarray, labels: Sequence, ks: Sequence[int]) -> dict:
    """The kNN decision of every query for each k in ks from its first
    max(ks) neighbors (``merge_nearest``): the modal label of the first k,
    a modal tie going to the tied label that comes first."""
    valid = np.isfinite(dist)  # a query may have fewer finite neighbors than k
    if not valid[:, 0].all():
        raise ValueError("no finite distances to classify against")
    n_rows, width = nearest.shape
    codes: dict = {}  # the neighbors' labels as integers, compared as arrays below
    code = np.array([codes.setdefault(labels[c], len(codes)) for c in nearest.ravel().tolist()])
    code = code.reshape(n_rows, width)
    # votes[r, k - 1, i]: votes of neighbor i's label among row r's first k
    # finite neighbors. Finite neighbors come first, so the first neighbor
    # whose label has the most votes is one of them, within the first k.
    same = (code[:, :, None] == code[:, None, :]) & valid[:, None, :]
    votes = np.cumsum(same, axis=2).transpose(0, 2, 1)
    winner = np.argmax(votes == votes.max(axis=2, keepdims=True), axis=2)
    chosen = nearest[np.arange(n_rows)[:, None], winner].T.tolist()
    return {k: [labels[c] for c in chosen[k - 1]] for k in ks}


def predict_from_distances(
    block: np.ndarray, labels: Sequence, ks: Sequence[int]
) -> tuple[dict[int, list], np.ndarray]:
    """kNN decision (``decide``) of every query of a distance block, one
    column per corpus row, for each k in ks, and each query's nearest
    distance."""
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    dist = np.array(block, dtype=float, ndmin=2)  # a copy, masked by merge_nearest
    one, lo = np.arange(dist.shape[1] + 1), np.zeros(len(dist), dtype=int)  # a group a row
    best = np.zeros((len(dist), max(ks)), dtype=int), np.full((len(dist), max(ks)), np.inf)
    merge_nearest(dist, best, DistinctRows(dist, one[:-1], one[:-1], one), (lo, lo))
    return decide(*best, labels, ks), best[1][:, 0]


def vote(row_labels: Sequence, block, heads: np.ndarray | None = None) -> Hashable:
    """Modal class of the per-row predictions of one item, whose distance
    rows ``block`` holds (or returns when called, which it is on a tie).

    A tie is broken by the globally smallest finite distance pooled over
    each tied class's rows of the block, extending outward through the
    pooled distances while equal; first-prediction order is the final
    fallback. ``heads``, each row's first w distances of the block in
    ascending order (+inf past its last), hold each class's first w pooled
    distances: a tie that they settle needs no block.
    """
    if not row_labels:
        raise ValueError("cannot vote over zero predictions")
    votes = Counter(row_labels)
    top = max(votes.values())
    tied = [label for label in votes if votes[label] == top]
    if len(tied) == 1:
        return tied[0]

    def pooled(rows: np.ndarray, label) -> list[float]:
        # sorted finite distances, then +inf: a label with a finite next-nearest
        # point precedes one without; min keeps the first of equal labels
        rows = rows[[i for i, row_label in enumerate(row_labels) if row_label == label]]
        return [*np.sort(rows[np.isfinite(rows)]).tolist(), np.inf]

    if heads is not None:
        first = [pooled(heads, label)[: heads.shape[1]] for label in tied]
        if first.count(min(first)) == 1:
            return tied[first.index(min(first))]
    block = block() if callable(block) else block
    return min(tied, key=lambda label: pooled(block, label))
