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
from scipy.spatial.distance import cdist


class Metric(Enum):
    EUCLIDEAN = "euclidean"
    CITYBLOCK = "cityblock"


def pairwise_distances(queries: np.ndarray, rows: np.ndarray, metric: Metric) -> np.ndarray:
    """Distance matrix between query rows and corpus rows."""
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


def predict_from_distances(
    block: np.ndarray, labels: Sequence, ks: Sequence[int],
    groups: DistinctRows | None = None, excluded: tuple | None = None,
) -> tuple[dict[int, list], np.ndarray]:
    """kNN decision of every query of a distance block for each k in ks,
    and each query's nearest distance.

    ``block[q, d]`` is query q's distance to every copy of distinct corpus
    row d of ``groups`` (to corpus row d without groups); ``labels`` label
    the corpus rows. Corpus rows lo[q]:hi[q] of ``excluded = (lo, hi)`` are
    no neighbors of query q, nor are non-finite entries. The first max(ks)
    neighbors in (distance, corpus row) order serve every k: the decision
    is the modal label of the first k, and a modal tie goes to the tied
    label that comes first, so neighbors beyond the first k never decide.
    """
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    dist = np.array(block, dtype=float, ndmin=2)  # a copy, masked below
    n_rows, n_groups = dist.shape
    starts = np.arange(n_groups + 1) if groups is None else groups.starts  # one row a group
    copies = starts[:-1] if groups is None else groups.copies
    n_cols = copies.size
    lo, hi = (np.zeros(n_rows, dtype=int),) * 2 if excluded is None else excluded
    # a distinct row with every copy excluded is no neighbor; it first
    # occurs in some lo:hi, and distinct rows are in first-occurrence order
    first, last = copies[starts[:-1]], copies[starts[1:] - 1]
    win = slice(*np.searchsorted(first, [lo.min(initial=n_cols), hi.max(initial=0)]))
    dist[:, win][(first[win] >= lo[:, None]) & (last[win] < hi[:, None])] = np.inf
    # every finite distinct row left has a usable copy, so the first
    # `width` neighbors are copies of the distinct rows at or below the
    # width-th smallest distance: of each, its first `width` copies outside
    # lo:hi, those below lo, then those from hi on
    width = min(max(ks), n_cols)
    last = min(width, n_groups) - 1
    kth = np.partition(dist, last, axis=1)[:, last : last + 1]
    q, d = np.divmod(np.flatnonzero(dist <= np.fmin(kth, np.finfo(float).max)), n_groups)
    key = np.repeat(np.arange(n_groups), np.diff(starts)) * n_cols + copies  # ascending
    below = np.searchsorted(key, d * n_cols + lo[q]) - starts[d]
    above = np.searchsorted(key, d * n_cols + hi[q])
    pair, slot = np.nonzero(np.arange(width) < (below + starts[d + 1] - above)[:, None])
    rows, dists = q[pair], dist[q, d][pair]
    cols = copies[np.where(slot < below[pair], starts[d][pair], (above - below)[pair]) + slot]
    order = np.lexsort((cols, dists, rows))
    rows, cols, dists = rows[order], cols[order], dists[order]
    count = np.bincount(rows, minlength=n_rows)
    rank = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    kept = rank < width
    nearest = np.zeros((n_rows, width), dtype=int)
    nearest_dist = np.full((n_rows, width), np.inf)
    nearest[rows[kept], rank[kept]] = cols[kept]
    nearest_dist[rows[kept], rank[kept]] = dists[kept]
    valid = np.isfinite(nearest_dist)  # a row may have fewer finite neighbors than k
    if not valid[:, 0].all():
        raise ValueError("no finite distances to classify against")
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
    by_k = {k: [labels[c] for c in chosen[min(k, width) - 1]] for k in ks}
    return by_k, nearest_dist[:, 0]


def vote(row_labels: Sequence, block) -> Hashable:
    """Modal class of the per-row predictions of one item, whose distance
    rows ``block`` holds (or returns when called, which it is on a tie).

    A tie is broken by the globally smallest finite distance pooled over
    each tied class's rows of the block, extending outward through the
    pooled distances while equal; first-prediction order is the final
    fallback.
    """
    if not row_labels:
        raise ValueError("cannot vote over zero predictions")
    votes = Counter(row_labels)
    top = max(votes.values())
    tied = [label for label in votes if votes[label] == top]
    if len(tied) == 1:
        return tied[0]
    if callable(block):
        block = block()

    def pooled(label) -> list[float]:
        # sorted finite distances, then +inf: a label with a finite next-nearest
        # point precedes one without; min keeps the first of equal labels
        rows = block[[i for i, row_label in enumerate(row_labels) if row_label == label]]
        return [*np.sort(rows[np.isfinite(rows)]).tolist(), np.inf]

    return min(tied, key=pooled)
