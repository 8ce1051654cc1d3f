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

    def __len__(self) -> int:
        return self.rows.shape[0]


def predict_from_distances(
    block: np.ndarray, labels: Sequence, ks: Sequence[int]
) -> dict[int, list]:
    """kNN decision of every row of a distance block, for each k in ks.

    Returns one label per row for each k. Each row's first max(ks)
    neighbors are found once, in (distance, insertion index) order, and
    shared by every k; non-finite entries (fold masking) never become
    neighbors. The decision is the modal label of the first k neighbors; a
    modal tie goes to the tied label that comes first. Every tied label has
    a vote among the first k, so neighbors beyond the first k never decide.
    """
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    block = np.atleast_2d(np.asarray(block, dtype=float))
    n_rows, n_cols = block.shape
    width = min(max(ks), n_cols)
    # each row's first `width` entries in (distance, column) order: those
    # below its width-th smallest distance, then its ties at that distance
    # in column order, so a row of thousands of equal distances costs no
    # sort (a row with fewer non-NaN entries takes them all)
    kth = np.partition(block, width - 1, axis=1)[:, width - 1 : width]
    kth[np.isnan(kth)] = np.inf
    less = np.flatnonzero(block < kth)
    tied = np.flatnonzero(block == kth)
    tied_start = np.searchsorted(tied, np.arange(n_rows + 1) * n_cols)  # per row, in order
    n_less = np.bincount(less // n_cols, minlength=n_rows)
    n_tied = np.minimum(width - n_less, np.diff(tied_start))
    slot = np.arange(width)
    flat = np.concatenate((less, tied[(tied_start[:-1, None] + slot)[slot < n_tied[:, None]]]))
    rows, cols = np.divmod(flat, n_cols)
    dist = block.ravel()[flat]
    order = np.lexsort((cols, dist, rows))
    rows, cols, dist = rows[order], cols[order], dist[order]
    count = n_less + n_tied
    rank = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    nearest = np.zeros((n_rows, width), dtype=int)
    nearest_dist = np.full((n_rows, width), np.inf)
    nearest[rows, rank] = cols
    nearest_dist[rows, rank] = dist
    valid = np.isfinite(nearest_dist)  # a row may have fewer finite entries than k
    if not valid.any(axis=1).all():
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
    return {k: [labels[c] for c in chosen[min(k, width) - 1]] for k in ks}


def vote(row_labels: Sequence, block: np.ndarray) -> Hashable:
    """Modal class of the per-row predictions of one item.

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
    pooled = {}
    for label in tied:
        rows = block[[i for i, row_label in enumerate(row_labels) if row_label == label]]
        pooled[label] = np.sort(rows[np.isfinite(rows)])
    best = tied[0]
    for label in tied[1:]:
        if _lex_less(pooled[label], pooled[best]):
            best = label
    return best


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a precedes b comparing entries ascending, missing = +inf."""
    n = min(a.size, b.size)
    for i in range(n):
        if a[i] != b[i]:
            return bool(a[i] < b[i])
    return a.size > b.size  # the longer list has a finite next-nearest point
