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

from .segmentation import SegmentMatrix


class Metric(Enum):
    EUCLIDEAN = "euclidean"
    CITYBLOCK = "cityblock"


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Root-sum-square difference of two equal-length vectors."""
    a, b = _paired(a, b)
    return float(np.sqrt(np.sum((a - b) ** 2)))


def cityblock(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute differences of two equal-length vectors."""
    a, b = _paired(a, b)
    return float(np.sum(np.abs(a - b)))


def _paired(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vectors must share one length, got {a.shape} and {b.shape}")
    return a, b


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

    @classmethod
    def from_matrix(cls, matrix: SegmentMatrix) -> "LabeledCorpus":
        return cls(matrix.rows, matrix.labels)

    def __len__(self) -> int:
        return self.rows.shape[0]


def _decide(nearest: Sequence, k: int) -> Hashable:
    """Modal label of the first k; a modal tie goes to the tied class that
    comes first. Every tied class has a vote among the first k, so labels
    beyond the first k never decide."""
    votes = Counter(nearest[:k])
    top = max(votes.values())
    tied = {label for label, count in votes.items() if count == top}
    if len(tied) == 1:
        return next(iter(tied))
    return next(label for label in nearest if label in tied)


def predict_from_distances(
    block: np.ndarray, labels: Sequence, ks: Sequence[int]
) -> dict[int, list]:
    """kNN decision of every row of a distance block, for each k in ks.

    Returns one label per row for each k. Infinite entries (fold masking)
    never become neighbors; the neighbor order of a row is found once for
    the largest k and shared by the others.
    """
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    block = np.atleast_2d(np.asarray(block, dtype=float))
    k_max = max(ks)
    decisions: dict[int, list] = {k: [] for k in ks}
    for row in block:
        # the first k_max labels in (distance, insertion index) order
        kk = min(k_max, int(np.isfinite(row).sum()))
        if kk == 0:
            raise ValueError("no finite distances to classify against")
        if kk == row.size:
            candidates = np.arange(row.size)
        else:
            kth = np.partition(row, kk - 1)[kk - 1]
            candidates = np.nonzero(row <= kth)[0]
        order = candidates[np.lexsort((candidates, row[candidates]))]
        nearest = [labels[i] for i in order[:kk]]
        for k in ks:
            decisions[k].append(_decide(nearest, k))
    return decisions


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
