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
    """Distance matrix between query rows and corpus rows; given one array
    twice, each pair once, and the diagonal as ``cdist`` gives it."""
    # imported here, so that commands that measure no distance never load scipy
    from scipy.spatial.distance import cdist, pdist, squareform
    same = rows is queries
    queries, rows = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (queries, rows))
    if queries.shape[1] != rows.shape[1]:
        raise ValueError(
            f"query length {queries.shape[1]} does not match corpus row length {rows.shape[1]}"
        )
    if not same:
        return cdist(queries, rows, metric.value)
    square = squareform(pdist(queries, metric.value))
    np.fill_diagonal(square, np.where(np.isfinite(queries).all(axis=1), 0.0, np.nan))
    return square


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
    """A matrix's distinct ``rows`` by effective length (``lengths``: the
    index of the last entry other than 0.0 or -0.0, plus one), then by first
    occurrence; each matrix row's distinct id (``ids``), and the copies of
    distinct row d: matrix rows ``copies[starts[d]:starts[d + 1]]``, ascending."""

    rows: np.ndarray
    ids: np.ndarray
    copies: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray


def distinct_rows(matrix: np.ndarray) -> DistinctRows:
    """The rows of a matrix grouped by equal bytes."""
    seen: dict = {}
    first = np.array([seen.setdefault(row.tobytes(), len(seen)) for row in matrix], dtype=np.intp)
    nonzero = matrix[np.unique(first, return_index=True)[1]] != 0
    lengths = (nonzero * np.arange(1, nonzero.shape[1] + 1)).max(axis=1, initial=0)
    ids = np.argsort(np.argsort(lengths, kind="stable"))[first]
    copies = np.argsort(ids, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=len(seen)))))
    return DistinctRows(matrix[copies[starts[:-1]]], ids, copies, starts, np.sort(lengths))


class Nearest:
    """Each query's first ``width`` neighbors, merged from blocks whose columns
    are distinct rows (``copies`` and ``starts`` as in ``DistinctRows``):
    ``rows``, corpus rows in (distance, row) order, and ``dist``, their
    distances, +inf past the last. Query q belongs to item ``items[q]``, whose
    rows ``bounds[i]:bounds[i + 1]`` are no neighbors of it. Entries that can
    be among the first ``width`` wait, and merge before ``budget`` copies pass."""

    def __init__(self, copies, starts, items, bounds, width: int, budget: int):
        self.copies, self.starts, self.items, self.width = copies, starts, items, width
        self.excluded, self.budget = (bounds[items], bounds[items + 1]), budget
        # the items whose rows hold the first and the last copy of each distinct row
        ends = copies[starts[:-1]], copies[starts[1:] - 1]
        self.head, self.tail = (np.searchsorted(bounds, end, "right") - 1 for end in ends)
        # the item whose rows hold every copy of a distinct row, or -1; None if no item has rows
        self.owner = np.where(self.head == self.tail, self.head, -1) if bounds.any() else None
        # copies as (distinct row, corpus row) keys, one integer each, ascending
        self.key = np.repeat(np.arange(starts.size - 1), np.diff(starts)) * copies.size + copies
        shape = items.size, width
        self.rows, self.dist = np.zeros(shape, dtype=int), np.full(shape, np.inf)
        self.top = np.full(shape, np.inf)  # each query's smallest distinct-row distances
        self.buffer, self.buffered = [], 0

    def add(self, dist: np.ndarray, queries: slice, first: int) -> None:
        """Buffers block ``dist``: ``dist[r, j]`` is query ``queries.start + r``'s
        distance to every copy of distinct row ``first + j``. The first ``width``
        neighbors lie at or below both the width-th smallest distance to a
        distinct row with a usable copy so far and the width-th merged. A pair
        with that bound reads only the entries at or below it; its ``width``
        smallest lie among them, so its bound moves as if it read them all."""
        width, cap, n = self.width, np.finfo(float).max, dist.shape[1]
        top, merged = self.top[queries], self.dist[queries, -1]  # views
        items = self.items[queries]
        owner = None if self.owner is None else self.owner[first : first + n]
        bound = np.fmin(np.fmin(top[:, -1], merged), cap)
        unbound = bound == cap  # so no merged neighbor either: their top bounds them alone
        if unbound.any():  # their smallest entries, of a copy whose own rows are masked
            fresh = np.flatnonzero(unbound)
            block = dist[fresh]
            if owner is not None:
                block[items[fresh, None] == owner] = np.inf
            block.partition(min(width, n) - 1, axis=1)
            least = np.concatenate((top[fresh], block[:, :width]), axis=1)
            top[fresh] = np.partition(least, width - 1, axis=1)[:, :width]
            bound[fresh] = np.fmin(top[fresh, -1], cap)
        flat = np.flatnonzero(dist <= bound[:, None])
        r, j = np.divmod(flat, n)  # row-major
        d = dist.ravel()[flat]
        if owner is not None:
            usable = items[r] != owner[j]
            r, j, d = r[usable], j[usable], d[usable]
        known = ~unbound[r]  # entries of pairs bounded before this block
        if known.any():  # each pair's top and entries in one row, partitioned at once
            counts = np.bincount(r[known], minlength=bound.size)
            pairs = np.flatnonzero(counts)
            counts = counts[pairs]
            block = np.full((pairs.size, width + counts.max()), np.inf)
            block[:, :width] = top[pairs]
            row = np.repeat(np.arange(pairs.size), counts)
            rank = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
            block[row, width + rank] = d[known]
            block.partition(width - 1, axis=1)
            top[pairs] = block[:, :width]
            bound[pairs] = np.fmin(np.fmin(top[pairs, -1], merged[pairs]), cap)
            kept = d <= bound[r]
            r, j, d = r[kept], j[kept], d[kept]
        size = np.minimum(self.starts[j + first + 1] - self.starts[j + first], width).sum()
        if self.buffered + size > self.budget:
            self.flush()
        self.buffer.append((r + queries.start, j + first, d))
        self.buffered += size

    def flush(self) -> None:
        """Merges the buffer: of each entry's copies, the first ``width``
        outside lo:hi, those below lo, then those from hi on."""
        if not self.buffered:
            return
        q, d, dist = map(np.concatenate, zip(*self.buffer))
        self.buffer, self.buffered = [], 0
        starts, copies, width = self.starts, self.copies, self.width
        # the copies below lo, and where those from hi on start: all copies or none
        # where they lie before or after the query's item (after it, if no item has rows)
        item = self.items[q]
        before = self.tail[d] < item
        below = np.where(before, starts[d + 1] - starts[d], 0)
        above = starts[d] + below
        s = np.flatnonzero(~before & (self.head[d] <= item))  # the rest are searched
        below[s] = np.searchsorted(self.key, d[s] * copies.size + self.excluded[0][q[s]])
        below[s] -= starts[d[s]]
        above[s] = np.searchsorted(self.key, d[s] * copies.size + self.excluded[1][q[s]])
        flat = np.flatnonzero(np.arange(width) < (below + starts[d + 1] - above)[:, None])
        pair, slot = np.divmod(flat, width)
        mine = np.unique(q)
        old = np.flatnonzero(np.isfinite(self.dist[mine]))  # their neighbors so far, merged too
        rows = np.concatenate((mine[old // width], q[pair]))
        dists = np.concatenate((self.dist[mine].ravel()[old], dist[pair]))
        slots = np.where(slot < below[pair], starts[d][pair], (above - below)[pair]) + slot
        cols = np.concatenate((self.rows[mine].ravel()[old], copies[slots]))
        order = _merge_order(rows, dists, cols, copies.size)
        rank = np.arange(rows.size) - np.searchsorted(rows[order], rows[order])
        order, rank = order[rank < width], rank[rank < width]
        self.rows[mine], self.dist[mine] = 0, np.inf
        self.rows[rows[order], rank], self.dist[rows[order], rank] = cols[order], dists[order]


def _merge_order(rows: np.ndarray, dists: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """``np.lexsort((cols, dists, rows))`` as one stable sort of one integer key an entry:
    (row, distance rank, column), under pairs x distinct distances x copies. That is under
    2^63 while a merge holds < 2^21 entries and pairs x copies < 2^42, or one block < 2^31."""
    values, rank = np.unique(dists, return_inverse=True)  # -0.0 ranks with 0.0, NaN last
    return np.argsort((rows * values.size + rank) * n_cols + cols, kind="stable")


def decide(nearest: np.ndarray, dist: np.ndarray, labels: Sequence, ks: Sequence[int]) -> tuple:
    """Each query's kNN decision for each k in ks from its first max(ks)
    neighbors (``Nearest``), a modal tie going to the tied label that comes
    first: the corpus labels in first-occurrence order, and per k indices."""
    valid = np.isfinite(dist)  # a query may have fewer finite neighbors than k
    if not valid[:, 0].all():
        raise ValueError("no finite distances to classify against")
    codes: dict = {}  # the labels as integers, coded once and compared as arrays below
    code = np.array([codes.setdefault(label, len(codes)) for label in labels])[nearest]
    # votes[r, k - 1, i]: votes of neighbor i's label among row r's first k
    # finite neighbors. Finite neighbors come first, so the first neighbor
    # whose label has the most votes is one of them, within the first k.
    same = (code[:, :, None] == code[:, None, :]) & valid[:, None, :]
    votes = np.cumsum(same, axis=2).transpose(0, 2, 1)
    winner = np.argmax(votes == votes.max(axis=2, keepdims=True), axis=2)
    chosen = code[np.arange(len(code))[:, None], winner].T
    return list(codes), {k: chosen[k - 1] for k in ks}


def predict_from_distances(
    block: np.ndarray, labels: Sequence, ks: Sequence[int]
) -> tuple[dict[int, list], np.ndarray]:
    """kNN decision (``decide``) of every query of a distance block, one
    column per corpus row, for each k in ks, and each query's nearest
    distance."""
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    dist = np.array(block, dtype=float, ndmin=2)
    one, item = np.arange(dist.shape[1] + 1), np.zeros(len(dist), dtype=int)  # a group a column
    nearest = Nearest(one[:-1], one, item, np.zeros(2, dtype=int), max(ks), dist.size)
    nearest.add(dist, slice(0, len(dist)), 0)
    nearest.flush()
    names, by_k = decide(nearest.rows, nearest.dist, labels, ks)
    return {k: [names[c] for c in v.tolist()] for k, v in by_k.items()}, nearest.dist[:, 0]


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

    # the rows of the tied labels, ``top`` each, grouped by label in tie order
    index = {label: t for t, label in enumerate(tied)}
    code = np.array([index.get(label, len(tied)) for label in row_labels])
    rows = np.argsort(code, kind="stable")[: len(tied) * top]

    def pooled(distances: np.ndarray) -> np.ndarray:
        # each tied label's sorted finite distances, then +inf, all of one length:
        # a label with a finite next-nearest point precedes one without
        pool = distances[rows].reshape(len(tied), -1)
        return np.sort(np.where(np.isfinite(pool), pool, np.inf), axis=1)

    if heads is not None:
        best, repeated = _first_least(pooled(heads)[:, : heads.shape[1]])
        if not repeated:
            return tied[best]
    return tied[_first_least(pooled(block() if callable(block) else block))[0]]


def _first_least(lists: np.ndarray) -> tuple[int, bool]:
    """The first least row, where rows first differ, and whether a later row equals it."""
    best, repeated = 0, False
    for t in range(1, len(lists)):
        differ = np.flatnonzero(lists[t] != lists[best])
        if not differ.size:
            repeated = True
        elif lists[t, differ[0]] < lists[best, differ[0]]:
            best, repeated = t, False
    return best, repeated
