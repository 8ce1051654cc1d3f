"""Distance measures, kNN prediction and majority voting.

Neighbors are ordered by distance with exact ties broken by corpus
insertion order. A modal-class tie among the k nearest resolves to the
tied class owning the nearest point ("next nearest point" rule), which
makes k=2 predictions structurally identical to k=1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


_CAP = np.finfo(float).max  # the loosest bound: never +inf, which is never buffered


class Nearest:
    """Each query's first ``width`` neighbors, merged from tiles of distinct
    query rows x distinct corpus rows (``copies`` and ``starts`` as in
    ``DistinctRows``): ``rows``, corpus rows in (distance, row) order, and
    ``dist``, their distances, +inf past the last. The queries of distinct
    query row d are ``queries[d]:queries[d + 1]``; query q belongs to item
    ``items[q]``, whose rows ``bounds[i]:bounds[i + 1]`` are no neighbors of
    it. Entries that can be among the first ``width`` wait, and merge before
    ``budget`` copies pass."""

    def __init__(self, copies, starts, queries, items, bounds, width: int, budget: int):
        self.copies, self.starts, self.queries = copies, starts, queries
        self.items, self.width, self.budget = items, width, budget
        self.excluded = bounds[items], bounds[items + 1]
        self.distinct = np.repeat(np.arange(queries.size - 1), np.diff(queries))  # each query's
        self.capped = np.minimum(np.diff(starts), width)  # the copies an entry can merge
        # the items whose rows hold the first and the last copy of each distinct row
        ends = copies[starts[:-1]], copies[starts[1:] - 1]
        self.head, self.tail = (np.searchsorted(bounds, end, "right") - 1 for end in ends)
        # the item whose rows hold every copy of a distinct row, or -1; with
        # all-zero bounds, bounds.size - 1, an item past the last that owns no query
        self.owner = np.where(self.head == self.tail, self.head, -1)
        # copies as (distinct row, corpus row) keys, one integer each, ascending
        self.key = np.repeat(np.arange(starts.size - 1), np.diff(starts)) * copies.size + copies
        shape = items.size, width
        self.rows, self.dist = np.zeros(shape, dtype=int), np.full(shape, np.inf)
        self.top = np.full(shape, np.inf)  # each query's smallest distinct-row distances
        # each query's bound: the smaller of its top's and its merged width-th distance
        self.bound = np.full(items.size, _CAP)
        self.buffer, self.buffered = [], 0

    def add(self, tile: np.ndarray, rows: slice, cols: slice, both: bool = False) -> None:
        """Buffers tile ``tile``: ``tile[a, b]`` is the distance of distinct
        query row ``rows.start + a`` to every copy of distinct corpus row
        ``cols.start + b``. With ``both`` the queries are the corpus, and the
        tile's columns read it too: ``tile[a, b]`` is also distinct query row
        ``cols.start + b``'s distance to the copies of ``rows.start + a``."""
        self._add(tile, rows, cols, False)
        if both:
            self._add(tile, cols, rows, True)

    def _add(self, tile: np.ndarray, rows: slice, cols: slice, across: bool) -> None:
        """Buffers the entries of distinct query rows ``rows`` to distinct
        corpus rows ``cols`` that can be among their queries' first
        ``width``: the rows of ``tile``, or its columns if ``across``.

        A query's first ``width`` neighbors lie at or below its bound. Each
        row is compared once, with the loosest bound of its queries; only the
        entries at or below it are expanded to its queries and held to each
        query's own bound and item, and a query with a bound updates it from
        those, as if it read them all. A query without one yet masks its own
        item's columns in a copy of its row and partitions it first."""
        width, n, first = self.width, cols.stop - cols.start, cols.start
        a, b = self.queries[rows.start], self.queries[rows.stop]
        bound, top, merged = self.bound[a:b], self.top[a:b], self.dist[a:b, -1]  # views
        items, row = self.items[a:b], self.distinct[a:b] - rows.start
        owner = self.owner[cols]
        fresh = np.flatnonzero(bound == _CAP)  # no bound yet, so no merged neighbor either
        if fresh.size:
            block = tile.T[row[fresh]] if across else tile[row[fresh]]
            # the columns of each one's item, found by their owner
            by = np.argsort(owner, kind="stable")
            lo, hi = (np.searchsorted(owner[by], items[fresh], s) for s in ("left", "right"))
            block[np.repeat(np.arange(fresh.size), hi - lo), by[_ranges(lo, hi - lo)]] = np.inf
            block.partition(min(width, n) - 1, axis=1)
            least = np.concatenate((top[fresh], block[:, :width]), axis=1)
            top[fresh] = np.partition(least, width - 1, axis=1)[:, :width]
            bound[fresh] = np.fmin(top[fresh, -1], _CAP)
        single = b - a == rows.stop - rows.start  # a query a row
        loose = bound if single else np.maximum.reduceat(bound, self.queries[rows] - a)
        if across:  # compared along the tile's rows, then ordered by query row
            flat = np.flatnonzero(tile <= loose)
            flat = flat[np.argsort(flat % tile.shape[1], kind="stable")]
            j, r = np.divmod(flat, tile.shape[1])
        else:
            flat = np.flatnonzero(tile <= loose[:, None])
            r, j = np.divmod(flat, n)
        d = tile.ravel()[flat]
        if single:
            q = r
        else:  # each entry once for each query of its row, query by query
            per_row = np.bincount(r, minlength=rows.stop - rows.start)
            e = _ranges((np.cumsum(per_row) - per_row)[row], per_row[row])
            q, j, d = np.repeat(np.arange(b - a), per_row[row]), j[e], d[e]
        keep = (d <= bound[q]) & (items[q] != owner[j])
        q, j, d = q[keep], j[keep], d[keep]
        known = slice(None)
        if fresh.size:  # their top holds their entries already
            unbound = np.zeros(b - a, dtype=bool)
            unbound[fresh] = True
            known = ~unbound[q]
        counts = np.bincount(q[known], minlength=b - a)
        held = np.flatnonzero(counts)
        if held.size:  # each query's top and entries in one row, partitioned at once
            counts = counts[held]
            block = np.full((held.size, width + counts.max()), np.inf)
            block[:, :width] = top[held]
            block[np.repeat(np.arange(held.size), counts), width + _ranges(0, counts)] = d[known]
            block.partition(width - 1, axis=1)
            top[held] = block[:, :width]
            bound[held] = np.fmin(np.fmin(top[held, -1], merged[held]), _CAP)
            kept = d <= bound[q]
            q, j, d = q[kept], j[kept], d[kept]
        size = self.capped[j + first].sum()
        if self.buffered + size > self.budget:
            self.flush()
        self.buffer.append((q + a, j + first, d))
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
        mine = np.flatnonzero(np.bincount(q, minlength=self.items.size))
        old = np.flatnonzero(np.isfinite(self.dist[mine]))  # their neighbors so far, merged too
        rows = np.concatenate((mine[old // width], q[pair]))
        dists = np.concatenate((self.dist[mine].ravel()[old], dist[pair]))
        slots = np.where(slot < below[pair], starts[d][pair], (above - below)[pair]) + slot
        cols = np.concatenate((self.rows[mine].ravel()[old], copies[slots]))
        order = _merge_order(rows, dists, cols, copies.size)
        rank = _ranges(0, np.bincount(rows, minlength=self.items.size))  # in each query's order
        order, rank = order[rank < width], rank[rank < width]
        self.rows[mine], self.dist[mine] = 0, np.inf
        self.rows[rows[order], rank], self.dist[rows[order], rank] = cols[order], dists[order]
        self.bound[mine] = np.fmin(np.fmin(self.top[mine, -1], self.dist[mine, -1]), _CAP)


def _ranges(starts, counts: np.ndarray) -> np.ndarray:
    """``counts[i]`` consecutive integers from ``starts[i]`` (or from ``starts``), i by i."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _merge_order(rows: np.ndarray, dists: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """``np.lexsort((cols, dists, rows))`` as one stable sort of one integer key an entry:
    (row, distance rank, column), under pairs x distinct distances x copies. That is under
    2^63 while a merge holds < 2^21 entries and pairs x copies < 2^42, or one block < 2^31."""
    values, rank = np.unique(dists, return_inverse=True)  # -0.0 ranks with 0.0, NaN last
    return np.argsort((rows * values.size + rank) * n_cols + cols, kind="stable")


def code_labels(labels: Sequence) -> tuple[list, np.ndarray]:
    """The distinct labels in first-occurrence order, and each label's
    index among them, so that labels compare as integer arrays."""
    names: dict = {}
    codes = np.array([names.setdefault(label, len(names)) for label in labels], dtype=np.intp)
    return list(names), codes


def decide(nearest: np.ndarray, dist: np.ndarray, codes: np.ndarray, ks: Sequence[int]) -> dict:
    """Each query's kNN decision for each k in ks from its first max(ks)
    neighbors (``Nearest``) and the corpus rows' label codes ``codes``
    (``code_labels``), a modal tie going to the tied label that comes
    first: per k, each query's label code."""
    valid = np.isfinite(dist)  # a query may have fewer finite neighbors than k
    if not valid[:, 0].all():
        raise ValueError("no finite distances to classify against")
    code = codes[nearest]
    # votes[r, k - 1, i]: votes of neighbor i's label among row r's first k
    # finite neighbors. Finite neighbors come first, so the first neighbor
    # whose label has the most votes is one of them, within the first k.
    same = (code[:, :, None] == code[:, None, :]) & valid[:, None, :]
    votes = np.cumsum(same, axis=2).transpose(0, 2, 1)
    winner = np.argmax(votes == votes.max(axis=2, keepdims=True), axis=2)
    chosen = code[np.arange(len(code))[:, None], winner].T
    return {k: chosen[k - 1] for k in ks}


def predict_from_distances(
    block: np.ndarray, labels: Sequence, ks: Sequence[int]
) -> tuple[dict[int, list], np.ndarray]:
    """kNN decision (``decide``) of every query of a distance block, one
    column per corpus row, for each k in ks, and each query's nearest
    distance."""
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    dist = np.array(block, dtype=float, ndmin=2)
    # a distinct row a column and a query a row, all of one item that excludes no row
    one, each = np.arange(dist.shape[1] + 1), np.arange(len(dist) + 1)
    item, nothing = np.zeros(len(dist), dtype=int), np.zeros(2, dtype=int)
    nearest = Nearest(one[:-1], one, each, item, nothing, max(ks), dist.size)
    nearest.add(dist, slice(0, len(dist)), slice(0, dist.shape[1]))
    nearest.flush()
    names, codes = code_labels(labels)
    by_k = decide(nearest.rows, nearest.dist, codes, ks)
    return {k: [names[c] for c in v.tolist()] for k, v in by_k.items()}, nearest.dist[:, 0]


def vote(codes: np.ndarray, offsets: np.ndarray, heads: np.ndarray, block) -> np.ndarray:
    """Each item's modal class under each row of ``codes``: ``codes[k, r]``
    is query row r's class (0, 1, ...), and item i owns the rows
    ``offsets[i]:offsets[i + 1]``.

    A tie goes to the tied class whose pooled distances come first: a
    class's distances over the item's rows that predict it, sorted, with
    +inf for those not finite, compared where they first differ; the tied
    class predicted first breaks the rest. ``heads``, each row's first w
    distances in ascending order (+inf past its last), hold each class's
    first w pooled distances, and settle every tie they can at once. The
    ties they leave read ``block(rows)``, called once: ``(dist, weight)``,
    arrays of one shape, each row's distances and how many corpus rows lie
    at each.
    """
    sizes = np.diff(offsets)
    if not sizes.all():
        raise ValueError("cannot vote over zero predictions")
    n_items, n_codes = sizes.size, int(codes.max()) + 1
    # (k, item, class) as one integer a row, and the votes of each
    item = np.repeat(np.arange(n_items), sizes)
    key = (np.arange(len(codes))[:, None] * n_items + item) * n_codes + codes
    votes = np.bincount(key.ravel(), minlength=len(codes) * n_items * n_codes)
    modal = (votes := votes.reshape(-1, n_codes)) == votes.max(axis=1, keepdims=True)
    winner = modal.argmax(axis=1)
    tied = np.flatnonzero(modal.sum(axis=1) > 1)  # as k * n_items + item
    if tied.size:
        winner[tied] = _settle(codes, offsets, heads, block, modal, tied)
    return winner.reshape(len(codes), n_items)


def _settle(codes, offsets, heads, block, modal, tied) -> np.ndarray:
    """The winning class of each tie of ``vote`` (``tied``, with ``modal``
    marking its tied classes): by the first w pooled distances, from the
    heads; then by the least pooled distance and how many corpus rows lie
    at it, from the block; then by every pooled distance."""
    n_items, n_codes, width = offsets.size - 1, modal.shape[1], heads.shape[1]
    k, item = np.divmod(tied, n_items)
    # every row of every tie whose class is tied, tie by tie, in row order
    sizes = np.diff(offsets)[item]
    tie, row = np.repeat(np.arange(tied.size), sizes), _ranges(offsets[item], sizes)
    code = codes[k[tie], row]
    member = modal[tied[tie], code]
    tie, row, code = tie[member], row[member], code[member]
    # a group is a tied class of one tie, placed among its tie's groups by its first row
    groups, first, group = np.unique(tie * n_codes + code, return_index=True, return_inverse=True)
    of, code = np.divmod(groups, n_codes)  # each group's tie and class
    # each group's first w pooled distances, +inf where they run out
    values = np.where(np.isfinite(heads[row]), heads[row], np.inf).ravel()
    entry = np.repeat(group, width)
    order = np.lexsort((values, entry))
    rank = _ranges(0, np.bincount(entry, minlength=groups.size))
    pooled = np.full((groups.size, width), np.inf)
    pooled[entry[order][rank < width], rank[rank < width]] = values[order][rank < width]
    level = _level(of, first, pooled.T)
    open_ties = np.bincount(of[level], minlength=tied.size) > 1
    if open_ties.any():
        # the block's rows: those of the level groups of open ties, each once
        lines = np.flatnonzero(level[group] & open_ties[tie])
        rows, line_row = np.unique(row[lines], return_inverse=True)
        dist, weight = block(rows)
        dist = np.where(np.isfinite(dist) & (weight > 0), dist, np.inf)
        least = dist.min(axis=1)  # each row's least usable distance, and its copies there
        copies = ((dist == least[:, None]) * weight).sum(axis=1)
        # each level group's least pooled distance, and its copies there
        at = group[lines]
        low = np.full(groups.size, np.inf)
        np.minimum.at(low, at, least[line_row])
        tally = np.where(least[line_row] == low[at], copies[line_row], 0)
        many = np.bincount(at, tally, minlength=groups.size)
        mine = np.flatnonzero(level & open_ties[of])
        level[mine] = _level(of[mine], first[mine], [low[mine], -many[mine]])
        open_ties = np.bincount(of[level], minlength=tied.size) > 1
    # each tie's winner: its level group with the first row, unless more remain level
    order = np.lexsort((first, of))
    order = order[level[order]]
    winner = code[order[np.r_[True, of[order][1:] != of[order][:-1]]]]
    for t in np.flatnonzero(open_ties).tolist():  # every pooled distance, tie by tie
        mine = order[of[order] == t]  # its level groups, in first-prediction order
        local = np.full(groups.size, -1)
        local[mine] = np.arange(mine.size)
        use = np.flatnonzero(local[group[lines]] >= 0)
        pool, weights = dist[line_row[use]], weight[line_row[use]]
        values, inverse = np.unique(pool.ravel(), return_inverse=True)
        held = np.repeat(local[group[lines[use]]], pool.shape[1]) * values.size
        many = np.bincount(held + inverse, weights.ravel(), mine.size * values.size)
        # more of the least values first: the sorted list that comes first
        winner[t] = code[mine[_first_least(-many.reshape(mine.size, -1))]]
    return winner


def _level(of: np.ndarray, first: np.ndarray, keys) -> np.ndarray:
    """The groups equal on every key to the least group of their tie
    (``of``): keys compare in order, then ``first``."""
    order = np.lexsort((first, *reversed(list(keys)), of))
    lead = order[np.r_[True, of[order][1:] != of[order][:-1]]]
    lead = lead[np.searchsorted(of[lead], of)]  # each group's tie's least group
    level = np.ones(of.size, dtype=bool)
    for key in keys:
        level &= key == key[lead]
    return level


def _first_least(lists: np.ndarray) -> int:
    """The first least row, where rows first differ."""
    best = 0
    for t in range(1, len(lists)):
        differ = np.flatnonzero(lists[t] != lists[best])
        if differ.size and lists[t, differ[0]] < lists[best, differ[0]]:
            best = t
    return best
