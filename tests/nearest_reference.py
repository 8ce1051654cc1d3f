"""The select-then-filter reference for ``classifier.Nearest``.

This is how melowave merged held-out neighbours before ``Nearest.add``
filtered by bounds ahead of any selection and read each tile once on
distinct rows: every tile was first copied out to one row per query (its
transpose too, for the columns' queries), every entry of that copy went
through the own-item mask (applied in place) and a whole-row partition,
the query's smallest distinct-row distances were updated from all of them,
and the entries at or below the new bound were read with a 2-D
``np.nonzero``. ``flush`` searched every buffered entry's copies for the
query's own item and ordered a merge with ``np.lexsort``. The tests compare
``Nearest`` with it buffer by buffer.
"""

import numpy as np

from melowave.classifier import Nearest


class ReferenceNearest(Nearest):
    def add(self, tile: np.ndarray, rows: slice, cols: slice, both: bool = False) -> None:
        for part, band, first in [(tile, rows, cols.start)] + [(tile.T, cols, rows.start)] * both:
            queries = slice(self.queries[band.start], self.queries[band.stop])
            self.add_queries(part[self.distinct[queries] - band.start], queries, first)

    def add_queries(self, dist: np.ndarray, queries: slice, first: int) -> None:
        """Buffers block ``dist``: ``dist[r, j]`` is query ``queries.start + r``'s
        distance to every copy of distinct row ``first + j``."""
        if self.owner is not None:  # the query's item's own distinct rows are no neighbors
            dist[self.items[queries, None] == self.owner[first : first + dist.shape[1]]] = np.inf
        last = min(self.width, dist.shape[1]) - 1
        top = np.partition(dist, last, axis=1)[:, : last + 1]
        top = np.partition(np.concatenate((self.top[queries], top), axis=1), self.width - 1, axis=1)
        self.top[queries] = top[:, : self.width]
        bound = np.fmin(np.fmin(self.top[queries, -1], self.dist[queries, -1]), np.finfo(float).max)
        r, j = np.nonzero(dist <= bound[:, None])
        size = np.minimum(self.starts[j + first + 1] - self.starts[j + first], self.width).sum()
        if self.buffered + size > self.budget:
            self.flush()
        self.buffer.append((r + queries.start, j + first, dist[r, j]))
        self.buffered += size

    def flush(self) -> None:
        if not self.buffered:
            return
        q, d, dist = map(np.concatenate, zip(*self.buffer))
        self.buffer, self.buffered = [], 0
        starts, copies, width = self.starts, self.copies, self.width
        # copies as (distinct row, corpus row) keys, one integer each, ascending
        key = np.repeat(np.arange(starts.size - 1), np.diff(starts)) * copies.size + copies
        below = np.searchsorted(key, d * copies.size + self.excluded[0][q]) - starts[d]
        above = np.searchsorted(key, d * copies.size + self.excluded[1][q])
        pair, slot = np.nonzero(np.arange(width) < (below + starts[d + 1] - above)[:, None])
        mine = np.unique(q)
        old = np.isfinite(self.dist[mine])  # their neighbors so far, in the merge too
        rows = np.concatenate((mine[np.nonzero(old)[0]], q[pair]))
        dists = np.concatenate((self.dist[mine][old], dist[pair]))
        slots = np.where(slot < below[pair], starts[d][pair], (above - below)[pair]) + slot
        cols = np.concatenate((self.rows[mine][old], copies[slots]))
        order = np.lexsort((cols, dists, rows))
        rank = np.arange(rows.size) - np.searchsorted(rows[order], rows[order])
        order, rank = order[rank < width], rank[rank < width]
        self.rows[mine], self.dist[mine] = 0, np.inf
        self.rows[rows[order], rank], self.dist[rows[order], rank] = cols[order], dists[order]
