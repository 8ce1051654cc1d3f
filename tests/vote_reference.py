"""The per-tie reference for ``classifier.vote``.

This is how melowave settled a modal vote tie before ``vote`` settled every
tie of a cell on arrays: one call per tie, with the item's predicted labels,
its rows' distance block (or a function that measures it) and, optionally,
each row's first w distances (``heads``). The tests compare ``vote`` with
it on random ties.
"""

from collections import Counter
from typing import Hashable, Sequence

import numpy as np


def reference_vote(row_labels: Sequence, block, heads: np.ndarray | None = None) -> Hashable:
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
