"""Boundary detection and segment extraction.

Boundaries come from coefficient zero-crossings or local maxima, from a
constant grid, or from LBDM boundary strengths on the note stream. The
beginning and end of the signal are always boundaries. Given ``joins``,
where spans laid end to end meet, a finder segments each span on its own:
every join is a boundary, and no rule reads across one.
Segments are then cut from any same-length vector as slices and equalized,
by trailing zero-padding or nearest-neighbor resizing, into labeled rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .classifier import LabeledCorpus
from .ingest import NoteSequence

ZERO_TOLERANCE = 1e-12  # coefficients of integer signals hit exact zeros


class Equalization(Enum):
    ZERO_PAD = "pad"
    INTERPOLATE = "interp"


@dataclass(frozen=True)
class BoundarySet:
    """Strictly increasing sample indices from 0 to the signal length."""

    indices: tuple[int, ...]
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("boundary sets need a positive signal length")
        idx = self.indices
        if not idx or idx[0] != 0 or idx[-1] != self.length:
            raise ValueError("boundaries must start at 0 and end at the signal length")
        if (np.diff(idx) <= 0).any():
            raise ValueError("boundaries must be strictly increasing")

    @classmethod
    def from_interior(cls, interior: Sequence[int], length: int) -> "BoundarySet":
        inside = np.asarray(interior, dtype=np.int64)
        inside = inside[(inside > 0) & (inside < length)]
        return cls((0, *np.unique(inside).tolist(), length), length)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def _coeff_values(coeffs: np.ndarray) -> np.ndarray:
    values = np.asarray(coeffs, dtype=float)
    if values.size == 0:
        raise ValueError("coefficient signal is empty")
    return values


def zero_crossing_boundaries(coeffs: np.ndarray, joins: Sequence[int] = ()) -> BoundarySet:
    """Boundaries where the coefficients change sign or are (near) zero.

    A sign change puts the boundary on the first index of the new sign;
    values within ZERO_TOLERANCE of zero are boundaries themselves. A sign
    change across a join marks the join itself.
    """
    w = _coeff_values(coeffs)
    signs = np.sign(w)
    changes = np.flatnonzero(signs[:-1] * signs[1:] < 0) + 1
    zeros = np.flatnonzero(np.abs(w) <= ZERO_TOLERANCE)
    return BoundarySet.from_interior(np.concatenate((changes, zeros, joins)), w.size)


def local_maxima_boundaries(coeffs: np.ndarray, joins: Sequence[int] = ()) -> BoundarySet:
    """Boundaries at strict interior local maxima of the coefficients.

    A plateau flanked by strictly smaller values yields one boundary at its
    first index. Negative-valued maxima count; a plateau that ends at a
    join is flanked by nothing there.
    """
    w = _coeff_values(coeffs)
    edge = np.isin(np.arange(w.size + 1), [0, *joins, w.size])  # each span's start, and the end
    # every run of equal values but a span's first, a run cut at each join
    starts = np.flatnonzero(np.diff(w).astype(bool) | edge[1:-1]) + 1
    after = np.append(starts[1:], w.size)  # the index after each run
    rising = ~edge[starts] & (w[starts] > w[starts - 1])
    falling = ~edge[after] & (w[np.minimum(after, w.size - 1)] < w[starts])
    return BoundarySet.from_interior(np.append(starts[rising & falling], joins), w.size)


def constant_boundaries(
    length_samples: int, rate: int | Fraction, step_qn: int | float | Fraction,
    joins: Sequence[int] = (),
) -> BoundarySet:
    """Boundaries on a constant grid, which starts again at each join; a
    shorter trailing remainder is kept."""
    step = Fraction(step_qn) * Fraction(rate)
    if step.denominator != 1 or step <= 0:
        raise ValueError(f"step of {step_qn} qn at rate {rate} is not a whole number of samples")
    edges = np.array([0, *joins, length_samples])
    offset = np.arange(length_samples) - np.repeat(edges[:-1], np.diff(edges))  # within its span
    return BoundarySet.from_interior(np.flatnonzero(offset % int(step) == 0), length_samples)


def lbdm_profile(seq: NoteSequence, firsts: Sequence[int] = ()) -> np.ndarray:
    """Combined LBDM boundary strength per note transition, in [0, 1].

    Per transition, the pitch-interval, inter-onset and rest profiles get a
    degree of change r_i = |x_i - x_{i+1}| / (x_i + x_{i+1}) and strength
    x_i * (r_{i-1} + r_i); profiles are max-normalized and combined with
    weights 0.25/0.5/0.25, then max-normalized again.

    With ``firsts``, the notes that start spans laid end to end, each span
    is profiled and max-normalized on its own; the transition into a
    span's first note has strength 0 and no neighbor.
    """
    if len(seq) < 2:
        return np.zeros(0)
    cut = np.isin(np.arange(1, len(seq)), firsts)  # the transitions into a span's first note
    span = np.cumsum(cut)  # each transition's span, a cut one starting the next
    pitch = np.abs(np.diff(seq.pitches)).astype(float)
    ioi = np.diff(seq.onsets) / seq.division  # as float(Fraction): ticks are below 2**53
    rest = (seq.onsets[1:] - seq.ends[:-1]) / seq.division
    pitch, ioi, rest = (_strength_profile(x, cut, span) for x in (pitch, ioi, rest))
    combined = 0.25 * pitch + 0.5 * ioi + 0.25 * rest
    return _max_normalized(combined, span)


def _strength_profile(x: np.ndarray, cut: np.ndarray, span: np.ndarray) -> np.ndarray:
    x = np.where(cut, 0.0, x)
    total = x[:-1] + x[1:]
    change = np.divide(
        np.abs(np.diff(x)), total, out=np.zeros(x.size - 1),
        where=(total != 0) & ~cut[1:] & ~cut[:-1],
    )
    padded = np.concatenate(([0.0], change, [0.0]))
    return _max_normalized(x * (padded[:-1] + padded[1:]), span)


def _max_normalized(x: np.ndarray, span: np.ndarray) -> np.ndarray:
    """``x`` over the maximum of its span where that is positive."""
    top = np.maximum.reduceat(x, np.flatnonzero(np.diff(span, prepend=-1)))[span - span[0]]
    return np.divide(x, top, out=x.copy(), where=top > 0)


def lbdm_boundaries(
    seq: NoteSequence, threshold: float, rate: int | Fraction, joins: Sequence[int] = ()
) -> BoundarySet:
    """Boundaries before every note whose LBDM strength exceeds the
    threshold; a span holds the notes whose onsets fall between its joins."""
    if not 0 <= threshold <= 1:
        raise ValueError(f"LBDM threshold must be in [0, 1], got {threshold}")
    rate = Fraction(rate)
    joins = np.asarray(joins, dtype=np.int64)  # at joins / rate quarter notes
    firsts = np.searchsorted(seq.onsets * rate.numerator, joins * seq.division * rate.denominator)
    strengths = lbdm_profile(seq, firsts)
    interior = seq.sample_index(seq.onsets[1:][strengths > threshold], rate)
    return BoundarySet.from_interior(np.append(interior, joins), seq.sample_index(seq.total, rate))


@dataclass(frozen=True, eq=False)
class Segments:
    """Segments in cut order, laid end to end: segment i is
    ``values[edges[i]:edges[i + 1]]``, and the edges run from 0 to the end
    of ``values``. Iteration yields the segments in order as views."""

    values: np.ndarray
    edges: np.ndarray

    def __len__(self) -> int:
        return self.edges.size - 1

    def __iter__(self):
        edges = self.edges.tolist()
        return (self.values[a:b] for a, b in zip(edges, edges[1:]))

    @property
    def longest(self) -> int:
        return int(np.diff(self.edges).max())


def cut_segments(values: np.ndarray, boundaries: BoundarySet) -> Segments:
    """Cut a vector at the boundaries, copying nothing; concatenation
    reconstructs it exactly."""
    values = np.asarray(values, dtype=float)
    if values.size != boundaries.length:
        raise ValueError(
            f"boundaries are for length {boundaries.length}, vector has {values.size}"
        )
    return Segments(values, np.array(boundaries.indices))


def _equalize_input(segments, target_len: int | None) -> tuple[Segments, np.ndarray, int]:
    """The segments laid end to end, their lengths, and the target length:
    the longest segment's unless given."""
    if not isinstance(segments, Segments):
        segments = [np.asarray(s, dtype=float) for s in segments]
        edges = np.cumsum([0] + [s.size for s in segments])
        segments = Segments(np.concatenate(segments) if segments else np.zeros(0), edges)
    if not len(segments):
        raise ValueError("no segments to equalize")
    lengths = np.diff(segments.edges)
    return segments, lengths, int(lengths.max() if target_len is None else target_len)


def equalize_zero_pad(
    segments: Segments | Sequence[np.ndarray], labels: Sequence, target_len: int | None = None
) -> LabeledCorpus:
    """Pad shorter segments with trailing zeros up to the target length."""
    segments, lengths, target = _equalize_input(segments, target_len)
    if lengths.max() > target:
        raise ValueError(f"segment of length {lengths.max()} exceeds target length {target}")
    rows = np.zeros((lengths.size, target))
    # each sample's place in the rows: its segment's row, less the segment's start
    shift = np.arange(lengths.size) * target - segments.edges[:-1]
    rows.ravel()[np.arange(segments.values.size) + np.repeat(shift, lengths)] = segments.values
    return LabeledCorpus(rows, labels)


def equalize_interpolate(
    segments: Segments | Sequence[np.ndarray], labels: Sequence, target_len: int | None = None
) -> LabeledCorpus:
    """Resize every segment to the target length by nearest-neighbor
    interpolation of its index grid: output sample j reads input sample
    floor((j + 0.5) * length / target)."""
    segments, lengths, target = _equalize_input(segments, target_len)
    if target < 1:
        raise ValueError("target length must be at least 1")
    if not lengths.all():
        raise ValueError("cannot resize an empty segment")
    distinct, which = np.unique(lengths, return_inverse=True)
    grid = np.arange(target) + 0.5
    idx = np.stack([np.minimum(np.floor(grid * n / target).astype(int), n - 1)
                    for n in distinct.tolist()])
    return LabeledCorpus(segments.values[segments.edges[:-1, None] + idx[which]], labels)
