"""Uniformly sampled pitch signals and their normalization.

A note sequence becomes a piecewise-constant vector of MIDI pitch numbers
sampled at ``rate`` samples per quarter note; sample t reads the note whose
half-open interval contains time t/rate. Rests are represented as 0 or
removed by substituting the preceding (or first) pitch. A sampled signal is
a read-only 1-D float array; its rate is whatever the caller sampled at.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ingest import NoteSequence


class RestPolicy(Enum):
    REPRESENT_ZERO = "represent"
    REMOVE = "remove"


def _sample(seq: NoteSequence, rate: Fraction, length: int, policy: RestPolicy) -> np.ndarray:
    """Piecewise-constant fill, read-only: one song's signal may be shared
    by many callers. A note owns the samples from the ceiling of its onset
    to the ceiling of its end. Under REMOVE each rest region takes the pitch
    of the note event that immediately precedes it (the first pitch for a
    leading rest), even when that note is too short to own a sample."""
    if policy is RestPolicy.REMOVE and not len(seq):
        raise ValueError("cannot remove rests from a sequence with no notes")
    starts = seq.sample_index(seq.onsets, rate)
    if policy is RestPolicy.REMOVE:  # runs of the leading rest, then of each note
        edges = np.concatenate(([0], starts, [length]))
        pitches = np.concatenate((seq.pitches[:1], seq.pitches))
    else:  # runs of rest, note, rest, ..., note, rest
        note_runs = np.column_stack((starts, seq.sample_index(seq.ends, rate))).ravel()
        edges = np.concatenate(([0], note_runs, [length]))
        pitches = np.zeros(2 * len(seq) + 1)
        pitches[1::2] = seq.pitches
    values = np.repeat(pitches.astype(float), np.diff(edges))
    values.setflags(write=False)
    return values


def sample_pitch_signal(
    seq: NoteSequence, rate: int | Fraction, rest_policy: RestPolicy
) -> np.ndarray:
    """Sample a note sequence at ``rate`` samples per quarter note.

    Output length is exactly ceil(total_duration_qn * rate); any gap after
    the final note-off counts as a rest and follows the rest policy.
    """
    rate = Fraction(rate)
    if rate <= 0:
        raise ValueError("sample rate must be positive")
    length = seq.sample_index(seq.total, rate)
    if length < 1:
        raise ValueError("sequence has zero duration, nothing to sample")
    return _sample(seq, rate, length, rest_policy)


def resample_to_length(seq: NoteSequence, n: int, rest_policy: RestPolicy) -> np.ndarray:
    """Sample the piecewise-constant pitch function to exactly n points."""
    if n < 1:
        raise ValueError("target length must be at least 1")
    if seq.total <= 0:
        raise ValueError("sequence has zero duration, nothing to resample")
    return _sample(seq, Fraction(n * seq.division, seq.total), n, rest_policy)


def span_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of each span of ``values`` laid end to end, span i holding
    ``counts[i]`` values (0.0 for an empty span). The spans of one count
    are the rows of one block, so each is its 1-D mean bit for bit."""
    means, firsts = np.zeros(counts.size), np.cumsum(counts) - counts
    for n in set(counts[counts > 0].tolist()):
        rows = np.flatnonzero(counts == n)
        means[rows] = values[firsts[rows, None] + np.arange(n)].mean(axis=1)
    return means


def _spans(values: np.ndarray, joins: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The vector as floats and the edges of its spans, which meet at ``joins``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot normalize an empty vector")
    return values, np.array([0, *joins, values.size])


def mean_normalize(values: np.ndarray, joins: Sequence[int] = ()) -> np.ndarray:
    """Subtract the mean, making the vector transposition-invariant; given
    ``joins``, where spans laid end to end meet, each span its own mean.

    Applied to segments only after segmentation.
    """
    values, edges = _spans(values, joins)
    lengths = np.diff(edges)
    return values - np.repeat(span_means(values, lengths), lengths)


def mean_normalize_nonrest(values: np.ndarray, joins: Sequence[int] = ()) -> np.ndarray:
    """Alternative rest handling: normalize each span over its non-zero
    samples only and re-zero the rests afterwards; a span of rests comes out
    all zero. Off by default in all experiments."""
    values, edges = _spans(values, joins)
    sounding = values != 0
    counts = np.diff(np.searchsorted(np.flatnonzero(sounding), edges))
    out = values - np.repeat(span_means(values[sounding], counts), np.diff(edges))
    out[~sounding] = 0.0
    return out
