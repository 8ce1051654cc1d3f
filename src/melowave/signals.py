"""Uniformly sampled pitch signals and their normalization.

A note sequence becomes a piecewise-constant vector of MIDI pitch numbers
sampled at ``rate`` samples per quarter note; sample t reads the note whose
half-open interval contains time t/rate. Rests are represented as 0 or
removed by substituting the preceding (or first) pitch. A sampled signal is
a read-only 1-D float array; its rate is whatever the caller sampled at.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

import numpy as np

from .ingest import NoteSequence


class RestPolicy(Enum):
    REPRESENT_ZERO = "represent"
    REMOVE = "remove"


def _sample(seq: NoteSequence, rate: Fraction, length: int, policy: RestPolicy) -> np.ndarray:
    """Piecewise-constant fill with rest regions resolved per the policy,
    returned read-only: one song's signal may be shared by many callers.

    Under REMOVE each rest region takes the pitch of the note event that
    immediately precedes it (the first pitch for a leading rest), even when
    that note is too short to own a sample of its own.
    """
    if policy is RestPolicy.REMOVE and not seq.events:
        raise ValueError("cannot remove rests from a sequence with no notes")
    values = np.zeros(length)
    if policy is RestPolicy.REMOVE:
        values[:] = seq.events[0].pitch_midi  # leading rest region
    for i, ev in enumerate(seq.events):
        a = max(math.ceil(ev.onset_qn * rate), 0)
        b = min(math.ceil(ev.end_qn * rate), length)
        if b > a:
            values[a:b] = ev.pitch_midi
        if policy is RestPolicy.REMOVE:
            gap_end = (
                seq.events[i + 1].onset_qn if i + 1 < len(seq.events) else seq.total_duration_qn
            )
            g = min(math.ceil(gap_end * rate), length)
            if g > b:
                values[b:g] = ev.pitch_midi
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
    length = math.ceil(seq.total_duration_qn * rate)
    if length < 1:
        raise ValueError("sequence has zero duration, nothing to sample")
    return _sample(seq, rate, length, rest_policy)


def resample_to_length(seq: NoteSequence, n: int, rest_policy: RestPolicy) -> np.ndarray:
    """Sample the piecewise-constant pitch function to exactly n points."""
    if n < 1:
        raise ValueError("target length must be at least 1")
    if seq.total_duration_qn <= 0:
        raise ValueError("sequence has zero duration, nothing to resample")
    return _sample(seq, Fraction(n) / seq.total_duration_qn, n, rest_policy)


def mean_normalize(values: np.ndarray) -> np.ndarray:
    """Subtract the mean, making the vector transposition-invariant.

    Applied to segments only after segmentation.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot normalize an empty vector")
    return values - values.mean()


def mean_normalize_nonrest(values: np.ndarray) -> np.ndarray:
    """Alternative rest handling: normalize over non-zero samples only and
    re-zero the rests afterwards. Off by default in all experiments."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot normalize an empty vector")
    sounding = values != 0
    if not sounding.any():
        return np.zeros_like(values)
    out = values - values[sounding].mean()
    out[~sounding] = 0.0
    return out
