"""Contrapuntal variations of pitch signals: inversion, retrograde and
retrograde inversion. The four kinds (with the prime form) compose as the
Klein four-group."""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .ingest import NoteSequence
from .signals import span_means


class VariationKind(Enum):
    PRIME = "P"
    INVERSION = "I"
    RETROGRADE = "R"
    RETROGRADE_INVERSION = "RI"


def invert(signal: np.ndarray) -> np.ndarray:
    """Reflect in a constant-pitch axis at the signal's mean (each row's own
    1-D mean in a 2-D block of signals).

    On mean-normalized vectors this is pure negation; classification is
    insensitive to the axis choice because vectors are normalized or
    transposition-invariant downstream.
    """
    signal = _checked(signal)
    return 2.0 * signal.mean(axis=-1, keepdims=True) - signal


def retrograde(signal: np.ndarray) -> np.ndarray:
    """Reflect in a constant-time axis (reverse the vector, or each row)."""
    return _checked(signal)[..., ::-1]


def retrograde_inversion(signal: np.ndarray) -> np.ndarray:
    """Rotate through a half turn; invert and retrograde commute."""
    return invert(retrograde(signal))


def _checked(signal: np.ndarray) -> np.ndarray:
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("variation of an empty vector")
    return signal


def apply_variation(signal: np.ndarray, kind: VariationKind) -> np.ndarray:
    if kind is VariationKind.PRIME:
        return _checked(signal).copy()
    if kind is VariationKind.INVERSION:
        return invert(signal)
    if kind is VariationKind.RETROGRADE:
        return retrograde(signal)
    return retrograde_inversion(signal)


_PITCH_FLIP = {VariationKind.INVERSION, VariationKind.RETROGRADE_INVERSION}
_TIME_FLIP = {VariationKind.RETROGRADE, VariationKind.RETROGRADE_INVERSION}


def transform_sequence(
    seq: NoteSequence, kind: VariationKind | Sequence[VariationKind], windows: tuple | None = None
) -> NoteSequence:
    """Note-level counterpart of the signal variations.

    Needed where a segmenter (LBDM) works on notes rather than samples.
    Inversion reflects pitches about their mean, which may land between
    MIDI integers; LBDM only uses pitch differences.

    With ``windows``, the start and stop ticks of spans of notes laid end
    to end, ``kind`` gives one kind per span, and each span is varied on
    its own: reversed within its window, reflected about its own mean.
    """
    if not len(seq):
        raise ValueError("variation of an empty sequence")
    kinds = [kind] if isinstance(kind, VariationKind) else list(kind)
    begin, end = ([0], [seq.total]) if windows is None else windows
    counts = np.diff(np.searchsorted(seq.onsets, [*begin, seq.total]))
    span = np.repeat(np.arange(len(kinds)), counts)
    time_flip, pitch_flip = (
        np.array([k in flip for k in kinds], dtype=bool)[span] for flip in (_TIME_FLIP, _PITCH_FLIP)
    )
    mirror = np.add(begin, end)[span]  # a note time t of a reversed span becomes mirror - t
    onsets = np.where(time_flip, mirror - seq.ends, seq.onsets)
    ends = np.where(time_flip, mirror - seq.onsets, seq.ends)
    order = np.argsort(onsets, kind="stable")  # reverses each reversed span, which keeps its window
    pitches = seq.pitches[order]
    if pitch_flip.any():
        pitches = np.where(pitch_flip, 2 * span_means(pitches, counts)[span] - pitches, pitches)
    return NoteSequence(onsets[order], ends[order], pitches, seq.division, seq.total)
