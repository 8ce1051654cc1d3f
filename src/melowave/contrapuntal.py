"""Contrapuntal variations of pitch signals: inversion, retrograde and
retrograde inversion. The four kinds (with the prime form) compose as the
Klein four-group."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .ingest import NoteEvent, NoteSequence


class VariationKind(Enum):
    PRIME = "P"
    INVERSION = "I"
    RETROGRADE = "R"
    RETROGRADE_INVERSION = "RI"


def invert(signal: np.ndarray) -> np.ndarray:
    """Reflect in a constant-pitch axis at the signal's mean.

    On mean-normalized vectors this is pure negation; classification is
    insensitive to the axis choice because vectors are normalized or
    transposition-invariant downstream.
    """
    signal = _checked(signal)
    return 2.0 * signal.mean() - signal


def retrograde(signal: np.ndarray) -> np.ndarray:
    """Reflect in a constant-time axis (reverse the vector)."""
    return _checked(signal)[::-1]


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


def transform_sequence(seq: NoteSequence, kind: VariationKind) -> NoteSequence:
    """Note-level counterpart of the signal variations.

    Needed where a segmenter (LBDM) works on notes rather than samples.
    Inversion reflects pitches about their mean, which may land between
    MIDI integers; LBDM only uses pitch differences.
    """
    if not seq.events:
        raise ValueError("variation of an empty sequence")
    events = list(seq.events)
    if kind in _TIME_FLIP:
        total = seq.total_duration_qn
        events = [
            NoteEvent(total - ev.end_qn, ev.duration_qn, ev.pitch_midi)
            for ev in reversed(events)
        ]
    if kind in _PITCH_FLIP:
        axis = float(np.mean([ev.pitch_midi for ev in events]))
        events = [
            NoteEvent(ev.onset_qn, ev.duration_qn, 2 * axis - ev.pitch_midi)
            for ev in events
        ]
    return NoteSequence(tuple(events), seq.total_duration_qn)
