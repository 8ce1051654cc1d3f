"""The Fraction-per-note reference for the tick-array note model.

This is how melowave timed notes before sequences became integer tick
arrays: every note a ``NoteEvent`` of exact ``Fraction`` quarter notes, and
every operation a Python walk over the notes. The tests compare the array
code with it bit for bit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from melowave.contrapuntal import VariationKind
from melowave.ingest import MidiError, NoteEvent, parse_voice_selector
from melowave.segmentation import BoundarySet
from melowave.signals import RestPolicy


@dataclass(frozen=True)
class RefSequence:
    """An ordered monophonic sequence of notes, validated note by note."""

    events: tuple[NoteEvent, ...]
    total_duration_qn: Fraction

    def __post_init__(self) -> None:
        prev_end = Fraction(0)
        prev_onset = Fraction(-1)
        for ev in self.events:
            if ev.duration_qn <= 0:
                raise ValueError(f"note duration must be positive: {ev}")
            if ev.onset_qn < prev_onset:
                raise ValueError("note onsets must be non-decreasing")
            if ev.onset_qn < prev_end:
                raise ValueError(f"sequence is not monophonic at {ev.onset_qn} qn")
            prev_onset = ev.onset_qn
            prev_end = ev.end_qn
        if self.events and self.total_duration_qn < self.events[-1].end_qn:
            raise ValueError("total duration is shorter than the last note-off")

    @property
    def end_qn(self) -> Fraction:
        return self.events[-1].end_qn if self.events else Fraction(0)

    def with_total_duration(self, total_qn) -> "RefSequence":
        return RefSequence(self.events, Fraction(total_qn))

    def slice(self, start_qn, end_qn) -> "RefSequence":
        start_qn, end_qn = Fraction(start_qn), Fraction(end_qn)
        if end_qn <= start_qn:
            raise ValueError("slice must have positive length")
        out = []
        for ev in self.events:
            a = max(ev.onset_qn, start_qn)
            b = min(ev.end_qn, end_qn)
            if b > a:
                out.append(NoteEvent(a - start_qn, b - a, ev.pitch_midi))
        return RefSequence(tuple(out), end_qn - start_qn)


def reduce_monophonic(events) -> tuple[NoteEvent, ...]:
    """Truncate overlapping notes at the next onset."""
    ordered = sorted(events, key=lambda ev: ev.onset_qn)
    out: list[NoteEvent] = []
    for ev in ordered:
        if out:
            prev = out[-1]
            if ev.onset_qn == prev.onset_qn:
                out[-1] = ev
                continue
            if prev.end_qn > ev.onset_qn:
                out[-1] = NoteEvent(prev.onset_qn, ev.onset_qn - prev.onset_qn, prev.pitch_midi)
        out.append(ev)
    return tuple(out)


def extract_voice(score, selector, source: str) -> RefSequence:
    kind, index = parse_voice_selector(selector)
    if kind == "track":
        raw = [n for n in score.notes if n.track == index]
    else:
        raw = [n for n in score.notes if n.channel == index]
    if not raw:
        raise MidiError(f"{source}: {kind} {index} contains no notes")
    events = [
        NoteEvent(
            Fraction(n.onset_ticks, score.division),
            Fraction(n.duration_ticks, score.division),
            n.pitch_midi,
        )
        for n in raw
    ]
    reduced = reduce_monophonic(events)
    return RefSequence(reduced, reduced[-1].end_qn)


_PITCH_FLIP = {VariationKind.INVERSION, VariationKind.RETROGRADE_INVERSION}
_TIME_FLIP = {VariationKind.RETROGRADE, VariationKind.RETROGRADE_INVERSION}


def transform_sequence(seq: RefSequence, kind: VariationKind) -> RefSequence:
    if not seq.events:
        raise ValueError("variation of an empty sequence")
    events = list(seq.events)
    if kind in _TIME_FLIP:
        total = seq.total_duration_qn
        events = [
            NoteEvent(total - ev.end_qn, ev.duration_qn, ev.pitch_midi) for ev in reversed(events)
        ]
    if kind in _PITCH_FLIP:
        axis = float(np.mean([ev.pitch_midi for ev in events]))
        events = [NoteEvent(ev.onset_qn, ev.duration_qn, 2 * axis - ev.pitch_midi) for ev in events]
    return RefSequence(tuple(events), seq.total_duration_qn)


def _sample(seq: RefSequence, rate: Fraction, length: int, policy: RestPolicy) -> np.ndarray:
    if policy is RestPolicy.REMOVE and not seq.events:
        raise ValueError("cannot remove rests from a sequence with no notes")
    values = np.zeros(length)
    if policy is RestPolicy.REMOVE:
        values[:] = seq.events[0].pitch_midi
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
    return values


def sample_pitch_signal(seq: RefSequence, rate, policy: RestPolicy) -> np.ndarray:
    rate = Fraction(rate)
    length = math.ceil(seq.total_duration_qn * rate)
    if length < 1:
        raise ValueError("sequence has zero duration, nothing to sample")
    return _sample(seq, rate, length, policy)


def resample_to_length(seq: RefSequence, n: int, policy: RestPolicy) -> np.ndarray:
    if seq.total_duration_qn <= 0:
        raise ValueError("sequence has zero duration, nothing to resample")
    return _sample(seq, Fraction(n) / seq.total_duration_qn, n, policy)


def lbdm_intervals(seq: RefSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pitch-interval, inter-onset and rest lists of the LBDM profile."""
    events = seq.events
    pairs = list(zip(events, events[1:]))
    pitch = np.array([abs(b.pitch_midi - a.pitch_midi) for a, b in pairs], float)
    ioi = np.array([float(b.onset_qn - a.onset_qn) for a, b in pairs])
    rest = np.array([max(0.0, float(b.onset_qn - a.end_qn)) for a, b in pairs])
    return pitch, ioi, rest


def _strength_profile(x: np.ndarray) -> np.ndarray:
    total = x[:-1] + x[1:]
    change = np.divide(np.abs(np.diff(x)), total, out=np.zeros(x.size - 1), where=total != 0)
    padded = np.concatenate(([0.0], change, [0.0]))
    strength = x * (padded[:-1] + padded[1:])
    top = strength.max()
    return strength / top if top > 0 else strength


def lbdm_profile(seq: RefSequence) -> np.ndarray:
    if len(seq.events) < 2:
        return np.zeros(0)
    pitch, ioi, rest = lbdm_intervals(seq)
    combined = (
        0.25 * _strength_profile(pitch) + 0.5 * _strength_profile(ioi)
        + 0.25 * _strength_profile(rest)
    )
    top = combined.max()
    return combined / top if top > 0 else combined


def lbdm_boundaries(seq: RefSequence, threshold: float, rate) -> BoundarySet:
    rate = Fraction(rate)
    length = math.ceil(seq.total_duration_qn * rate)
    strengths = lbdm_profile(seq)
    interior = [
        math.ceil(seq.events[i + 1].onset_qn * rate)
        for i in range(strengths.size)
        if strengths[i] > threshold
    ]
    return BoundarySet.from_interior(interior, length)
