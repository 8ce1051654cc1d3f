"""Shared test helpers: hand-built SMF bytes (independent of the package's
writer), random note sequences, a reference mirror-extension used by the
wavelet oracles, and the example count of the oracle tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from melowave.ingest import NoteEvent, NoteSequence


# pytest --hypothesis-profile=deep runs the oracle tests at this depth
settings.register_profile("deep", max_examples=3000, deadline=None)


def oracle_examples(examples: int) -> int:
    """An oracle test's example count: ``examples``, or the deep profile's
    when that profile is loaded."""
    if settings.get_current_profile_name() == "deep":
        return settings.get_profile("deep").max_examples
    return examples


def vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def track_chunk(event_bytes: bytes, with_eot: bool = True) -> bytes:
    body = event_bytes + (vlq(0) + bytes((0xFF, 0x2F, 0x00)) if with_eot else b"")
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def smf(division: int, tracks: list[bytes], fmt: int | None = None) -> bytes:
    if fmt is None:
        fmt = 0 if len(tracks) == 1 else 1
    head = b"MThd" + (6).to_bytes(4, "big")
    head += fmt.to_bytes(2, "big") + len(tracks).to_bytes(2, "big") + division.to_bytes(2, "big")
    return head + b"".join(tracks)


def note_on(channel: int, pitch: int, velocity: int = 64) -> bytes:
    return bytes((0x90 | channel, pitch, velocity))


def note_off(channel: int, pitch: int) -> bytes:
    return bytes((0x80 | channel, pitch, 0))


def simple_track(notes, channel: int = 0) -> bytes:
    """notes: list of (onset_ticks, duration_ticks, pitch). Must not overlap."""
    msgs = []
    for onset, duration, pitch in notes:
        msgs.append((onset, 1, note_on(channel, pitch)))
        msgs.append((onset + duration, 0, note_off(channel, pitch)))
    msgs.sort(key=lambda m: (m[0], m[1]))
    body = b""
    now = 0
    for tick, _, payload in msgs:
        body += vlq(tick - now) + payload
        now = tick
    return track_chunk(body)


def make_sequence(notes, total=None) -> NoteSequence:
    """notes: list of (onset, duration, pitch) in quarter notes (any rational)."""
    events = tuple(
        NoteEvent(Fraction(onset), Fraction(duration), pitch)
        for onset, duration, pitch in notes
    )
    if total is None:
        total = events[-1].end_qn if events else Fraction(0)
    return NoteSequence.from_events(events, Fraction(total))


def random_sequence(rng: np.random.Generator, n_notes: int = 12, with_rests: bool = True):
    """A random monophonic sequence on a 1/4-qn grid."""
    events = []
    onset = Fraction(0)
    for _ in range(n_notes):
        if with_rests and rng.random() < 0.2:
            onset += Fraction(int(rng.integers(1, 4)), 4)
        duration = Fraction(int(rng.integers(1, 9)), 4)
        events.append(NoteEvent(onset, duration, int(rng.integers(36, 96))))
        onset += duration
    total = onset + (Fraction(int(rng.integers(0, 3)), 4) if with_rests else 0)
    return NoteSequence.from_events(events, total)


def mirror_extended(values, pad: int):
    """Reference mirror extension excluding the edge sample.

    Index i of the output maps to source index fold(i - pad), where fold
    bounces i through the period 2L-2 of the reflected sequence.
    """
    values = list(values)
    length = len(values)

    def fold(i: int) -> int:
        if length == 1:
            return 0
        period = 2 * length - 2
        j = i % period
        return period - j if j >= length else j

    return [values[fold(i - pad)] for i in range(length + 2 * pad)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
