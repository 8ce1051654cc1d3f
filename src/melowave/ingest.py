"""Standard MIDI File ingestion.

Parses SMF format 0/1 byte streams into raw tick-timed note events, selects
single voices by track or channel and reduces them to monophonic note
sequences with exact timing: integer ticks over a division per quarter note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

_HEADER_MAGIC = b"MThd"
_TRACK_MAGIC = b"MTrk"


class MidiError(ValueError):
    """Malformed or unsupported MIDI input."""


@dataclass(frozen=True)
class RawNote:
    """A matched note-on/note-off pair in tick time."""

    onset_ticks: int
    duration_ticks: int
    pitch_midi: int
    channel: int
    track: int


@dataclass(frozen=True)
class ScoreModel:
    """All raw note events of a parsed file plus its metrical division.

    ``dropped`` records one message per event the parser had to discard
    (unmatched note-ons at end of track, zero-duration notes).
    """

    notes: tuple[RawNote, ...]
    division: int
    dropped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.division <= 0:
            raise MidiError("division must be a positive integer")
        for n in self.notes:
            if n.duration_ticks <= 0:
                raise MidiError(f"raw note has non-positive duration: {n}")
            if not 0 <= n.pitch_midi <= 127:
                raise MidiError(f"raw note pitch out of range: {n}")

    def track_numbers(self) -> tuple[int, ...]:
        return tuple(sorted({n.track for n in self.notes}))

    def channel_numbers(self) -> tuple[int, ...]:
        return tuple(sorted({n.channel for n in self.notes}))


@dataclass(frozen=True)
class NoteEvent:
    """One note with onset and duration in quarter notes."""

    onset_qn: Fraction
    duration_qn: Fraction
    pitch_midi: int

    @property
    def end_qn(self) -> Fraction:
        return self.onset_qn + self.duration_qn


def _check_ticks(*values: int) -> None:
    """Keep ticks below 2**53: a sum of two fits int64, which numpy wraps
    silently, and a tick difference over a division is its float(Fraction)."""
    if max(map(abs, values)) >= 2**53:
        raise ValueError("note timing does not fit in 53-bit ticks")


@dataclass(frozen=True, eq=False, repr=False)
class NoteSequence:
    """An ordered monophonic sequence of notes on an integer time base:
    onset and end ticks over ``division`` ticks per quarter note, one pitch
    per note (float once inverted) and a total length in ticks, which may
    extend past the last note-off (the trailing gap is a rest). The arrays
    are read-only; sequences compare equal over any division."""

    onsets: np.ndarray
    ends: np.ndarray
    pitches: np.ndarray
    division: int
    total: int

    def __post_init__(self) -> None:
        for name, dtype in (("onsets", np.int64), ("ends", np.int64), ("pitches", None)):
            values = np.asarray(getattr(self, name), dtype)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        on, end = self.onsets, self.ends
        _check_ticks(self.division, self.total)
        short, unordered = end <= on, on < np.append(-self.division, on[:-1])
        for i in np.flatnonzero(short | unordered | (on < np.append(0, end[:-1])))[:1]:
            if short[i]:
                raise ValueError(f"note duration must be positive: {self.events[i]}")
            if unordered[i]:
                raise ValueError("note onsets must be non-decreasing")
            raise ValueError(f"sequence is not monophonic at {self.events[i].onset_qn} qn")
        if end.size and self.total < end[-1]:
            raise ValueError("total duration is shorter than the last note-off")

    @classmethod
    def from_events(cls, events: Sequence[NoteEvent], total_qn) -> NoteSequence:
        """``events``, timed in Fractions or ints, over the least exact division."""
        times = [t for ev in events for t in (ev.onset_qn, ev.duration_qn)]
        times.append(Fraction(total_qn))
        division = math.lcm(*(t.denominator for t in times))
        ticks = [t.numerator * (division // t.denominator) for t in times]
        _check_ticks(*ticks)
        on, duration = np.array(ticks[:-1:2], np.int64), np.array(ticks[1::2], np.int64)
        pitches = np.array([ev.pitch_midi for ev in events])
        return cls(on, on + duration, pitches, division, ticks[-1])

    @property
    def events(self) -> tuple[NoteEvent, ...]:
        """The notes in quarter notes: a read-only view."""
        d = self.division
        return tuple(
            NoteEvent(Fraction(a, d), Fraction(b - a, d), p)
            for a, b, p in zip(self.onsets.tolist(), self.ends.tolist(), self.pitches.tolist())
        )

    def __len__(self) -> int:
        return self.onsets.size

    @property
    def end_qn(self) -> Fraction:
        return Fraction(int(self.ends[-1]) if len(self) else 0, self.division)

    @property
    def total_duration_qn(self) -> Fraction:
        return Fraction(self.total, self.division)

    def _key(self) -> tuple:
        """Division, total, onsets, ends and pitches over the coarsest division."""
        g = math.gcd(self.division, self.total, *self.onsets.tolist(), *self.ends.tolist())
        ticks = (tuple((t // g).tolist()) for t in (self.onsets, self.ends))
        return (self.division // g, self.total // g, *ticks, tuple(self.pitches.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, NoteSequence) and self._key() == other._key()

    def __repr__(self) -> str:
        return "NoteSequence(division={}, total={}, onsets={}, ends={}, pitches={})".format(
            *self._key()
        )

    def sample_index(self, ticks, rate: Fraction):
        """ceil(t * rate) for tick times t (an int or an array, at most the
        total) at ``rate`` samples per quarter note: exact ceiling division."""
        p, q = rate.numerator, rate.denominator
        _check_ticks(p, self.total * p, self.division * q)
        return -(-ticks * p // (self.division * q))

    def slice(self, start_qn, end_qn) -> NoteSequence:
        """Notes overlapping [start, end), clipped and rebased to start. The
        slice is over the least multiple of the division that holds start
        and end exactly: a finer grid, never a rounded time."""
        start_qn, end_qn = Fraction(start_qn), Fraction(end_qn)
        if end_qn <= start_qn:
            raise ValueError("slice must have positive length")
        division = math.lcm(self.division, start_qn.denominator, end_qn.denominator)
        scale = division // self.division
        start, stop = int(start_qn * division), int(end_qn * division)
        _check_ticks(self.total * scale, start, stop)
        onsets, ends = self.onsets * scale, self.ends * scale
        lo, hi = np.searchsorted(ends, start, "right"), np.searchsorted(onsets, stop)
        on, end = np.maximum(onsets[lo:hi], start), np.minimum(ends[lo:hi], stop)
        return NoteSequence(on - start, end - start, self.pitches[lo:hi], division, stop - start)


class _Reader:
    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    def remaining(self) -> int:
        return self.end - self.pos

    def u8(self) -> int:
        if self.pos >= self.end:
            raise MidiError("unexpected end of data")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def u16(self) -> int:
        return (self.u8() << 8) | self.u8()

    def u32(self) -> int:
        return (self.u16() << 16) | self.u16()

    def take(self, n: int) -> bytes:
        if self.remaining() < n:
            raise MidiError("unexpected end of data")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def vlq(self) -> int:
        value = 0
        for _ in range(4):
            b = self.u8()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MidiError("variable-length quantity longer than 4 bytes")


def parse_standard_midi(data: bytes) -> ScoreModel:
    """Decode an SMF format 0/1 byte string into raw note events.

    Note-on with velocity 0 closes a note; running status is honored.
    Unmatched note-ons at end of track and zero-duration notes are dropped
    and reported in ``ScoreModel.dropped``.
    """
    r = _Reader(data)
    if r.remaining() < 8 or r.take(4) != _HEADER_MAGIC:
        raise MidiError("not a standard MIDI file (missing MThd header)")
    header_len = r.u32()
    if header_len < 6:
        raise MidiError("MThd chunk too short")
    if r.remaining() < header_len:
        raise MidiError("truncated MThd chunk")
    header = _Reader(data, r.pos, r.pos + header_len)
    fmt = header.u16()
    header.u16()  # declared track count; the chunk walk below is authoritative
    division = header.u16()
    r.pos += header_len
    if fmt not in (0, 1):
        raise MidiError(f"unsupported SMF format {fmt} (only 0 and 1)")
    if division & 0x8000:
        raise MidiError("SMPTE division is not supported (metrical timing only)")
    if division == 0:
        raise MidiError("division must be a positive integer")

    notes: list[RawNote] = []
    dropped: list[str] = []
    track_index = 0
    while r.remaining() >= 8:
        magic = r.take(4)
        length = r.u32()
        if r.remaining() < length:
            raise MidiError("truncated chunk")
        if magic == _TRACK_MAGIC:
            _parse_track(_Reader(data, r.pos, r.pos + length), track_index, notes, dropped)
            track_index += 1
        # other chunk types are skipped per the SMF spec
        r.pos += length
    if track_index == 0:
        raise MidiError("file contains no MTrk chunk")
    return ScoreModel(tuple(notes), division, tuple(dropped))


def _parse_track(
    r: _Reader, track: int, notes: list[RawNote], dropped: list[str]
) -> None:
    time = 0
    running: int | None = None
    open_notes: dict[tuple[int, int], list[int]] = {}
    while r.remaining() > 0:
        time += r.vlq()
        first = r.u8()
        if first < 0x80:
            if running is None:
                raise MidiError("data byte without running status")
            status = running
            data1 = first
        else:
            status = first
            data1 = None
        if status == 0xFF:
            meta_type = r.u8()
            r.take(r.vlq())
            running = None
            if meta_type == 0x2F:  # end of track
                break
            continue
        if status in (0xF0, 0xF7):
            r.take(r.vlq())
            running = None
            continue
        if status >= 0xF0:
            raise MidiError(f"unexpected status byte 0x{status:02X}")
        running = status
        kind = status & 0xF0
        channel = status & 0x0F
        if data1 is None:
            data1 = r.u8()
        if kind in (0xC0, 0xD0):
            continue
        data2 = r.u8()
        if kind == 0x90 and data2 > 0:
            open_notes.setdefault((channel, data1), []).append(time)
        elif kind == 0x80 or (kind == 0x90 and data2 == 0):
            onsets = open_notes.get((channel, data1))
            if not onsets:
                dropped.append(
                    f"track {track}: unmatched note-off pitch {data1} "
                    f"channel {channel} at tick {time}"
                )
                continue
            onset = onsets.pop(0)
            if time - onset <= 0:
                dropped.append(
                    f"track {track}: zero-duration note pitch {data1} "
                    f"channel {channel} at tick {onset}"
                )
                continue
            notes.append(RawNote(onset, time - onset, data1, channel, track))
    for (channel, pitch), onsets in sorted(open_notes.items()):
        for onset in onsets:
            dropped.append(
                f"track {track}: unmatched note-on pitch {pitch} "
                f"channel {channel} at tick {onset} (dropped)"
            )


def parse_voice_selector(selector: int | str) -> tuple[str, int]:
    """Normalize a voice selector to ('track'|'channel', index)."""
    if isinstance(selector, int):
        return ("track", selector)
    text = str(selector).strip().lower()
    if ":" in text:
        kind, _, num = text.partition(":")
        if kind not in ("track", "channel"):
            raise ValueError(f"voice selector must be 'track:N' or 'channel:N', got {selector!r}")
    else:
        kind, num = "track", text
    try:
        return (kind, int(num))
    except ValueError:
        raise ValueError(f"voice selector index is not an integer: {selector!r}") from None


def first_track_selector(score: ScoreModel, source: str) -> str:
    """Selector of the first note-bearing track; ``source`` names the file
    in the error raised when no track has a note."""
    tracks = score.track_numbers()
    if not tracks:
        raise MidiError(f"{source}: the file contains no notes")
    return f"track:{tracks[0]}"


def extract_voice(score: ScoreModel, selector: int | str, source: str) -> NoteSequence:
    """Select one voice by track or channel and reduce it to monophony;
    ``source`` names the file in the error raised when the voice has no
    note."""
    kind, index = parse_voice_selector(selector)
    raw = [(n.onset_ticks, n.onset_ticks + n.duration_ticks, n.pitch_midi)
           for n in score.notes if getattr(n, kind) == index]
    if not raw:
        raise MidiError(f"{source}: {kind} {index} contains no notes")
    onsets, ends, pitches = reduce_monophonic(*np.array(raw, np.int64).T)
    return NoteSequence(onsets, ends, pitches, score.division, int(ends[-1]))


def reduce_monophonic(
    onsets: np.ndarray, ends: np.ndarray, pitches: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order notes by onset stably, keep the last of the notes that share an
    onset (truncation would leave the others no duration) and truncate a
    note still sounding at the next onset there. Idempotent."""
    order = np.argsort(onsets, kind="stable")
    onsets, ends, pitches = onsets[order], ends[order], pitches[order]
    last = np.ones(onsets.size, bool)
    last[:-1] = onsets[1:] != onsets[:-1]
    onsets, ends, pitches = onsets[last], ends[last], pitches[last]
    ends[:-1] = np.minimum(ends[:-1], onsets[1:])
    return onsets, ends, pitches


def _encode_vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def minimal_division(sequences: list[NoteSequence]) -> int:
    """Smallest ticks-per-quarter grid holding every onset and offset exactly."""
    return math.lcm(1, *(
        seq.division // math.gcd(seq.division, *seq.onsets.tolist(), *seq.ends.tolist())
        for seq in sequences
    ))


def write_standard_midi(
    voices: NoteSequence | list[NoteSequence], division: int | None = None
) -> bytes:
    """Serialize note sequences to a minimal SMF (format 0 for one voice,
    format 1 with one track per voice otherwise)."""
    seqs = [voices] if isinstance(voices, NoteSequence) else list(voices)
    if not seqs:
        raise ValueError("at least one voice is required")
    if division is None:
        division = minimal_division(seqs)
    tracks = []
    for seq in seqs:
        _check_ticks(seq.total * division)
        ticks = np.stack((seq.onsets, seq.ends)) * division
        bad = np.flatnonzero((ticks % seq.division).any(axis=0))
        if bad.size:
            onset = seq.events[bad[0]].onset_qn
            raise ValueError(f"division {division} cannot represent onset {onset}")
        msgs: list[tuple[int, int, bytes]] = []
        for a, b, pitch in zip(*(ticks // seq.division).tolist(), seq.pitches.tolist()):
            msgs.append((a, 1, bytes((0x90, pitch, 64))))
            msgs.append((b, 0, bytes((0x80, pitch, 0))))
        msgs.sort(key=lambda m: (m[0], m[1]))
        body = bytearray()
        now = 0
        for tick, _, payload in msgs:
            body += _encode_vlq(tick - now) + payload
            now = tick
        body += _encode_vlq(0) + bytes((0xFF, 0x2F, 0x00))
        tracks.append(bytes(body))
    fmt = 0 if len(tracks) == 1 else 1
    out = bytearray(_HEADER_MAGIC)
    out += (6).to_bytes(4, "big")
    out += fmt.to_bytes(2, "big") + len(tracks).to_bytes(2, "big") + division.to_bytes(2, "big")
    for body in tracks:
        out += _TRACK_MAGIC + len(body).to_bytes(4, "big") + body
    return bytes(out)
