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


_COLUMNS = ("onsets", "durations", "pitches", "channels", "tracks")


@dataclass(frozen=True, eq=False)
class ScoreModel:
    """All matched notes of a parsed file plus its metrical division. The
    notes are read-only int64 columns, one entry per note in the order the
    notes closed: onset and duration in ticks, pitch, channel and track.

    ``dropped`` records one message per event the parser had to discard
    (unmatched note-ons at end of track, zero-duration notes).
    """

    onsets: np.ndarray
    durations: np.ndarray
    pitches: np.ndarray
    channels: np.ndarray
    tracks: np.ndarray
    division: int
    dropped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.division <= 0:
            raise MidiError("division must be a positive integer")
        columns = [np.asarray(getattr(self, name), np.int64) for name in _COLUMNS]
        if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
            raise MidiError("note columns must be 1-D and of one length")
        for name, values in zip(_COLUMNS, columns):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        on, duration, pitch, channel, track = columns
        for i in np.flatnonzero((duration <= 0) | (pitch < 0) | (pitch > 127))[:1]:
            note = (f"track {track[i]} channel {channel[i]} pitch {pitch[i]} "
                    f"at tick {on[i]} for {duration[i]} ticks")
            if duration[i] <= 0:
                raise MidiError(f"raw note has non-positive duration: {note}")
            raise MidiError(f"raw note pitch out of range: {note}")

    def track_numbers(self) -> tuple[int, ...]:
        return tuple(np.unique(self.tracks).tolist())

    def channel_numbers(self) -> tuple[int, ...]:
        return tuple(np.unique(self.channels).tolist())


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


def parse_standard_midi(data: bytes) -> ScoreModel:
    """Decode an SMF format 0/1 byte string into raw note events.

    Note-on with velocity 0 closes a note; running status is honored.
    Unmatched note-ons at end of track and zero-duration notes are dropped
    and reported in ``ScoreModel.dropped``.
    """
    if len(data) < 8 or data[:4] != _HEADER_MAGIC:
        raise MidiError("not a standard MIDI file (missing MThd header)")
    header_len = int.from_bytes(data[4:8], "big")
    if header_len < 6:
        raise MidiError("MThd chunk too short")
    if len(data) - 8 < header_len:
        raise MidiError("truncated MThd chunk")
    # the declared track count (bytes 10-11) is not read: the chunk walk is authoritative
    fmt, division = int.from_bytes(data[8:10], "big"), int.from_bytes(data[12:14], "big")
    if fmt not in (0, 1):
        raise MidiError(f"unsupported SMF format {fmt} (only 0 and 1)")
    if division & 0x8000:
        raise MidiError("SMPTE division is not supported (metrical timing only)")
    if division == 0:
        raise MidiError("division must be a positive integer")

    columns: tuple[list[int], ...] = ([], [], [], [])  # onset, duration, pitch, channel
    counts: list[int] = []  # notes per track
    dropped: list[str] = []
    pos = 8 + header_len
    while len(data) - pos >= 8:
        magic, length = data[pos : pos + 4], int.from_bytes(data[pos + 4 : pos + 8], "big")
        pos += 8
        if len(data) - pos < length:
            raise MidiError("truncated chunk")
        if magic == _TRACK_MAGIC:  # other chunk types are skipped per the SMF spec
            before = len(columns[0])
            _parse_track(data[pos : pos + length], len(counts), columns, dropped)
            counts.append(len(columns[0]) - before)
        pos += length
    if not counts:
        raise MidiError("file contains no MTrk chunk")
    tracks = np.repeat(np.arange(len(counts)), counts)
    return ScoreModel(*(np.array(c, np.int64) for c in columns), tracks, division,
                      tuple(dropped))


def _vlq(data: bytes, pos: int) -> tuple[int, int]:
    """The variable-length quantity at ``pos`` and the position after it."""
    value = 0
    for _ in range(4):
        b = data[pos]
        pos += 1
        value = (value << 7) | (b & 0x7F)
        if b < 0x80:
            return value, pos
    raise MidiError("variable-length quantity longer than 4 bytes")


def _parse_track(
    data: bytes, track: int, columns: tuple[list[int], ...], dropped: list[str]
) -> None:
    """Append the notes of one MTrk chunk body to the columns. A read past
    its end (an IndexError) is the error ``unexpected end of data``."""
    onsets, durations, pitches, channels = columns
    end = len(data)
    pos = time = 0
    running = 0  # the running status; 0 when there is none
    open_notes: dict[int, list[int]] = {}  # channel * 128 + pitch -> onsets
    try:
        while pos < end:
            b = data[pos]  # the delta time: one or two bytes inline, longer in _vlq
            if b < 0x80:
                time += b
                pos += 1
            elif data[pos + 1] < 0x80:
                time += (b & 0x7F) << 7 | data[pos + 1]
                pos += 2
            else:
                delta, pos = _vlq(data, pos)
                time += delta
            status = data[pos]
            pos += 1
            if status < 0x80:
                if not running:
                    raise MidiError("data byte without running status")
                status, data1 = running, status
            elif status >= 0xF0:
                if status == 0xFF:
                    meta_type = data[pos]
                    length, pos = _vlq(data, pos + 1)
                elif status in (0xF0, 0xF7):
                    meta_type = None
                    length, pos = _vlq(data, pos)
                else:
                    raise MidiError(f"unexpected status byte 0x{status:02X}")
                if end - pos < length:
                    raise MidiError("unexpected end of data")
                pos += length
                running = 0
                if meta_type == 0x2F:  # end of track
                    break
                continue
            else:
                data1 = data[pos]
                pos += 1
                if data1 >= 0x80:
                    raise _data_byte_error(track, data1, time)
            running = status
            kind = status & 0xF0
            if kind == 0xC0 or kind == 0xD0:
                continue
            data2 = data[pos]
            pos += 1
            if data2 >= 0x80:
                raise _data_byte_error(track, data2, time)
            if kind != 0x90 and kind != 0x80:
                continue
            channel = status & 0x0F
            key = channel << 7 | data1
            if kind == 0x90 and data2:
                open_notes.setdefault(key, []).append(time)
                continue
            sounding = open_notes.get(key)
            if not sounding:
                dropped.append(
                    f"track {track}: unmatched note-off pitch {data1} "
                    f"channel {channel} at tick {time}"
                )
                continue
            onset = sounding.pop(0)
            if time - onset <= 0:
                dropped.append(
                    f"track {track}: zero-duration note pitch {data1} "
                    f"channel {channel} at tick {onset}"
                )
                continue
            onsets.append(onset)
            durations.append(time - onset)
            pitches.append(data1)
            channels.append(channel)
    except IndexError:
        raise MidiError("unexpected end of data") from None
    for key in sorted(open_notes):  # by channel, then pitch
        channel, pitch = divmod(key, 128)
        for onset in open_notes[key]:
            dropped.append(
                f"track {track}: unmatched note-on pitch {pitch} "
                f"channel {channel} at tick {onset} (dropped)"
            )


def _data_byte_error(track: int, value: int, time: int) -> MidiError:
    return MidiError(
        f"track {track}: status byte 0x{value:02X} where a data byte belongs at tick {time}"
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
    mine = (score.tracks if kind == "track" else score.channels) == index
    if not mine.any():
        raise MidiError(f"{source}: {kind} {index} contains no notes")
    on = score.onsets[mine]
    onsets, ends, pitches = reduce_monophonic(on, on + score.durations[mine], score.pitches[mine])
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
