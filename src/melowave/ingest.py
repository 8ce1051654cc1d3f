"""Standard MIDI File ingestion.

Parses SMF format 0/1 byte streams into raw tick-timed note events, selects
single voices by track or channel and reduces them to monophonic note
sequences with exact quarter-note timing (kept rational until sampling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_HEADER_MAGIC = b"MThd"
_TRACK_MAGIC = b"MTrk"

QN = Fraction  # quarter-note amounts are exact rationals


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


@dataclass(frozen=True)
class NoteSequence:
    """An ordered monophonic sequence of notes.

    ``total_duration_qn`` may extend past the last note-off; the trailing
    gap counts as a rest when the sequence is sampled.
    """

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

    def with_total_duration(self, total_qn: Fraction) -> "NoteSequence":
        return NoteSequence(self.events, Fraction(total_qn))

    def slice(self, start_qn: Fraction, end_qn: Fraction) -> "NoteSequence":
        """Notes overlapping [start, end), clipped and rebased to start."""
        start_qn, end_qn = Fraction(start_qn), Fraction(end_qn)
        if end_qn <= start_qn:
            raise ValueError("slice must have positive length")
        out = []
        for ev in self.events:
            a = max(ev.onset_qn, start_qn)
            b = min(ev.end_qn, end_qn)
            if b > a:
                out.append(NoteEvent(a - start_qn, b - a, ev.pitch_midi))
        return NoteSequence(tuple(out), end_qn - start_qn)


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
    note.

    A note still sounding at the next onset is truncated at that onset;
    notes sharing an onset keep only the last one (the truncation rule
    would leave the earlier ones with zero duration).
    """
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
    return NoteSequence(reduced, reduced[-1].end_qn)


def reduce_monophonic(events: list[NoteEvent] | tuple[NoteEvent, ...]) -> tuple[NoteEvent, ...]:
    """Truncate overlapping notes at the next onset. Idempotent."""
    ordered = sorted(events, key=lambda ev: ev.onset_qn)
    out: list[NoteEvent] = []
    for ev in ordered:
        if out:
            prev = out[-1]
            if ev.onset_qn == prev.onset_qn:
                out[-1] = ev
                continue
            if prev.end_qn > ev.onset_qn:
                out[-1] = NoteEvent(
                    prev.onset_qn, ev.onset_qn - prev.onset_qn, prev.pitch_midi
                )
        out.append(ev)
    return tuple(out)


def _encode_vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def minimal_division(sequences: list[NoteSequence]) -> int:
    """Smallest ticks-per-quarter grid holding every onset and offset exactly."""
    div = 1
    for seq in sequences:
        for ev in seq.events:
            div = math.lcm(div, ev.onset_qn.denominator, ev.end_qn.denominator)
    return div


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
        msgs: list[tuple[int, int, bytes]] = []
        for ev in seq.events:
            on_tick = ev.onset_qn * division
            off_tick = ev.end_qn * division
            if on_tick.denominator != 1 or off_tick.denominator != 1:
                raise ValueError(f"division {division} cannot represent onset {ev.onset_qn}")
            msgs.append((int(on_tick), 1, bytes((0x90, ev.pitch_midi, 64))))
            msgs.append((int(off_tick), 0, bytes((0x80, ev.pitch_midi, 0))))
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
