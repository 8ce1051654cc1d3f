"""The object-per-note reference for the column MIDI parser.

This is how melowave read Standard MIDI Files before a score became integer
columns: a ``_Reader`` with one method call per byte, and every matched note
a frozen ``RawNote`` in a tuple. The tests compare the column parser with it:
equal note columns, equal ``dropped`` messages in the same order, and the
same ``MidiError`` text.
"""

from dataclasses import dataclass

import numpy as np

from melowave.ingest import MidiError

_HEADER_MAGIC = b"MThd"
_TRACK_MAGIC = b"MTrk"


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
    """All raw note events of a parsed file plus its metrical division."""

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

    def columns(self) -> tuple[np.ndarray, ...]:
        """Onset, duration, pitch, channel and track columns, int64."""
        fields = ("onset_ticks", "duration_ticks", "pitch_midi", "channel", "track")
        return tuple(
            np.array([getattr(n, name) for n in self.notes], np.int64) for name in fields
        )


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
    header.u16()
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
        r.pos += length
    if track_index == 0:
        raise MidiError("file contains no MTrk chunk")
    return ScoreModel(tuple(notes), division, tuple(dropped))


def _data_byte(r: _Reader, track: int, time: int) -> int:
    b = r.u8()
    if b >= 0x80:
        raise MidiError(f"track {track}: status byte 0x{b:02X} where a data byte belongs "
                        f"at tick {time}")
    return b


def _parse_track(r: _Reader, track: int, notes: list[RawNote], dropped: list[str]) -> None:
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
            if meta_type == 0x2F:
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
            data1 = _data_byte(r, track, time)
        if kind in (0xC0, 0xD0):
            continue
        data2 = _data_byte(r, track, time)
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
