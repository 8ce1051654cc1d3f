"""MIDI parsing, voice extraction and monophonic reduction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melowave.ingest import (
    MidiError,
    NoteEvent,
    NoteSequence,
    extract_voice,
    minimal_division,
    parse_standard_midi,
    reduce_monophonic,
    write_standard_midi,
)

import midi_reference
from conftest import (
    make_sequence,
    note_off,
    note_on,
    oracle_examples,
    random_sequence,
    simple_track,
    smf,
    track_chunk,
    vlq,
)


def notes(score) -> list[tuple[int, ...]]:
    """(onset, duration, pitch, channel, track) per note of a parsed score."""
    columns = (score.onsets, score.durations, score.pitches, score.channels, score.tracks)
    return list(zip(*(c.tolist() for c in columns)))


class TestParse:
    def test_single_note(self):
        data = smf(480, [simple_track([(0, 480, 60)])])
        score = parse_standard_midi(data)
        assert notes(score) == [(0, 480, 60, 0, 0)]
        assert score.division == 480

    def test_velocity_zero_closes_note(self):
        body = vlq(0) + note_on(0, 62, 64) + vlq(240) + note_on(0, 62, 0)
        score = parse_standard_midi(smf(96, [track_chunk(body)]))
        assert notes(score) == [(0, 240, 62, 0, 0)]

    def test_not_midi(self):
        with pytest.raises(MidiError, match="not a standard MIDI file"):
            parse_standard_midi(b"RIFFxxxx")

    def test_smpte_division_rejected(self):
        data = smf(0xE250, [simple_track([(0, 10, 60)])])
        with pytest.raises(MidiError, match="SMPTE"):
            parse_standard_midi(data)

    def test_format_2_rejected(self):
        data = smf(480, [simple_track([(0, 10, 60)])], fmt=2)
        with pytest.raises(MidiError, match="format 2"):
            parse_standard_midi(data)

    def test_running_status(self):
        # second note-on/off pair omits the status byte
        body = (
            vlq(0) + note_on(0, 60)
            + vlq(10) + bytes((60, 0))          # running note-on vel 0 = off
            + vlq(0) + bytes((64, 80))          # running note-on pitch 64
            + vlq(10) + bytes((64, 0))
        )
        score = parse_standard_midi(smf(96, [track_chunk(body)]))
        assert notes(score) == [(0, 10, 60, 0, 0), (10, 10, 64, 0, 0)]

    def test_unmatched_note_on_dropped_and_reported(self):
        body = vlq(0) + note_on(0, 70) + vlq(5) + note_on(0, 50) + vlq(5) + note_off(0, 50)
        score = parse_standard_midi(smf(96, [track_chunk(body)]))
        assert score.pitches.tolist() == [50]
        assert any("unmatched note-on pitch 70" in msg for msg in score.dropped)

    def test_zero_duration_dropped(self):
        body = vlq(0) + note_on(0, 60) + vlq(0) + note_off(0, 60)
        score = parse_standard_midi(smf(96, [track_chunk(body)]))
        assert notes(score) == []
        assert any("zero-duration" in msg for msg in score.dropped)

    def test_meta_and_unknown_chunks_skipped(self):
        tempo = vlq(0) + bytes((0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20))
        body = tempo + vlq(0) + note_on(0, 60) + vlq(96) + note_off(0, 60)
        alien = b"XFIH" + (4).to_bytes(4, "big") + b"\x00\x00\x00\x00"
        data = smf(96, [track_chunk(body)]) + alien
        score = parse_standard_midi(data)
        assert len(notes(score)) == 1

    def test_tracks_and_channels_recorded(self):
        data = smf(96, [simple_track([(0, 96, 60)], channel=0),
                        simple_track([(0, 96, 48)], channel=3)])
        score = parse_standard_midi(data)
        assert score.track_numbers() == (0, 1)
        assert score.channel_numbers() == (0, 3)


def written_midi(seed: int, n_voices: int) -> bytes:
    rng = np.random.default_rng(seed)
    return write_standard_midi([random_sequence(rng, n_notes=6) for _ in range(n_voices)])


def parses_or_midi_error(data: bytes) -> None:
    """Parsing either succeeds or raises MidiError, never anything else."""
    try:
        parse_standard_midi(data)
    except MidiError:
        pass


class TestParseRobustness:
    def test_header_chunk_past_the_data(self):
        with pytest.raises(MidiError, match="truncated MThd"):
            parse_standard_midi(b"MThd\x15\x043\x94\xb9")

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: b"MThd" + b))
    def test_arbitrary_bytes(self, data):
        parses_or_midi_error(data)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.data())
    def test_truncated_writer_output(self, seed, n_voices, data):
        full = written_midi(seed, n_voices)
        parses_or_midi_error(full[: data.draw(st.integers(0, len(full) - 1))])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.data())
    def test_mutated_writer_output(self, seed, n_voices, data):
        mutated = bytearray(written_midi(seed, n_voices))
        for _ in range(data.draw(st.integers(1, 4))):
            mutated[data.draw(st.integers(0, len(mutated) - 1))] = data.draw(st.integers(0, 255))
        parses_or_midi_error(bytes(mutated))


# about one event in 40 is a note-on with a high-bit data byte
EVENT_KINDS = 3 * ["on", "on", "on", "off", "off", "off", "on0", "program", "pressure",
                   "key-pressure", "control", "bend", "meta", "sysex"] + ["high-bit"]


@st.composite
def track_bodies(draw):
    """One MTrk body: note-ons (some with velocity 0) and note-offs on a
    few pitches, so notes overlap, repeat, stay unmatched or last no tick;
    program change, aftertouch, control change and pitch bend; meta and
    sysex events; running status wherever it applies; and now and then a
    byte of 0x80 or more where a data byte belongs."""
    body = bytearray()
    running = None
    for _ in range(draw(st.integers(0, 16))):
        body += vlq(draw(st.sampled_from([0, 0, 1, 5, 130]) | st.integers(0, 2**28 - 1)))
        kind = draw(st.sampled_from(EVENT_KINDS))
        if kind in ("meta", "sysex"):
            payload = draw(st.binary(max_size=4))
            if kind == "meta":
                body += bytes((0xFF, draw(st.sampled_from([0x01, 0x51, 0x7F, 0x2F]))))
            else:
                body.append(draw(st.sampled_from([0xF0, 0xF7])))
            body += vlq(len(payload)) + payload
            running = None
            continue
        channel, pitch = draw(st.sampled_from([0, 0, 0, 1])), draw(st.sampled_from([60, 60, 61]))
        status, data = {
            "on": (0x90, (pitch, draw(st.integers(1, 127)))),
            "on0": (0x90, (pitch, 0)),
            "off": (0x80, (pitch, draw(st.integers(0, 127)))),
            "program": (0xC0, (draw(st.integers(0, 127)),)),
            "pressure": (0xD0, (draw(st.integers(0, 127)),)),
            "key-pressure": (0xA0, (pitch, draw(st.integers(0, 127)))),
            "control": (0xB0, (draw(st.integers(0, 127)), draw(st.integers(0, 127)))),
            "bend": (0xE0, (draw(st.integers(0, 127)), draw(st.integers(0, 127)))),
            "high-bit": (0x90, (pitch, draw(st.integers(0x80, 0xFF)))),
        }[kind]
        status |= channel
        if kind == "high-bit" and draw(st.booleans()):
            data = data[::-1]  # the high byte where the pitch belongs
        if status != running or draw(st.booleans()):
            body.append(status)
        body += bytes(data)
        running = status
    return bytes(body)


def parsed(parse, data: bytes):
    """A parse as comparable values: the notes as (onset, duration, pitch,
    channel, track) rows, the division and the dropped messages; or the
    MidiError text."""
    try:
        score = parse(data)
    except MidiError as exc:
        return str(exc)
    if isinstance(score, midi_reference.ScoreModel):
        columns = score.columns()
    else:
        columns = (score.onsets, score.durations, score.pitches, score.channels, score.tracks)
        assert all(c.dtype == np.int64 and not c.flags.writeable for c in columns)
    return list(zip(*(c.tolist() for c in columns))), score.division, score.dropped


def assert_parses_like_reference(data: bytes) -> None:
    assert parsed(parse_standard_midi, data) == parsed(midi_reference.parse_standard_midi, data)


class TestParserMatchesReference:
    """The column parser against the per-byte reader of ``midi_reference``:
    equal note columns, equal dropped messages in order, equal errors."""

    @settings(max_examples=oracle_examples(200), deadline=None)
    @given(st.lists(track_bodies(), min_size=1, max_size=3), st.booleans(),
           st.integers(1, 0x7FFF))
    def test_generated_tracks(self, bodies, end_of_track, division):
        assert_parses_like_reference(
            smf(division, [track_chunk(body, end_of_track) for body in bodies])
        )

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.data())
    def test_truncated_writer_output(self, seed, n_voices, data):
        full = written_midi(seed, n_voices)
        assert_parses_like_reference(full[: data.draw(st.integers(0, len(full)))])

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.data())
    def test_mutated_writer_output(self, seed, n_voices, data):
        mutated = bytearray(written_midi(seed, n_voices))
        for _ in range(data.draw(st.integers(1, 4))):
            mutated[data.draw(st.integers(0, len(mutated) - 1))] = data.draw(st.integers(0, 255))
        assert_parses_like_reference(bytes(mutated))

    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(st.binary(max_size=64).map(lambda b: b"MThd\0\0\0\x06\0\0\0\x01\0\x60MTrk" + b))
    def test_arbitrary_track_bytes(self, data):
        assert_parses_like_reference(data)

    @pytest.mark.parametrize("event, byte", [
        (note_on(0, 60, 0xC0), 0xC0), (bytes((0x90, 0x90, 64)), 0x90),
        (bytes((0xC0, 0x85)), 0x85),
    ], ids=["velocity", "pitch", "program"])
    def test_high_bit_data_byte_is_an_error(self, event, byte):
        body = vlq(0) + note_on(0, 62) + vlq(7) + event
        data = smf(96, [simple_track([(0, 1, 60)]), track_chunk(body)])
        message = f"track 1: status byte 0x{byte:02X} where a data byte belongs at tick 7"
        for parse in (parse_standard_midi, midi_reference.parse_standard_midi):
            with pytest.raises(MidiError, match=f"^{message}$"):
                parse(data)


class TestExtractVoice:
    def test_unit_conversion(self):
        score = parse_standard_midi(smf(480, [simple_track([(0, 480, 60)])]))
        seq = extract_voice(score, 0, "test.mid")
        assert seq.events == (NoteEvent(Fraction(0), Fraction(1), 60),)

    def test_overlap_truncated_at_next_onset(self):
        # pitch 60 on [0,2) and pitch 62 on [1,3) -> (0,1,60),(1,2,62)
        body = (
            vlq(0) + note_on(0, 60) + vlq(96) + note_on(0, 62)
            + vlq(96) + note_off(0, 60) + vlq(96) + note_off(0, 62)
        )
        score = parse_standard_midi(smf(96, [track_chunk(body)]))
        seq = extract_voice(score, "track:0", "test.mid")
        assert seq.events == (
            NoteEvent(Fraction(0), Fraction(1), 60),
            NoteEvent(Fraction(1), Fraction(2), 62),
        )

    def test_empty_voice_errors(self):
        score = parse_standard_midi(smf(96, [simple_track([(0, 96, 60)])]))
        with pytest.raises(ValueError, match="no notes"):
            extract_voice(score, "track:5", "test.mid")
        with pytest.raises(ValueError, match="no notes"):
            extract_voice(score, "channel:9", "test.mid")

    def test_channel_selector(self):
        data = smf(96, [simple_track([(0, 96, 60)], channel=0),
                        simple_track([(0, 96, 48)], channel=2)])
        seq = extract_voice(parse_standard_midi(data), "channel:2", "test.mid")
        assert seq.events[0].pitch_midi == 48

    def test_bad_selector(self):
        score = parse_standard_midi(smf(96, [simple_track([(0, 96, 60)])]))
        with pytest.raises(ValueError, match="selector"):
            extract_voice(score, "part:1", "test.mid")


def reduced(onsets, ends, pitches) -> list[tuple[int, int, int]]:
    """reduce_monophonic on tick lists, as (onset, end, pitch) rows."""
    arrays = (np.array(values, np.int64) for values in (onsets, ends, pitches))
    return list(zip(*(values.tolist() for values in reduce_monophonic(*arrays))))


class TestMonophonicReduction:
    def test_same_onset_keeps_last(self):
        assert reduced([0, 0], [1, 1], [60, 64]) == [(0, 1, 64)]

    def test_idempotent(self, rng):
        for _ in range(40):
            durations = rng.integers(1, 9, size=10) * 2
            # next onset may fall inside the previous note
            onsets = np.concatenate(([0], np.cumsum(rng.integers(1, 9, size=9))))
            once = reduce_monophonic(onsets, onsets + durations, rng.integers(40, 90, size=10))
            twice = reduce_monophonic(*once)
            assert all(np.array_equal(a, b) for a, b in zip(once, twice))
            NoteSequence(*once, 4, int(once[1][-1]))  # monophonic invariant holds

    def test_contained_note_chain(self):
        assert reduced([0, 1, 2], [4, 5, 3], [60, 62, 64]) == [(0, 1, 60), (1, 2, 62), (2, 3, 64)]


class TestNoteSequence:
    def test_total_duration_invariant(self):
        with pytest.raises(ValueError, match="total duration"):
            make_sequence([(0, 2, 60)], total=1)

    def test_polyphony_rejected(self):
        with pytest.raises(ValueError, match="monophonic"):
            make_sequence([(0, 2, 60), (1, 1, 62)])

    def test_slice_rebases_and_clips(self):
        seq = make_sequence([(0, 2, 60), (2, 2, 62)])
        part = seq.slice(1, 3)
        assert part.total_duration_qn == 2
        assert part.events == (
            NoteEvent(Fraction(0), Fraction(1), 60),
            NoteEvent(Fraction(1), Fraction(1), 62),
        )


class TestRoundTrip:
    def test_simple(self):
        seq = make_sequence([(0, 1, 60), (1, Fraction(1, 2), 62), (2, 1, 64)], total=4)
        parsed = extract_voice(parse_standard_midi(write_standard_midi(seq)), 0, "test.mid")
        assert parsed.events == seq.events

    def test_random_sequences(self, rng):
        for _ in range(50):
            seq = random_sequence(rng)
            parsed = extract_voice(parse_standard_midi(write_standard_midi(seq)), 0, "test.mid")
            assert parsed.events == seq.events
            assert parsed.total_duration_qn >= max(e.end_qn for e in parsed.events)

    def test_two_voice_format_1(self, rng):
        upper = random_sequence(rng, with_rests=False)
        lower = random_sequence(rng, with_rests=False)
        data = write_standard_midi([upper, lower], division=480)
        score = parse_standard_midi(data)
        assert extract_voice(score, "track:0", "test.mid").events == upper.events
        assert extract_voice(score, "track:1", "test.mid").events == lower.events

    def test_minimal_division(self):
        seq = make_sequence([(0, Fraction(1, 3), 60), (Fraction(1, 3), Fraction(1, 4), 61)])
        assert minimal_division([seq]) == 12
        parsed = extract_voice(parse_standard_midi(write_standard_midi(seq)), 0, "test.mid")
        assert parsed.events == seq.events
