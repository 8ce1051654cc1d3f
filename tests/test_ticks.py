"""The tick-array note model against its Fraction reference.

Every operation on ``NoteSequence`` (validation, slicing, lengthening,
monophonic reduction, the contrapuntal transforms, sampling and the
LBDM lists) must give exactly what the Fraction-per-note code in
``fraction_reference`` gives: the same notes, the same sample arrays bit for
bit, and the same errors.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
import midi_reference
from melowave.contrapuntal import VariationKind, transform_sequence
from melowave.ingest import (
    NoteEvent,
    NoteSequence,
    ScoreModel,
    extract_voice,
    minimal_division,
)
from melowave.segmentation import lbdm_boundaries, lbdm_profile
from melowave.signals import RestPolicy, resample_to_length, sample_pitch_signal

DIVISIONS = st.sampled_from([1, 2, 3, 4, 5, 7, 12, 100, 480])
# 1/2 to 8 samples per quarter note, most of them dividing none of the divisions
RATES = st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(8)]) | st.fractions(
    Fraction(1, 2), Fraction(8), max_denominator=7
)
INT_PITCHES = st.integers(30, 100)
FLOAT_PITCHES = st.floats(20, 110, allow_nan=False)
EXAMPLES = settings(max_examples=150, deadline=None)


@st.composite
def note_lists(draw, pitches=INT_PITCHES, min_notes=0):
    """Monophonic notes on a drawn grid, with rests, and a total length at
    or past the last note-off."""
    division = draw(DIVISIONS)
    events, tick = [], 0
    for _ in range(draw(st.integers(min_notes, 12))):
        tick += draw(st.just(0) | st.integers(1, 2 * division))
        duration = draw(st.integers(1, 3 * division))
        events.append(NoteEvent(Fraction(tick, division), Fraction(duration, division),
                                draw(pitches)))
        tick += duration
    return events, Fraction(tick + draw(st.integers(0, division)), division)


def pair(events, total):
    """The sequence in both models."""
    return NoteSequence.from_events(events, total), ref.RefSequence(tuple(events), total)


def assert_same(seq: NoteSequence, expected: ref.RefSequence) -> None:
    """The same notes, pitch types included, and the same total length."""
    assert seq.events == expected.events
    assert [type(e.pitch_midi) for e in seq.events] == [
        type(e.pitch_midi) for e in expected.events
    ]
    assert seq.total_duration_qn == expected.total_duration_qn
    assert seq.end_qn == expected.end_qn


def outcome(func, *args):
    """A call's result, or its error as (type, message)."""
    try:
        return func(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_samples(got, expected) -> None:
    if isinstance(expected, tuple):  # an error
        assert got == expected
        return
    assert got.dtype == np.float64 and np.array_equal(got, expected)


@EXAMPLES
@given(st.lists(st.tuples(st.integers(-4, 16), st.integers(-2, 6), INT_PITCHES), max_size=8),
       st.integers(0, 20), st.sampled_from([1, 2, 3]))
def test_validation_matches_reference(notes, total, division):
    events = [NoteEvent(Fraction(a, division), Fraction(d, division), p) for a, d, p in notes]
    total = Fraction(total, division)
    got = outcome(NoteSequence.from_events, events, total)
    expected = outcome(ref.RefSequence, tuple(events), total)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same(got, expected)


@EXAMPLES
@given(note_lists(), RATES, st.sampled_from(RestPolicy))
def test_sampling_matches_reference(notes, rate, policy):
    seq, expected = pair(*notes)
    assert_same(seq, expected)
    assert_same_samples(
        outcome(sample_pitch_signal, seq, rate, policy),
        outcome(ref.sample_pitch_signal, expected, rate, policy),
    )


@EXAMPLES
@given(note_lists(min_notes=1), st.integers(1, 300), st.sampled_from(RestPolicy))
def test_resampling_matches_reference(notes, n, policy):
    seq, expected = pair(*notes)
    assert_same_samples(
        resample_to_length(seq, n, policy), ref.resample_to_length(expected, n, policy)
    )


@EXAMPLES
@given(note_lists(), RATES, st.integers(0, 60), st.integers(1, 60), st.sampled_from(RestPolicy))
def test_slice_at_sample_times_matches_reference(notes, rate, a, size, policy):
    # a span's slice starts and ends at sample times a / rate, which may need
    # a finer division than the sequence's
    seq, expected = pair(*notes)
    start, end = a / rate, (a + size) / rate
    part, expected_part = seq.slice(start, end), expected.slice(start, end)
    assert_same(part, expected_part)
    assert_same_samples(
        sample_pitch_signal(part, rate, RestPolicy.REPRESENT_ZERO),
        ref.sample_pitch_signal(expected_part, rate, RestPolicy.REPRESENT_ZERO),
    )
    if part.events:
        assert_same_samples(
            resample_to_length(part, size, policy),
            ref.resample_to_length(expected_part, size, policy),
        )


@EXAMPLES
@given(note_lists(), st.fractions(0, 40, max_denominator=9), RATES)
def test_lengthening_matches_reference(notes, total, rate):
    # a part of a two-part work is sampled over the work's length: a slice
    # from 0 to a total at or past its last note-off
    seq, expected = pair(*notes)
    total = max(total, expected.end_qn, Fraction(1, 9))
    longer, expected_longer = seq.slice(0, total), expected.with_total_duration(total)
    assert_same(longer, expected_longer)
    assert_same_samples(
        outcome(sample_pitch_signal, longer, rate, RestPolicy.REMOVE),
        outcome(ref.sample_pitch_signal, expected_longer, rate, RestPolicy.REMOVE),
    )


@EXAMPLES
@given(note_lists(min_notes=1) | note_lists(FLOAT_PITCHES, min_notes=1),
       st.sampled_from(VariationKind), RATES)
def test_transforms_match_reference(notes, kind, rate):
    seq, expected = pair(*notes)
    varied, expected_varied = transform_sequence(seq, kind), ref.transform_sequence(expected, kind)
    assert_same(varied, expected_varied)
    twice = transform_sequence(varied, kind)  # float pitches, reversed sums
    assert_same(twice, ref.transform_sequence(expected_varied, kind))
    assert_same_samples(
        sample_pitch_signal(varied, rate, RestPolicy.REPRESENT_ZERO),
        ref.sample_pitch_signal(expected_varied, rate, RestPolicy.REPRESENT_ZERO),
    )


@EXAMPLES
@given(note_lists() | note_lists(FLOAT_PITCHES), RATES,
       st.sampled_from([0.0, 0.1, 0.4, 0.8]))
def test_lbdm_matches_reference(notes, rate, threshold):
    seq, expected = pair(*notes)
    assert np.array_equal(lbdm_profile(seq), ref.lbdm_profile(expected))
    got = lbdm_boundaries(seq, threshold, rate) if seq.total else None
    want = ref.lbdm_boundaries(expected, threshold, rate) if seq.total else None
    assert got == want


@EXAMPLES
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(1, 8), st.integers(0, 127), st.integers(0, 1)),
        min_size=1, max_size=14,
    ),
    DIVISIONS,
)
def test_extraction_matches_reference(raw, division):
    # notes often share an onset or sound on into the next one; the
    # reference reads RawNote tuples, the array code the same notes as columns
    notes = tuple(
        midi_reference.RawNote(a * division // 4, d * division, p, ch, ch) for a, d, p, ch in raw
    )
    notes = tuple(n for n in notes if n.duration_ticks > 0)
    expected = midi_reference.ScoreModel(notes, division)
    score = ScoreModel(*expected.columns(), division)
    for selector in ("track:0", "channel:1"):
        got = outcome(extract_voice, score, selector, "x.mid")
        want = outcome(ref.extract_voice, expected, selector, "x.mid")
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same(got, want)


@EXAMPLES
@given(note_lists(), st.integers(2, 5))
def test_equality_over_divisions(notes, scale):
    seq = NoteSequence.from_events(*notes)
    finer = NoteSequence(seq.onsets * scale, seq.ends * scale, seq.pitches,
                         seq.division * scale, seq.total * scale)
    assert finer == seq and repr(finer) == repr(seq)
    # equal pitch values compare equal, as NoteEvents do
    assert NoteSequence(seq.onsets, seq.ends, seq.pitches.astype(float), seq.division,
                        seq.total) == seq
    expected = 1
    for ev in seq.events:
        expected = np.lcm.reduce([expected, ev.onset_qn.denominator, ev.end_qn.denominator])
    assert minimal_division([finer]) == minimal_division([seq]) == expected
    if seq.events:
        later = NoteSequence(seq.onsets + 1, seq.ends + 1, seq.pitches, seq.division,
                             seq.total + 1)
        assert later != seq


def test_arrays_are_read_only():
    seq = NoteSequence.from_events([NoteEvent(Fraction(0), Fraction(1), 60)], Fraction(2))
    for values in (seq.onsets, seq.ends, seq.pitches):
        with pytest.raises(ValueError):
            values[0] = 1


def test_times_past_the_tick_limit_are_errors():
    tiny = Fraction(1, 2**60)
    with pytest.raises(ValueError, match="53-bit ticks"):
        NoteSequence.from_events([NoteEvent(Fraction(0), tiny, 60)], Fraction(1))
    seq = NoteSequence.from_events([NoteEvent(Fraction(0), Fraction(1), 60)], Fraction(1))
    with pytest.raises(ValueError, match="53-bit ticks"):
        seq.slice(0, tiny)
    with pytest.raises(ValueError, match="53-bit ticks"):
        sample_pitch_signal(seq, 2**60, RestPolicy.REPRESENT_ZERO)
