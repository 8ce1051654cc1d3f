"""Experiment harnesses: invention sections, tune families, grid search."""

import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melowave import experiments
from melowave.classifier import Metric, distinct_rows, pairwise_distances
from melowave.contrapuntal import VariationKind, apply_variation
from melowave.corpora import (
    BachWork,
    FolkCorpus,
    FolkSong,
    load_bach_corpus,
    load_folk_corpus,
    synthetic_inventions,
    synthetic_tune_families,
)
from melowave.experiments import (
    ALL_KS,
    DYADIC_SCALES_QN,
    LBDM_THRESHOLDS,
    ConfigError,
    ExperimentConfig,
    Equalization,
    Representation,
    SegMethod,
    Segmentation,
    _grid_configs,
    _normalizer,
    _section_segments,
    _work_signals,
    classifier_segments,
    grid_search,
    run_bach_experiment,
    run_folk_segmented,
    run_folk_unsegmented,
    split_section_spans,
)
from melowave.ingest import MidiError, NoteSequence, write_standard_midi
from melowave.segmentation import equalize_zero_pad
from melowave.signals import (
    RestPolicy,
    mean_normalize,
    resample_to_length,
    sample_pitch_signal,
)

import segment_reference as seg_ref
from conftest import make_sequence, oracle_examples, smf, track_chunk
from test_classifier import oracle_decide, oracle_vote, padded_matrices, streamed_corpora

NO_SEGMENTATION = Segmentation(SegMethod.NONE)


def ws_config(scale, **kwargs):
    return ExperimentConfig(
        representation=Representation.WAVELET,
        wavelet_rep_scale_qn=Fraction(scale),
        segmentation=Segmentation(SegMethod.WS_LOCAL_MAX, Fraction(scale)),
        rest_policy=RestPolicy.REMOVE,
        **kwargs,
    )


def work_parts(works, config):
    return [_work_signals(work, config) for work in works]


def reference_segments(values, span_seq, variation, config):
    """One span's segments by the segment-by-segment reference: the engine
    varies, represents and segments the span; the reference cuts it and
    normalizes each pitch-signal segment on its own."""
    rep, boundaries = seg_ref.part_span(values, span_seq, variation, config)
    segments = seg_ref.cut_segments(rep, boundaries)
    if config.representation is Representation.PITCH:
        norm = _normalizer(config)
        segments = [(seg_ref.mean_normalize if norm is mean_normalize else norm)(s)
                    for s in segments]
    return segments


def reference_equalize(segments, labels, equalization, target=None):
    """The segment-by-segment equalizer of ``equalization``."""
    if equalization is Equalization.ZERO_PAD:
        return seg_ref.equalize_zero_pad(segments, labels, target)
    return seg_ref.equalize_interpolate(segments, labels, target)


def oracle_item_block(queries, distinct, corpus, excluded, metric):
    """Distinct query rows against every corpus row at full length, a
    column a corpus row, the excluded rows at +inf."""
    block = pairwise_distances(queries.rows[distinct], corpus.rows, metric)[:, corpus.ids]
    block[:, excluded] = np.inf
    return block


@st.composite
def padded_items(draw):
    """Items over copies of ragged zero-padded rows of extreme magnitudes:
    (matrix, None, row offsets), an item's rows repeating other items' rows."""
    rows = draw(padded_matrices())
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=16))
    cuts = draw(st.sets(st.integers(1, len(picks) - 1)))
    return rows[picks], None, np.array([0, *sorted(cuts), len(picks)])


class TestConfigValidation:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_seg_params_with_none_rejected(self):
        with pytest.raises(ConfigError, match="takes no parameter"):
            Segmentation(SegMethod.NONE, Fraction(1))

    def test_missing_required_param(self):
        for method in (SegMethod.LBDM, SegMethod.WS_ZERO_CROSS, SegMethod.CONSTANT):
            with pytest.raises(ConfigError, match="requires"):
                Segmentation(method)

    def test_param_types_keep_csv_bytes(self):
        assert Segmentation(SegMethod.WS_LOCAL_MAX, "1/2").param == Fraction(1, 2)
        assert type(Segmentation(SegMethod.CONSTANT, 2).param) is Fraction
        assert type(Segmentation(SegMethod.LBDM, Fraction(2, 5)).param) is float

    def test_k_range(self):
        with pytest.raises(ConfigError, match="^k must be in 1..5, got 6$"):
            run_folk_segmented(uniform_family_corpus(), ws_config(1), ks=(6,))

    def test_prefix_choices(self, works):
        with pytest.raises(ConfigError, match="^classifier prefix must be 4, 8 or 16 qn, got 12$"):
            run_bach_experiment(works, ExperimentConfig(), prefix_qn=12)

    def test_threshold_range(self):
        with pytest.raises(ConfigError, match="threshold"):
            Segmentation(SegMethod.LBDM, 1.2)


class TestSectionSplit:
    def test_exact_division(self):
        # 40 qn at rate 8: 192 post-exposition samples -> three spans of 64
        spans = split_section_spans(320, 8)
        assert spans == [(128, 192), (192, 256), (256, 320)]

    def test_remainder_to_final(self):
        spans = split_section_spans(321, 8)
        assert [b - a for a, b in spans] == [64, 64, 65]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="exposition"):
            split_section_spans(128, 8)

    def test_exactly_exposition_length_rejected(self):
        work = BachWork("w", make_sequence([(0, 16, 60)]), make_sequence([(0, 16, 55)]))
        config = ExperimentConfig(segmentation=NO_SEGMENTATION)
        with pytest.raises(ValueError, match="exposition"):
            _section_segments([work], work_parts([work], config), config)

    def test_work_level(self):
        # both parts share the longer part's sampled length: 40 qn at rate 8
        work = BachWork(
            "w", make_sequence([(0, 40, 60)]), make_sequence([(0, 38, 55)])
        )
        config = ExperimentConfig(
            representation=Representation.PITCH, segmentation=NO_SEGMENTATION
        )
        segments, items, offsets = _section_segments([work], work_parts([work], config), config)
        assert items == [("w/s0", "w"), ("w/s1", "w"), ("w/s2", "w")]
        assert offsets.tolist() == [0, 2, 4, 6]  # each section holds one segment per part
        assert [s.size for s in segments] == [64] * 6


@pytest.fixture(scope="module")
def works():
    return synthetic_inventions(0)


def classifier_matrix(works, config, **protocol):
    return equalize_zero_pad(
        *classifier_segments(works, work_parts(works, config), config, **protocol)
    )


class TestBachClassifier:
    def test_nc_has_one_class_per_work(self, works):
        matrix = classifier_matrix(works, ExperimentConfig())
        assert len(set(matrix.labels)) == 15

    def test_cp_has_four_times_the_classes(self, works):
        matrix = classifier_matrix(works, ExperimentConfig(), contrapuntal=True)
        assert len(set(matrix.labels)) == 60

    def test_no_segmentation_one_row_per_part(self, works):
        matrix = classifier_matrix(works, ExperimentConfig(segmentation=NO_SEGMENTATION))
        assert matrix.rows.shape[0] == 30

    def test_short_work_rejected(self):
        works = [BachWork("w", make_sequence([(0, 10, 60)]), make_sequence([(0, 10, 55)]))]
        with pytest.raises(ValueError, match="shorter"):
            run_bach_experiment(works, ExperimentConfig())


class TestBachExperiment:
    def test_accuracies_are_fifteenths(self, works):
        report = run_bach_experiment(works, ExperimentConfig())
        assert len(report.section_accuracies) == 3
        for acc in report.section_accuracies:
            assert acc == pytest.approx(round(acc * 15) / 15)

    def test_mean_std_over_three_sections(self, works):
        report = run_bach_experiment(works, ExperimentConfig())
        acc = np.array(report.section_accuracies)
        assert report.mean_accuracy == pytest.approx(acc.mean())
        assert report.std_accuracy == pytest.approx(acc.std(ddof=1))

    def test_traces_rescore_to_accuracy(self, works):
        report = run_bach_experiment(works, ExperimentConfig())
        per_section = {0: [], 1: [], 2: []}
        for t in report.traces:
            per_section[int(t.item_id.rsplit("/s", 1)[1])].append(
                t.true_label == t.predicted_label
            )
        rescored = [np.mean(flags) for _, flags in sorted(per_section.items())]
        assert tuple(rescored) == pytest.approx(report.section_accuracies)

    def test_deterministic(self, works):
        a = run_bach_experiment(works, ExperimentConfig())
        b = run_bach_experiment(works, ExperimentConfig())
        assert a == b

    def test_segmentation_beats_none_on_synthetic(self, works):
        seg = run_bach_experiment(works, ExperimentConfig())
        none = run_bach_experiment(
            works, ExperimentConfig(segmentation=NO_SEGMENTATION)
        )
        assert seg.mean_accuracy > none.mean_accuracy

    def test_cp_not_better_on_synthetic(self, works):
        nc = run_bach_experiment(works, ExperimentConfig())
        cp = run_bach_experiment(works, ExperimentConfig(), contrapuntal=True)
        assert cp.mean_accuracy <= nc.mean_accuracy

    def test_lbdm_and_constant_and_interpolate_routes(self, works):
        few = works[:5]
        lbdm = ExperimentConfig(segmentation=Segmentation(SegMethod.LBDM, 0.2))
        for config, contrapuntal in (
            (lbdm, False),
            (ExperimentConfig(segmentation=Segmentation(SegMethod.CONSTANT, 1)), False),
            (ExperimentConfig(equalization=Equalization.INTERPOLATE), False),
            (ExperimentConfig(representation=Representation.PITCH), False),
            (lbdm, True),
        ):
            report = run_bach_experiment(few, config, contrapuntal=contrapuntal)
            assert all(0 <= a <= 1 for a in report.section_accuracies)

    def test_each_part_sampled_once_per_run(self, works, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return sample_pitch_signal(*args)

        monkeypatch.setattr(experiments, "sample_pitch_signal", counting)
        few = works[:4]
        for config, contrapuntal in (
            (ExperimentConfig(), False),
            (ExperimentConfig(segmentation=Segmentation(SegMethod.LBDM, 0.2)), True),
        ):
            calls.clear()
            run_bach_experiment(few, config, contrapuntal=contrapuntal)
            assert len(calls) == 2 * len(few)

    def test_two_equalizer_calls_per_run(self, works, monkeypatch):
        calls = []

        def counting(equalize):
            def wrapper(*args):
                calls.append(equalize.__name__)
                return equalize(*args)
            return wrapper

        for name in ("equalize_zero_pad", "equalize_interpolate"):
            monkeypatch.setattr(experiments, name, counting(getattr(experiments, name)))
        for equalization, name in (
            (Equalization.ZERO_PAD, "equalize_zero_pad"),
            (Equalization.INTERPOLATE, "equalize_interpolate"),
        ):
            calls.clear()
            run_bach_experiment(works[:4], ExperimentConfig(equalization=equalization))
            assert calls == [name, name]  # the classifier rows, then every section's rows

    @pytest.mark.parametrize("config, contrapuntal", [
        (ExperimentConfig(), False),
        (ExperimentConfig(equalization=Equalization.INTERPOLATE), True),
        (ExperimentConfig(
            representation=Representation.PITCH, segmentation=Segmentation(SegMethod.LBDM, 0.2)
        ), False),
    ], ids=["nc-pad", "cp-interp", "vr-lbdm"])
    def test_matches_naive_per_section_route(self, works, config, contrapuntal):
        few = works[:5]
        report = run_bach_experiment(few, config, contrapuntal=contrapuntal)
        assert trace_tuples(report.traces) == bach_reference(few, config, contrapuntal)

    @settings(max_examples=oracle_examples(6), deadline=None)
    @given(
        st.integers(0, 2**16), st.integers(2, 3), st.booleans(), st.booleans(),
        st.sampled_from(["vr", "wr"]), st.sampled_from(list(Metric)),
        st.sampled_from([(Fraction(8), "ws-zc"), (Fraction(5, 2), "ws-zc"),
                         (Fraction(5, 2), "lbdm")]),
    )
    def test_traces_match_reference(self, seed, n_works, copy, contrapuntal, rep, metric, cell):
        # a few works, the first one again under another id when ``copy``
        # (every classifier row of the pair then ties exactly); at rate 5/2
        # the section edges fall between the ticks of the parts
        few = synthetic_inventions(seed, n_works)
        if copy:
            few.append(BachWork("copy", few[0].upper, few[0].lower))
        rate, method = cell
        scale = 4 / rate  # a support of 4 samples
        segmentation = Segmentation(SegMethod(method), scale if method == "ws-zc" else 0.3)
        config = ExperimentConfig(
            representation=Representation(rep), metric=metric, rate=rate,
            wavelet_rep_scale_qn=scale, segmentation=segmentation,
        )
        report = run_bach_experiment(few, config, contrapuntal=contrapuntal)
        assert trace_tuples(report.traces) == bach_reference(few, config, contrapuntal)


def note_parts(draw, rate):
    """One or two random parts sampled at ``rate``: note lists on a quarter
    of a quarter note, with rests, long notes and silent parts."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        onset, notes = Fraction(0), []
        for _ in range(draw(st.integers(0, 8))):
            onset += draw(st.sampled_from([0, 0, Fraction(1, 4), 1]))
            duration = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), 1, 3]))
            notes.append((onset, duration, draw(st.integers(48, 72))))
            onset += duration
        total = onset + draw(st.sampled_from([0, Fraction(1, 4), 2])) or Fraction(1)
        seq = make_sequence(notes, total)
        parts.append((sample_pitch_signal(seq, rate, RestPolicy.REPRESENT_ZERO), seq))
    return parts


def draw_spans(draw, parts, rate, kinds):
    """Spans of the parts in the layout of ``experiments._span_segments``:
    sample windows, which start or end between ticks at rate 5/2, and
    prefixes of whole quarter notes, whose samples may run past the window."""
    spans = []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(parts) - 1))
        signal, seq = parts[i]
        kind = draw(st.sampled_from(kinds))
        if seq.total_duration_qn >= 1 and draw(st.booleans()):
            whole = draw(st.integers(1, int(seq.total_duration_qn)))
            spans.append((i, 0, whole, kind, math.ceil(whole * rate)))
        else:
            a = draw(st.integers(0, signal.size - 1))
            b = draw(st.integers(a + 1, min(signal.size, a + 12)))
            spans.append((i, a / rate, b / rate, kind, b - a))
    return spans


def span_samples(parts, span, rate):
    """A span's samples of its part, before its variation."""
    i, begin, _, _, length = span
    start = int(begin * rate)
    return parts[i][0][start : start + length]


class TestSpansMatchReference:
    """The block stages of the invention path (every span varied, filtered,
    segmented and cut at once, LBDM on the spans' notes laid out like their
    samples) against ``part_span``, each span on its own."""

    @pytest.mark.parametrize("method", list(SegMethod), ids=lambda m: m.value)
    @settings(max_examples=oracle_examples(80), deadline=None)
    @given(data=st.data())
    def test_block_segments_match_each_span(self, method, data):
        draw = data.draw
        rate = draw(st.sampled_from([Fraction(8), Fraction(5, 2), Fraction(2)]))
        parts = note_parts(draw, rate)
        spans = draw_spans(draw, parts, rate, list(VariationKind))
        support, rep_support = draw(st.sampled_from([2, 4])), draw(st.sampled_from([2, 4]))
        param = {SegMethod.NONE: None, SegMethod.LBDM: draw(st.sampled_from([0.0, 0.2, 0.5]))}
        segmentation = Segmentation(method, param.get(method, support / rate))
        config = ExperimentConfig(
            representation=draw(st.sampled_from(list(Representation))),
            wavelet_rep_scale_qn=rep_support / rate, segmentation=segmentation, rate=rate,
            zero_rest_renormalize=draw(st.booleans()),
        )
        lbdm = segmentation.method is SegMethod.LBDM
        expected, counts, error = [], [], None
        try:
            for span in spans:
                part_seq = parts[span[0]][1]
                span_seq = part_seq.slice(span[1], span[2]) if lbdm else None
                rep, boundaries = seg_ref.part_span(
                    span_samples(parts, span, rate), span_seq, span[3], config
                )
                cut = seg_ref.cut_segments(rep, boundaries)
                if config.representation is Representation.PITCH:
                    norm = _normalizer(config)
                    cut = [(seg_ref.mean_normalize if norm is mean_normalize else norm)(s)
                           for s in cut]
                expected += cut
                counts.append(len(cut))
        except ValueError as exc:  # a span too short for a support
            error = str(exc)
        values = np.concatenate([
            apply_variation(span_samples(parts, span, rate), span[3]) for span in spans
        ])
        if error is not None:
            with pytest.raises(ValueError) as raised:
                experiments._span_segments(values, parts, spans, config)
            assert str(raised.value) == error
            return
        segments, got_counts = experiments._span_segments(values, parts, spans, config)
        assert got_counts.tolist() == counts
        assert [s.tobytes() for s in segments] == [s.tobytes() for s in expected]
        # so the boundaries are the same, span by span
        edges = np.cumsum([0, *(s.size for s in segments)])
        assert edges.tobytes() == np.cumsum([0, *(s.size for s in expected)]).tobytes()


def trace_tuples(traces):
    return [(t.item_id, t.true_label, t.predicted_label, t.nearest_distance) for t in traces]


def bach_reference(works, config, contrapuntal):
    """Per-section traces of the invention protocol by the oracles: each
    section equalized on its own at the run's target length, then decided
    row by row and voted on."""
    parts = work_parts(works, config)
    variations = list(VariationKind) if contrapuntal else [VariationKind.PRIME]
    prefix = math.ceil(16 * config.rate)  # the default classifier prefix of 16 qn, in samples
    cls_segments, cls_labels = [], []
    for work, (upper, lower) in zip(works, parts):
        for (signal, seq), variation in itertools.product((upper, lower), variations):
            cut = reference_segments(signal[:prefix], seq.slice(0, 16), variation, config)
            label = (work.work_id, variation.value) if contrapuntal else work.work_id
            cls_segments += cut
            cls_labels += [label] * len(cut)
    sections = []
    for work, (upper, lower) in zip(works, parts):
        for j, (a, b) in enumerate(split_section_spans(upper[0].size, config.rate)):
            segments = []
            for signal, seq in (upper, lower):
                span_seq = seq.slice(Fraction(a) / config.rate, Fraction(b) / config.rate)
                segments += reference_segments(signal[a:b], span_seq, VariationKind.PRIME, config)
            sections.append((f"{work.work_id}/s{j}", work.work_id, segments))
    target = max(len(s) for s in cls_segments + [s for *_, segs in sections for s in segs])
    corpus = reference_equalize(cls_segments, cls_labels, config.equalization, target)
    expected = []
    for item_id, work_id, segments in sections:
        rows = reference_equalize(segments, [work_id] * len(segments), config.equalization, target)
        distances = pairwise_distances(rows.rows, corpus.rows, config.metric).tolist()
        predictions = [oracle_decide(row, corpus.labels, 1) for row in distances]
        predicted = oracle_vote(predictions, distances)
        if contrapuntal:
            predicted = predicted[0]
        expected.append((item_id, work_id, predicted, min(map(min, distances))))
    return expected


def uniform_family_corpus():
    """Three families whose songs repeat the exact same motifs."""
    motifs = {
        "fam0": [60, 64, 67, 64, 60, 62, 64, 62],
        "fam1": [72, 70, 69, 67, 69, 70, 72, 74],
        "fam2": [55, 60, 55, 62, 55, 64, 55, 65],
    }
    songs = []
    for family, pitches in motifs.items():
        for v in range(4):
            notes = [(i, 1, p) for i, p in enumerate(pitches * 5)]
            songs.append(FolkSong(f"{family}v{v}", family, make_sequence(notes)))
    return FolkCorpus(tuple(songs))


class TestFolkUnsegmented:
    def test_identical_vectors_hit_family(self):
        corpus = uniform_family_corpus()
        config = ExperimentConfig(
            representation=Representation.PITCH,
            segmentation=NO_SEGMENTATION,
            rest_policy=RestPolicy.REMOVE,
        )
        (report,) = run_folk_unsegmented(corpus, config, (16, 32), 256)  # vr takes no support
        assert report.accuracy == 1.0
        assert report.param is None
        assert len(report.traces) == len(corpus)

    def test_wavelet_route(self):
        corpus = uniform_family_corpus()
        config = ExperimentConfig(
            representation=Representation.WAVELET,
            segmentation=NO_SEGMENTATION,
            rest_policy=RestPolicy.REMOVE,
        )
        reports = run_folk_unsegmented(corpus, config, (16, 4), 256)
        assert [r.param for r in reports] == [16, 4]
        assert [r.accuracy for r in reports] == [1.0, 1.0]
        assert all(len(r.traces) == len(corpus) for r in reports)

    def test_segmented_fields_are_not_read(self):
        # segmentation, rate, representation scale and equalization
        corpus = synthetic_tune_families(2, n_families=3, min_variants=3, max_variants=3)
        segmented = ExperimentConfig(
            wavelet_rep_scale_qn=Fraction(1, 2),
            segmentation=Segmentation(SegMethod.WS_LOCAL_MAX, 1),
            rate=Fraction(4),
            equalization=Equalization.INTERPOLATE,
            rest_policy=RestPolicy.REMOVE,
        )
        whole = ExperimentConfig(segmentation=NO_SEGMENTATION, rest_policy=RestPolicy.REMOVE)
        reports = run_folk_unsegmented(corpus, segmented, (2, 3, 16), 128)
        assert reports == run_folk_unsegmented(corpus, whole, (2, 3, 16), 128)
        assert [(r.segmentation, r.equalization) for r in reports] == [(SegMethod.NONE, None)] * 3

    def test_length_must_be_positive(self):
        config = ExperimentConfig(segmentation=NO_SEGMENTATION)
        with pytest.raises(ConfigError, match="fixed length must be positive"):
            run_folk_unsegmented(uniform_family_corpus(), config, (2,), 0)

    def test_default_length_is_1024(self):
        corpus = uniform_family_corpus()
        config = ExperimentConfig(
            representation=Representation.PITCH,
            segmentation=NO_SEGMENTATION,
            rest_policy=RestPolicy.REMOVE,
        )
        (report,) = run_folk_unsegmented(corpus, config, ())
        assert report.accuracy == 1.0

    def test_failing_support_reports_its_error(self):
        config = ExperimentConfig(segmentation=NO_SEGMENTATION, rest_policy=RestPolicy.REMOVE)
        reports = run_folk_unsegmented(uniform_family_corpus(), config, (3, 4, 256), 64)
        assert [r.error for r in reports] == [
            "wavelet support must be an even integer >= 2, got 3",
            None,
            "signal too short for the scale: support 256 exceeds twice the signal length 64",
        ]
        assert reports[1].accuracy == 1.0
        assert [len(r.traces) for r in reports] == [0, 12, 0]

    def test_song_without_notes_rejected(self):
        # every song can be sampled: a song without notes, even one that
        # lasts, cannot be made
        for total in (0, 4):
            with pytest.raises(ValueError, match="^song empty has no notes$"):
                FolkSong("empty", "fam0", make_sequence([], total=total))

    @pytest.mark.parametrize("n_songs", [0, 1])
    def test_too_few_songs_error_per_support(self, n_songs):
        corpus = FolkCorpus(uniform_family_corpus().songs[:n_songs])
        config = ExperimentConfig(segmentation=NO_SEGMENTATION)
        reports = run_folk_unsegmented(corpus, config, (2, 3), 64)
        assert [(r.param, r.accuracy, r.error) for r in reports] == [
            (support, None, "leave-one-out needs at least two songs") for support in (2, 3)
        ]

    def test_songs_resampled_once_for_the_sweep(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return resample_to_length(*args)

        monkeypatch.setattr(experiments, "resample_to_length", counting)
        corpus = synthetic_tune_families(2, n_families=3, min_variants=3, max_variants=3)
        config = ExperimentConfig(segmentation=NO_SEGMENTATION, rest_policy=RestPolicy.REMOVE)
        supports = (2, 8, 32)
        reports = run_folk_unsegmented(corpus, config, supports)
        assert calls == [(song.seq, 1024, RestPolicy.REMOVE) for song in corpus.songs]
        for support, report in zip(supports, reports, strict=True):
            (single,) = run_folk_unsegmented(corpus, config, (support,))
            assert single == report


class TestFolkSegmented:
    def test_shared_motifs_classify_perfectly(self):
        (report,) = run_folk_segmented(uniform_family_corpus(), ws_config(1))
        assert report.accuracy == 1.0

    def test_k1_equals_k2(self):
        corpus = synthetic_tune_families(3, n_families=5)
        k1, k2 = run_folk_segmented(corpus, ws_config(1), (1, 2))
        assert (k1.k, k2.k) == (1, 2)
        assert k1.accuracy == k2.accuracy
        assert [t.predicted_label for t in k1.traces] == [t.predicted_label for t in k2.traces]

    def test_matches_naive_per_fold_route(self):
        corpus = synthetic_tune_families(7, n_families=3, min_variants=3, max_variants=4)
        for config, k in ((ws_config(2), 3), (ws_config(2, metric=Metric.EUCLIDEAN), 1)):
            segments, owners = [], []
            for song in corpus.songs:
                signal = sample_pitch_signal(song.seq, config.rate, config.rest_policy)
                cut = reference_segments(signal, None, VariationKind.PRIME, config)
                segments += cut
                owners += [song] * len(cut)
            matrix = reference_equalize(
                segments, [song.family for song in owners], config.equalization
            )
            (fast,) = run_folk_segmented(corpus, config, (k,))
            correct = 0
            for song in corpus.songs:
                keep = [i for i, owner in enumerate(owners) if owner is not song]
                mine = [i for i, owner in enumerate(owners) if owner is song]
                labels = tuple(matrix.labels[i] for i in keep)
                rows = pairwise_distances(
                    matrix.rows[mine], matrix.rows[keep], config.metric
                ).tolist()
                predictions = [oracle_decide(row, labels, k) for row in rows]
                if oracle_vote(predictions, rows) == song.family:
                    correct += 1
            assert fast.accuracy == pytest.approx(correct / len(corpus))

    def test_lbdm_route(self):
        corpus = synthetic_tune_families(5, n_families=3, min_variants=3, max_variants=4)
        config = ExperimentConfig(
            representation=Representation.WAVELET,
            segmentation=Segmentation(SegMethod.LBDM, 0.3),
            rest_policy=RestPolicy.REMOVE,
        )
        (report,) = run_folk_segmented(corpus, config)
        assert 0 <= report.accuracy <= 1
        assert report.param == 0.3

    def test_unsupported_segmentation_rejected(self):
        with pytest.raises(ConfigError, match="ws-max or lbdm"):
            run_folk_segmented(
                uniform_family_corpus(),
                ExperimentConfig(segmentation=Segmentation(SegMethod.WS_ZERO_CROSS, 1)),
            )

    @pytest.mark.parametrize("equalization", list(Equalization))
    @pytest.mark.parametrize("metric", list(Metric))
    def test_all_zero_rows_fall_back_to_corpus_order(self, equalization, metric):
        # single-note songs: every mean-normalized vr segment is all zero, so
        # every distance ties at 0 and the neighbors are the other songs in
        # corpus order; the first six songs share a family, so every k up to
        # 5 predicts the family of the first other song
        families = ["fam0"] * 6 + ["fam1"] * 3 + ["fam2"] * 3
        corpus = FolkCorpus(tuple(
            FolkSong(f"s{i}", family, make_sequence([(0, 2 + i % 4, 50 + 3 * i)]))
            for i, family in enumerate(families)
        ))
        config = ExperimentConfig(
            representation=Representation.PITCH,
            segmentation=Segmentation(SegMethod.WS_LOCAL_MAX, Fraction(1)),
            equalization=equalization,
            metric=metric,
        )
        for song in corpus.songs:
            signal = sample_pitch_signal(song.seq, config.rate, config.rest_policy)
            segments = reference_segments(signal, None, VariationKind.PRIME, config)
            assert not any(segment.any() for segment in segments)
        reports = run_folk_segmented(corpus, config, ALL_KS)
        first_other = [corpus.songs[1 if i == 0 else 0].family for i in range(len(corpus))]
        for report in reports:
            assert [t.predicted_label for t in report.traces] == first_other
            assert all(t.nearest_distance == 0.0 for t in report.traces)
            assert report.accuracy == 0.5

    @pytest.mark.parametrize("order, error", [
        ((0, 1, 2), "support 32 exceeds twice the signal length 12"),
        ((0, 2, 1), "support 16 exceeds twice the signal length 4"),
    ], ids=["boundaries-of-mid", "representation-of-short"])
    def test_first_failing_song_raises_its_first_stage_error(self, order, error):
        # wr at 2 qn (support 16), ws-max at 4 qn (support 32), 8 samples per
        # qn: the 1.5 qn song fails only at its boundaries, the 0.5 qn song
        # at both stages, its representation first; songs fail in corpus order
        songs = (
            uniform_family_corpus().songs[0],
            FolkSong("mid", "fam0", make_sequence([(0, Fraction(3, 2), 60)])),
            FolkSong("short", "fam1", make_sequence([(0, Fraction(1, 2), 60)])),
        )
        config = ExperimentConfig(
            wavelet_rep_scale_qn=Fraction(2),
            segmentation=Segmentation(SegMethod.WS_LOCAL_MAX, Fraction(4)),
            rest_policy=RestPolicy.REMOVE,
        )
        with pytest.raises(ValueError, match=f"^signal too short for the scale: {error}$"):
            run_folk_segmented(FolkCorpus(tuple(songs[i] for i in order)), config)

    def test_traces_rescore(self):
        corpus = synthetic_tune_families(11, n_families=4, min_variants=3, max_variants=4)
        (report,) = run_folk_segmented(corpus, ws_config(1))
        rescored = np.mean([t.true_label == t.predicted_label for t in report.traces])
        assert report.accuracy == pytest.approx(rescored)


def folk_reference(corpus, config, ks):
    """k -> the leave-one-out traces of one folk cell by the oracles: the
    cell's equalized matrix, then per song the distances of its rows to
    every other song's rows, decided row by row and voted on. A failing
    stage raises the first failing song's error, as the cell reports it."""
    segments, owners = [], []
    for i, song in enumerate(corpus.songs):
        signal = sample_pitch_signal(song.seq, config.rate, config.rest_policy)
        cut = reference_segments(signal, song.seq, VariationKind.PRIME, config)
        segments += cut
        owners += [i] * len(cut)
    matrix = reference_equalize(
        segments, [corpus.songs[i].family for i in owners], config.equalization
    )
    traces = {k: [] for k in ks}
    for i, song in enumerate(corpus.songs):
        mine = [r for r, owner in enumerate(owners) if owner == i]
        keep = [r for r, owner in enumerate(owners) if owner != i]
        labels = tuple(matrix.labels[r] for r in keep)
        rows = pairwise_distances(matrix.rows[mine], matrix.rows[keep], config.metric).tolist()
        for k in ks:
            predicted = oracle_vote([oracle_decide(row, labels, k) for row in rows], rows)
            traces[k].append((song.song_id, song.family, predicted, min(map(min, rows))))
    return traces


@st.composite
def tiny_tune_families(draw):
    """2-4 families of 2-4 songs. A song repeats its family's motif
    outright or transposed, or is a single note (all-zero vr rows); notes
    may be separated by rests."""
    songs = []
    for f in range(draw(st.integers(2, 4))):
        motif = draw(st.lists(
            st.tuples(st.integers(1, 4), st.integers(55, 70), st.integers(0, 1)),
            min_size=2, max_size=5,
        ))
        for v in range(draw(st.integers(2, 4))):
            kind = draw(st.sampled_from(["repeat", "transpose", "single"]))
            if kind == "single":
                notes = [(0, Fraction(draw(st.integers(1, 8)), 2), draw(st.integers(50, 70)))]
            else:
                shift = draw(st.integers(-5, 5)) if kind == "transpose" else 0
                notes, onset = [], Fraction(0)
                for duration, pitch, rest in motif * 2:
                    onset += Fraction(rest, 2)
                    notes.append((onset, Fraction(duration, 2), pitch + shift))
                    onset += Fraction(duration, 2)
            songs.append(FolkSong(f"f{f}v{v}", f"fam{f}", make_sequence(notes)))
    return FolkCorpus(tuple(songs))


def redivided(corpus, divisions):
    """The corpus with its songs' ticks over ``divisions``, in turn: the
    same notes over finer grids."""
    songs = []
    for song, division in zip(corpus.songs, itertools.cycle(divisions)):
        seq = song.seq
        scale, rest = divmod(division, seq.division)
        assert rest == 0, f"{division} is no multiple of {seq.division}"
        notes = NoteSequence(
            seq.onsets * scale, seq.ends * scale, seq.pitches, division, seq.total * scale
        )
        songs.append(FolkSong(song.song_id, song.family, notes))
    return FolkCorpus(tuple(songs))


class TestReferenceRoute:
    @settings(max_examples=oracle_examples(8), deadline=None)
    @given(
        tiny_tune_families(), st.sampled_from(list(RestPolicy)),
        st.sampled_from([1, 2]), st.sampled_from([0.1, 0.4]), st.booleans(),
    )
    def test_grid_traces_match_per_fold_oracles(self, corpus, rests, scale, threshold, redivide):
        # redivided songs lay their notes over their least divisions: the
        # grid reports equal those of the songs over their least divisions
        base = ExperimentConfig(rest_policy=rests)
        run = partial(grid_search, base_config=base, scales=(scale,), thresholds=(threshold,),
                      ks=ALL_KS, record_traces=True)
        reports = run(corpus)
        if redivide:
            corpus = redivided(corpus, (96, 480, 1024))
            assert run(corpus) == reports
        configs = _grid_configs(base, (scale,), (threshold,))
        assert len(reports) == len(configs) * len(ALL_KS)
        for c, config in enumerate(configs):
            cell = reports[c * len(ALL_KS) : (c + 1) * len(ALL_KS)]
            try:
                expected = folk_reference(corpus, config, ALL_KS)
            except ValueError as exc:
                assert [r.error for r in cell] == [str(exc)] * len(ALL_KS)
                continue
            for report, k in zip(cell, ALL_KS):
                assert report.k == k and report.error is None
                assert trace_tuples(report.traces) == expected[k]


class TestGridSearch:
    def test_default_space_has_640_cells(self):
        configs = _grid_configs(
            ExperimentConfig(rest_policy=RestPolicy.REMOVE),
            DYADIC_SCALES_QN,
            LBDM_THRESHOLDS,
        )
        assert len(configs) == 128  # x 5 values of k = 640 reported cells
        assert len(ALL_KS) * len(configs) == 640

    def test_small_grid_runs_and_orders_cells(self):
        corpus = synthetic_tune_families(2, n_families=3, min_variants=3, max_variants=4)
        reports = grid_search(corpus, scales=(1,), thresholds=(0.4,), ks=(1, 2))
        assert len(reports) == 2 * 2 * 1 * 2 * 2 * 2
        first = reports[0]
        assert first.representation is Representation.WAVELET
        assert first.segmentation is SegMethod.WS_LOCAL_MAX
        assert (first.equalization, first.metric, first.k) == (
            Equalization.ZERO_PAD, Metric.CITYBLOCK, 1,
        )
        for r in reports:
            assert r.error is None and 0 <= r.accuracy <= 1

    def test_wr_ws_ties_representation_scale(self):
        configs = _grid_configs(
            ExperimentConfig(rest_policy=RestPolicy.REMOVE), (4,), (0.2,)
        )
        wr_ws = [
            c for c in configs
            if c.representation is Representation.WAVELET
            and c.segmentation.method is SegMethod.WS_LOCAL_MAX
        ]
        assert all(
            c.wavelet_rep_scale_qn == 4 and c.segmentation.param == 4 for c in wr_ws
        )
        wr_lbdm = [
            c for c in configs
            if c.representation is Representation.WAVELET
            and c.segmentation.method is SegMethod.LBDM
        ]
        assert all(c.wavelet_rep_scale_qn == 1 for c in wr_lbdm)

    @pytest.mark.parametrize("ks, message", [
        ((1, 1), "k values must be distinct, got 1, 1"),
        ((2, 7), "k must be in 1..5, got 7"),
        ((0,), "k must be in 1..5, got 0"),
        ((), "k values must not be empty"),
    ])
    def test_ks_distinct_and_in_range(self, ks, message):
        # a repeated k used to score each song once per repeat (accuracy 2.0)
        corpus = synthetic_tune_families(2, n_families=2, min_variants=2, max_variants=2)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            grid_search(corpus, scales=(1,), thresholds=(), ks=ks)

    def test_error_cells_reported(self):
        # songs far too short for a 128 qn support
        songs = tuple(
            FolkSong(f"s{i}", f"fam{i % 2}", make_sequence([(j, 1, 60 + j) for j in range(8)]))
            for i in range(4)
        )
        reports = grid_search(FolkCorpus(songs), scales=(128,), thresholds=(), ks=(1,))
        assert reports, "expected error cells"
        assert all(r.accuracy is None and "too short" in r.error for r in reports)

    def test_stages_run_once_and_cells_match_single_runs(self, monkeypatch):
        corpus = synthetic_tune_families(2, n_families=3, min_variants=3, max_variants=3)
        calls: dict[str, list] = {}

        def counting(name):
            func = getattr(experiments, name)

            def wrapper(*args):
                calls.setdefault(name, []).append(args)
                return func(*args)

            monkeypatch.setattr(experiments, name, wrapper)

        for name in ("sample_pitch_signal", "zero_crossing_boundaries",
                     "local_maxima_boundaries", "constant_boundaries", "lbdm_boundaries"):
            counting(name)
        base = ExperimentConfig(rest_policy=RestPolicy.REMOVE)
        reports = grid_search(corpus, base, scales=(1, 2), thresholds=(0.4,), ks=(1, 2),
                              record_traces=True)
        seqs = [song.seq for song in corpus.songs]
        assert [args[0] for args in calls["sample_pitch_signal"]] == seqs
        # one call per representation (wr, vr) of each group, for all songs at once
        assert len(calls["local_maxima_boundaries"]) == 4  # scales 1 and 2
        assert [args[1] for args in calls["lbdm_boundaries"]] == [0.4, 0.4]
        for notes, *_ in calls["lbdm_boundaries"]:  # every song's notes, laid end to end
            assert notes.pitches.tolist() == [p for seq in seqs for p in seq.pitches.tolist()]
        assert "zero_crossing_boundaries" not in calls and "constant_boundaries" not in calls

        configs = _grid_configs(base, (1, 2), (0.4,))
        for config, k in (
            (next(c for c in configs if c.representation is Representation.PITCH
                  and c.segmentation.param == 2 and c.equalization is Equalization.INTERPOLATE
                  and c.metric is Metric.EUCLIDEAN), 2),
            (next(c for c in configs if c.segmentation.method is SegMethod.LBDM), 1),
        ):
            (single,) = run_folk_segmented(corpus, config, (k,))
            assert single == reports[2 * configs.index(config) + k - 1]

    def test_failing_stage_fails_every_cell_that_shares_it(self):
        # a 1.5 qn song (12 samples) is too short for ws-max at 4 qn (support
        # 32): the wr cells fail at its representation and the vr cells at
        # its boundaries, with one message; the LBDM cells run
        mid = FolkSong("mid", "fam0", make_sequence([(0, Fraction(3, 2), 60)]))
        songs = uniform_family_corpus().songs
        corpus = FolkCorpus((*songs[:5], mid, *songs[5:]))
        reports = grid_search(corpus, scales=(4,), thresholds=(0.4,), ks=(1, 2))
        ws = [r for r in reports if r.segmentation is SegMethod.WS_LOCAL_MAX]
        lbdm = [r for r in reports if r.segmentation is SegMethod.LBDM]
        assert len(ws) == len(lbdm) == 16
        error = "signal too short for the scale: support 32 exceeds twice the signal length 12"
        assert all((r.accuracy, r.error) == (None, error) for r in ws)
        assert all(r.error is None and 0 <= r.accuracy <= 1 for r in lbdm)

    def test_performance_timed_songs_at_coprime_divisions(self):
        # performance timing: every song's division is its least one, prime
        # and near 2**15, so the LBDM layout's division (their lcm times 8)
        # is 48 bits and its 576 samples overrun 53-bit ticks; ws-max reads
        # no notes and runs
        rng = np.random.default_rng(7)
        songs = []
        for i, division in enumerate((32749, 32719, 32717) * 3):
            ends = np.cumsum(rng.integers(division // 2, 2 * division, 8))
            onsets = np.append(0, ends[:-1] + rng.integers(0, division // 4, 7))
            seq = NoteSequence(onsets, ends, rng.integers(55, 72, 8), division, int(ends[-1]))
            songs.append(FolkSong(f"s{i}", f"fam{i % 3}", seq))
        reports = grid_search(FolkCorpus(tuple(songs)), scales=(1,), thresholds=(0.4,), ks=(1,))
        ws = [r for r in reports if r.segmentation is SegMethod.WS_LOCAL_MAX]
        lbdm = [r for r in reports if r.segmentation is SegMethod.LBDM]
        assert len(ws) == len(lbdm) == 8
        assert all(r.error is None and 0 <= r.accuracy <= 1 for r in ws)
        assert all(r.error == "note timing does not fit in 53-bit ticks" for r in lbdm)

    @pytest.mark.parametrize("jobs, scales, workers", [
        (4, (1,), []), (4, (1, 2), [2]), (2, (1, 2, 4), [2]), (1, (1, 2), []),
    ])
    def test_at_most_one_worker_per_group(self, jobs, scales, workers, monkeypatch):
        started = []

        class Pool:  # runs the groups in this process and records its size
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Pool)
        corpus = synthetic_tune_families(4, n_families=2, min_variants=2, max_variants=2)
        serial = grid_search(corpus, scales=scales, thresholds=(), ks=(1,))
        assert grid_search(corpus, scales=scales, thresholds=(), ks=(1,), jobs=jobs) == serial
        assert started == workers

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        corpus = synthetic_tune_families(2, n_families=2, min_variants=2, max_variants=2)
        with pytest.raises(ConfigError, match=f"^jobs must be at least 1, got {jobs}$"):
            grid_search(corpus, scales=(1,), thresholds=(), ks=(1,), jobs=jobs)

    def test_jobs_produce_identical_reports(self):
        corpus = synthetic_tune_families(4, n_families=3, min_variants=3, max_variants=4)
        serial = grid_search(corpus, scales=(1, 2), thresholds=(0.3,), ks=(1,))
        parallel = grid_search(corpus, scales=(1, 2), thresholds=(0.3,), ks=(1,), jobs=4)
        assert serial == parallel


class TestLoaders:
    def test_bach_corpus_round_trip(self, tmp_path, works):
        for work in works[:4]:
            data = write_standard_midi([work.upper, work.lower], division=480)
            (tmp_path / f"{work.work_id}.mid").write_bytes(data)
        loaded = load_bach_corpus(tmp_path)
        assert [w.work_id for w in loaded] == [w.work_id for w in works[:4]]
        for got, expected in zip(loaded, works[:4]):
            assert got.upper.events == expected.upper.events
            assert got.lower.events == expected.lower.events

    def test_folk_corpus_round_trip(self, tmp_path):
        corpus = synthetic_tune_families(6, n_families=2, min_variants=3, max_variants=3)
        lines = ["filename,family"]
        for song in corpus.songs:
            (tmp_path / f"{song.song_id}.mid").write_bytes(write_standard_midi(song.seq))
            lines.append(f"{song.song_id}.mid,{song.family}")
        manifest = tmp_path / "labels.csv"
        manifest.write_text("\n".join(lines) + "\n")
        loaded = load_folk_corpus(tmp_path, manifest)
        assert len(loaded) == len(corpus)
        by_id = {s.song_id: s for s in corpus.songs}
        for song in loaded.songs:
            assert song.family == by_id[song.song_id].family
            assert song.seq.events == by_id[song.song_id].seq.events

    def test_duplicate_manifest_row_rejected(self, tmp_path):
        corpus = synthetic_tune_families(6, n_families=2, min_variants=2, max_variants=2)
        for song in corpus.songs:
            (tmp_path / f"{song.song_id}.mid").write_bytes(write_standard_midi(song.seq))
        first, second = corpus.songs[:2]
        manifest = tmp_path / "labels.csv"
        manifest.write_text(
            f"{first.song_id}.mid,{first.family}\n{second.song_id}.mid,{second.family}\n"
            f"{first.song_id}.mid,{second.family}\n"
        )
        with pytest.raises(ValueError, match=f"lists song {first.song_id} more than once"):
            load_folk_corpus(tmp_path, manifest)

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_folk_corpus(tmp_path, tmp_path / "nope.csv")

    def test_manifest_missing_midi(self, tmp_path):
        manifest = tmp_path / "labels.csv"
        manifest.write_text("filename,family\nmissing.mid,fam0\n")
        with pytest.raises(FileNotFoundError, match="missing"):
            load_folk_corpus(tmp_path, manifest)

    def test_noteless_song_names_the_file(self, tmp_path):
        (tmp_path / "silent.mid").write_bytes(smf(480, [track_chunk(b"")]))
        manifest = tmp_path / "labels.csv"
        manifest.write_text("filename,family\nsilent.mid,fam0\n")
        with pytest.raises(MidiError, match="silent.mid: the file contains no notes"):
            load_folk_corpus(tmp_path, manifest)

    def test_noteless_voice_names_the_file(self, tmp_path, works):
        work = works[0]
        path = tmp_path / f"{work.work_id}.mid"
        path.write_bytes(write_standard_midi([work.upper, work.lower], division=480))
        with pytest.raises(MidiError, match=f"{work.work_id}.mid: track 7 contains no notes"):
            load_bach_corpus(tmp_path, "track:0", "track:7")

    def test_empty_corpus_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no MIDI files"):
            load_bach_corpus(tmp_path)


class TestSyntheticCorpora:
    def test_tune_family_shape(self):
        corpus = synthetic_tune_families(0)
        assert len({song.family for song in corpus.songs}) == 26
        counts = {}
        for song in corpus.songs:
            counts[song.family] = counts.get(song.family, 0) + 1
        assert all(10 <= c <= 15 for c in counts.values())
        assert all(s.seq.total_duration_qn >= 32 for s in corpus.songs)

    def test_deterministic_per_seed(self):
        a = synthetic_tune_families(9, n_families=3)
        b = synthetic_tune_families(9, n_families=3)
        assert a == b
        assert synthetic_tune_families(10, n_families=3) != a

    def test_inventions_shape(self, works):
        assert len(works) == 15
        for work in works:
            assert work.upper.end_qn > 16
            assert work.lower.end_qn > 16


class TestTieBlock:
    @settings(max_examples=oracle_examples(300), deadline=None)
    @given(
        st.one_of(streamed_corpora(), padded_items()), st.sampled_from(list(Metric)),
        st.booleans(), st.booleans(),
    )
    def test_usable_block_matches_full_block(self, corpus, metric, held_out, apart):
        # each item's tie block, measured on distinct rows and trimmed to the
        # item's rows, equals the full block at each distinct corpus row, and
        # each distinct row stands for its copies outside the item: so each
        # row pools the finite distances of the full block, own rows at +inf,
        # and one distance per usable corpus row
        matrix, _, offsets = corpus
        groups = distinct_rows(matrix)
        queries = distinct_rows(matrix) if apart else groups
        bounds = offsets if held_out else np.zeros_like(offsets)
        for i, (a, b) in enumerate(zip(offsets.tolist(), offsets[1:].tolist())):
            ids, items = queries.ids[a:b], np.full(b - a, i)
            block, weight = experiments._tie_block(queries, ids, items, groups, bounds, metric)
            excluded = slice(a, b) if held_out else slice(0, 0)
            full = oracle_item_block(queries, ids, groups, excluded, metric)
            assert weight.sum(axis=1).tolist() == [len(matrix) - (b - a) * held_out] * (b - a)
            whole = oracle_item_block(queries, ids, groups, slice(0, 0), metric)
            assert np.array_equal(block[:, groups.ids], whole, equal_nan=True)
            for got, count, want in zip(block, weight, full):
                got = np.repeat(got, count)
                got, want = (np.sort(row[np.isfinite(row)]) for row in (got, want))
                assert got.tobytes() == want.tobytes()
