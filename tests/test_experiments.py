"""Experiment harnesses: invention sections, tune families, grid search."""

from fractions import Fraction

import numpy as np
import pytest

from melowave import experiments
from melowave.classifier import Metric, pairwise_distances
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
    _equalize,
    _grid_configs,
    _span_segments,
    _test_segment_items,
    _work_signals,
    classifier_segments,
    grid_search,
    run_bach_experiment,
    run_folk_segmented,
    run_folk_unsegmented,
    split_section_spans,
)
from melowave.ingest import MidiError, write_standard_midi
from melowave.segmentation import equalize_zero_pad
from melowave.signals import RestPolicy, resample_to_length, sample_pitch_signal

from conftest import make_sequence, smf, track_chunk
from test_classifier import oracle_decide, oracle_vote

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
            _test_segment_items([work], work_parts([work], config), config)

    def test_work_level(self):
        # both parts share the longer part's sampled length: 40 qn at rate 8
        work = BachWork(
            "w", make_sequence([(0, 40, 60)]), make_sequence([(0, 38, 55)])
        )
        config = ExperimentConfig(
            representation=Representation.PITCH, segmentation=NO_SEGMENTATION
        )
        items = _test_segment_items([work], work_parts([work], config), config)
        assert [(work_id, j, [s.size for s in segs]) for work_id, j, segs in items] == [
            ("w", 0, [64, 64]), ("w", 1, [64, 64]), ("w", 2, [64, 64]),
        ]


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

    def test_segmented_config_rejected(self):
        with pytest.raises(ConfigError, match="none"):
            run_folk_unsegmented(uniform_family_corpus(), ExperimentConfig(), (2,))

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

    def test_first_failing_song_first_error(self):
        # songs in corpus order; within a song, resample before filter
        songs = uniform_family_corpus().songs
        empty = FolkSong("empty", "fam0", make_sequence([], total=0))
        config = ExperimentConfig(segmentation=NO_SEGMENTATION, rest_policy=RestPolicy.REMOVE)
        odd = "wavelet support must be an even integer >= 2, got 3"
        zero = "sequence has zero duration, nothing to resample"
        for order, errors in (
            ((songs[0], empty, *songs[1:]), [odd, zero]),
            ((empty, *songs), [zero, zero]),
        ):
            reports = run_folk_unsegmented(FolkCorpus(order), config, (3, 4), 64)
            assert [r.error for r in reports] == errors

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
                cut = _span_segments(signal, None, config)
                segments += cut
                owners += [song] * len(cut)
            matrix = _equalize(segments, [song.family for song in owners], config.equalization)
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
            assert not any(segment.any() for segment in _span_segments(signal, None, config))
        reports = run_folk_segmented(corpus, config, ALL_KS)
        first_other = [corpus.songs[1 if i == 0 else 0].family for i in range(len(corpus))]
        for report in reports:
            assert [t.predicted_label for t in report.traces] == first_other
            assert all(t.nearest_distance == 0.0 for t in report.traces)
            assert report.accuracy == 0.5

    def test_traces_rescore(self):
        corpus = synthetic_tune_families(11, n_families=4, min_variants=3, max_variants=4)
        (report,) = run_folk_segmented(corpus, ws_config(1))
        rescored = np.mean([t.true_label == t.predicted_label for t in report.traces])
        assert report.accuracy == pytest.approx(rescored)


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
        assert len(calls["local_maxima_boundaries"]) == 2 * len(seqs)  # scales 1 and 2
        assert [args[:2] for args in calls["lbdm_boundaries"]] == [(seq, 0.4) for seq in seqs]
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
