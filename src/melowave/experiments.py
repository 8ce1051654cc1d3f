"""End-to-end classification experiments.

Two protocols are reproduced: identifying the parent work of sections of
two-part inventions from exposition material, and classifying folk tunes
into tune families with leave-one-out cross validation, including the full
grid search over representations, segmentations, equalizations, metrics
and neighbor counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Hashable, Sequence

import numpy as np

from .classifier import (
    LabeledCorpus,
    Metric,
    pairwise_distances,
    predict_from_distances,
    vote,
)
from .contrapuntal import VariationKind, apply_variation, transform_sequence
from .corpora import BachWork, FolkCorpus
from .ingest import NoteSequence
from .segmentation import (
    BoundarySet,
    Equalization,
    constant_boundaries,
    cut_segments,
    equalize_interpolate,
    equalize_zero_pad,
    lbdm_boundaries,
    local_maxima_boundaries,
    zero_crossing_boundaries,
)
from .signals import (
    RestPolicy,
    mean_normalize,
    mean_normalize_nonrest,
    sample_pitch_signal,
    resample_to_length,
)
from .wavelet import haar_filter, support_samples


class ConfigError(ValueError):
    """An experiment configuration combines parameters that cannot run."""


class Representation(Enum):
    PITCH = "vr"
    WAVELET = "wr"


class SegMethod(Enum):
    NONE = "none"
    WS_ZERO_CROSS = "ws-zc"
    WS_LOCAL_MAX = "ws-max"
    CONSTANT = "const"
    LBDM = "lbdm"


DYADIC_SCALES_QN: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
LBDM_THRESHOLDS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
ALL_KS: tuple[int, ...] = (1, 2, 3, 4, 5)
EXPOSITION_QN = 16

_WS_METHODS = (SegMethod.WS_ZERO_CROSS, SegMethod.WS_LOCAL_MAX)


@dataclass(frozen=True)
class Segmentation:
    """A segmentation method with its one parameter: the wavelet scale
    (ws-zc, ws-max) or grid step (const) in quarter notes as a Fraction, the
    LBDM threshold in [0, 1] as a float, and None for no segmentation."""

    method: SegMethod
    param: Fraction | float | None = None

    def __post_init__(self) -> None:
        method, param = self.method, self.param
        if method is SegMethod.NONE:
            if param is not None:
                raise ConfigError("segmentation none takes no parameter")
            return
        if param is None:
            raise ConfigError(f"segmentation {method.value} requires a parameter")
        if method is SegMethod.LBDM:
            param = float(param)
            if not 0 <= param <= 1:
                raise ConfigError(f"LBDM threshold must be in [0, 1], got {param}")
        else:
            param = Fraction(param)
        object.__setattr__(self, "param", param)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: sampling, representation, segmentation,
    equalization and metric. Protocol values (k, the invention prefix,
    contrapuntal classes) are arguments of the entry points."""

    representation: Representation = Representation.WAVELET
    wavelet_rep_scale_qn: Fraction = Fraction(1)
    segmentation: Segmentation = Segmentation(SegMethod.WS_ZERO_CROSS, Fraction(1))
    rest_policy: RestPolicy = RestPolicy.REPRESENT_ZERO
    rate: Fraction = Fraction(8)
    equalization: Equalization = Equalization.ZERO_PAD
    metric: Metric = Metric.CITYBLOCK
    zero_rest_renormalize: bool = False

    def __post_init__(self) -> None:
        for name in ("wavelet_rep_scale_qn", "rate"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.rate <= 0:
            raise ConfigError("rate must be positive")


def _check_ks(ks: Sequence[int]) -> None:
    """Reject a k sweep that is empty, repeats a k or leaves 1..5."""
    if not ks:
        raise ConfigError("k values must not be empty")
    if len(set(ks)) < len(ks):
        raise ConfigError(f"k values must be distinct, got {', '.join(map(str, ks))}")
    for k in ks:
        if not 1 <= k <= 5:
            raise ConfigError(f"k must be in 1..5, got {k}")


@dataclass(frozen=True)
class TraceRow:
    item_id: str
    true_label: str
    predicted_label: str
    nearest_distance: float


@dataclass(frozen=True)
class BachReport:
    """Per-section accuracies over the works plus their mean and sample
    standard deviation."""

    section_accuracies: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float
    traces: tuple[TraceRow, ...] = ()


@dataclass(frozen=True)
class FolkCellReport:
    """Accuracy (or the error that prevented it) for one parameter cell."""

    representation: Representation
    segmentation: SegMethod
    param: object
    equalization: Equalization | None
    metric: Metric
    k: int
    accuracy: float | None
    error: str | None = None
    traces: tuple[TraceRow, ...] = ()


def _normalizer(config: ExperimentConfig):
    if config.zero_rest_renormalize and config.rest_policy is RestPolicy.REPRESENT_ZERO:
        return mean_normalize_nonrest
    return mean_normalize


def find_boundaries(
    pitch_span: np.ndarray,
    span_seq: NoteSequence | None,
    segmentation: Segmentation,
    rate: Fraction,
) -> BoundarySet:
    """Boundaries of a pitch-signal span sampled at ``rate``; LBDM reads the
    span's note stream instead of its samples."""
    length = pitch_span.size
    method, param = segmentation.method, segmentation.param
    if method is SegMethod.NONE:
        return BoundarySet((0, length), length)
    if method in _WS_METHODS:
        coeffs = haar_filter(pitch_span, support_samples(param, rate))
        if method is SegMethod.WS_ZERO_CROSS:
            return zero_crossing_boundaries(coeffs)
        return local_maxima_boundaries(coeffs)
    if method is SegMethod.CONSTANT:
        return constant_boundaries(length, rate, param)
    if span_seq is None:
        raise ValueError("LBDM segmentation needs the note stream of the span")
    return lbdm_boundaries(span_seq, param, rate)


def _representation(pitch_span: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """The span in the config's representation, before segmentation."""
    if config.representation is Representation.WAVELET:
        return haar_filter(pitch_span, support_samples(config.wavelet_rep_scale_qn, config.rate))
    return np.asarray(pitch_span, dtype=float)


def _cut(rep: np.ndarray, boundaries: BoundarySet, config: ExperimentConfig) -> list[np.ndarray]:
    """Cut a represented span; pitch-signal segments are mean-normalized
    after the cut, wavelet segments are transposition-invariant already."""
    segments = cut_segments(rep, boundaries)
    if config.representation is Representation.PITCH:
        norm = _normalizer(config)
        segments = [norm(s) for s in segments]
    return segments


def _span_segments(
    pitch_span: np.ndarray, span_seq: NoteSequence | None, config: ExperimentConfig
) -> list[np.ndarray]:
    """Represent one span per the config, segment it and cut the segments."""
    rep = _representation(pitch_span, config)
    boundaries = find_boundaries(pitch_span, span_seq, config.segmentation, config.rate)
    return _cut(rep, boundaries, config)


def _equalize(
    segments: Sequence[np.ndarray],
    labels: Sequence,
    equalization: Equalization,
    target_len: int | None = None,
) -> LabeledCorpus:
    if equalization is Equalization.ZERO_PAD:
        return equalize_zero_pad(segments, labels, target_len)
    return equalize_interpolate(segments, labels, target_len)


# ---------------------------------------------------------------------------
# Experiment 1: sections of two-part inventions


def split_section_spans(length_samples: int, rate: int | Fraction) -> list[tuple[int, int]]:
    """Divide the samples after the exposition into three contiguous spans
    of equal size; the remainder goes to the final span."""
    exposition_end = math.ceil(EXPOSITION_QN * Fraction(rate))
    remaining = length_samples - exposition_end
    if remaining < 3:
        raise ValueError(
            f"work must extend beyond the {EXPOSITION_QN} qn exposition "
            f"to be divided into sections"
        )
    size = remaining // 3
    cuts = [exposition_end, exposition_end + size, exposition_end + 2 * size, length_samples]
    return list(zip(cuts, cuts[1:]))


def _work_signals(work: BachWork, config: ExperimentConfig):
    total = max(work.upper.end_qn, work.lower.end_qn)
    if total < EXPOSITION_QN:
        raise ValueError(f"{work.work_id}: work is shorter than the {EXPOSITION_QN} qn exposition")
    parts = []
    for seq in (work.upper, work.lower):
        extended = seq.with_total_duration(total)
        parts.append((sample_pitch_signal(extended, config.rate, config.rest_policy), extended))
    return parts


def _variant_inputs(
    span: np.ndarray,
    span_seq: NoteSequence | None,
    variation: VariationKind,
) -> tuple[np.ndarray, NoteSequence | None]:
    if variation is VariationKind.PRIME:
        return span, span_seq
    values = apply_variation(span, variation)
    if span_seq is not None and span_seq.events:
        span_seq = transform_sequence(span_seq, variation)
    return values, span_seq


def classifier_segments(
    works: Sequence[BachWork], parts: Sequence[list], config: ExperimentConfig,
    prefix_qn: int = 16, contrapuntal: bool = False,
) -> tuple[list[np.ndarray], list]:
    """Segments of the exposition prefixes of every part (``parts[i]`` holds
    work i's sampled parts) and their labels, with contrapuntal variants
    added as extra classes when ``contrapuntal`` is set."""
    prefix_samples = math.ceil(prefix_qn * config.rate)
    variations = tuple(VariationKind) if contrapuntal else (VariationKind.PRIME,)
    needs_notes = config.segmentation.method is SegMethod.LBDM
    segments: list[np.ndarray] = []
    labels: list = []
    for work, work_parts in zip(works, parts):
        for signal, seq in work_parts:
            span = signal[:prefix_samples]
            span_seq = seq.slice(0, prefix_qn) if needs_notes else None
            for variation in variations:
                values, vseq = _variant_inputs(span, span_seq, variation)
                label = (work.work_id, variation.value) if contrapuntal else work.work_id
                cut = _span_segments(values, vseq, config)
                segments += cut
                labels += [label] * len(cut)
    return segments, labels


def _test_segment_items(
    works: Sequence[BachWork], parts: Sequence[list], config: ExperimentConfig
) -> list[tuple[str, int, list[np.ndarray]]]:
    needs_notes = config.segmentation.method is SegMethod.LBDM
    items = []
    for work, work_parts in zip(works, parts):
        spans = split_section_spans(work_parts[0][0].size, config.rate)
        for j, (a, b) in enumerate(spans):
            segments: list[np.ndarray] = []
            for signal, seq in work_parts:
                span = signal[a:b]
                span_seq = (
                    seq.slice(Fraction(a) / config.rate, Fraction(b) / config.rate)
                    if needs_notes
                    else None
                )
                segments += _span_segments(span, span_seq, config)
            items.append((work.work_id, j, segments))
    return items


def run_bach_experiment(
    works: Sequence[BachWork], config: ExperimentConfig, prefix_qn: int = 16,
    contrapuntal: bool = False,
) -> BachReport:
    """Classify every section of every work by 1-NN against the corpus of
    the first ``prefix_qn`` quarter notes of every part, and report
    per-section-index accuracies. Each part is sampled once."""
    if prefix_qn not in (4, 8, 16):
        raise ConfigError(f"classifier prefix must be 4, 8 or 16 qn, got {prefix_qn}")
    parts = [_work_signals(work, config) for work in works]
    cls_segments, cls_labels = classifier_segments(works, parts, config, prefix_qn, contrapuntal)
    test_items = _test_segment_items(works, parts, config)
    target = max(
        max(len(s) for s in cls_segments),
        max(len(s) for _, _, segs in test_items for s in segs),
    )
    corpus = _equalize(cls_segments, cls_labels, config.equalization, target)
    n_sections = max(j for _, j, _ in test_items) + 1
    correct = [0] * n_sections
    traces = []
    for work_id, section, segments in test_items:
        rows = _equalize(segments, [work_id] * len(segments), config.equalization, target).rows
        distances = pairwise_distances(rows, corpus.rows, config.metric)
        row_labels = predict_from_distances(distances, corpus.labels, (1,))[1]
        predicted = vote(row_labels, distances)
        if contrapuntal:  # a (work, variation) class counts for its work
            predicted = predicted[0]
        if predicted == work_id:
            correct[section] += 1
        traces.append(
            TraceRow(f"{work_id}/s{section}", work_id, predicted, float(distances.min()))
        )
    accuracies = tuple(c / len(works) for c in correct)
    return BachReport(
        accuracies,
        float(np.mean(accuracies)),
        float(np.std(accuracies, ddof=1)),
        tuple(traces),
    )


# ---------------------------------------------------------------------------
# Experiment 2: folk tune families


# A folk cell reports these errors in place of its accuracy.
_CELL_ERRORS = (ValueError, ArithmeticError)


def _attempt(func, *args):
    """``func(*args)``, or the error that a grid cell would report for it."""
    try:
        return func(*args)
    except _CELL_ERRORS as exc:
        return exc


def _ok(result):
    """A stage's result; an error stored in its place is raised again,
    without the traceback that would keep its failed frames alive."""
    if isinstance(result, Exception):
        raise result.with_traceback(None)
    return result


def _once(memo: dict, key: Hashable, func, *args):
    """``func(*args)`` computed at the first call with ``key``; later calls
    return its result, or raise its error, again."""
    if key not in memo:
        memo[key] = _attempt(func, *args)
    return _ok(memo[key])


def _song_signals(corpus: FolkCorpus, config: ExperimentConfig) -> list:
    """Every song sampled at the config's rate and rest policy, an error in
    place of a song that cannot be sampled."""
    return [
        _attempt(sample_pitch_signal, song.seq, config.rate, config.rest_policy)
        for song in corpus.songs
    ]


def _cut_corpus(
    corpus: FolkCorpus, signals: list, boundaries: list, config: ExperimentConfig
) -> tuple[list[np.ndarray], list, np.ndarray]:
    """Segments of every song in corpus order, their families, and the row
    offsets of each song's segments. A failure raises the first failing
    song's first error, in the order sample, representation, boundaries, cut."""
    segments: list[np.ndarray] = []
    labels: list = []
    offsets = [0]
    for song, signal, song_boundaries in zip(corpus.songs, signals, boundaries):
        rep = _representation(_ok(signal), config)
        cut = _cut(rep, _ok(song_boundaries), config)
        assert cut, "default boundaries guarantee at least one segment"
        segments += cut
        labels += [song.family] * len(cut)
        offsets.append(len(segments))
    return segments, labels, np.array(offsets)


def _leave_one_out(
    corpus: FolkCorpus,
    matrix: LabeledCorpus,
    offsets: np.ndarray,
    metric: Metric,
    ks: Sequence[int],
    record_traces: bool,
) -> dict[int, tuple[float, tuple[TraceRow, ...]]]:
    """Song-level leave-one-out for several k at once. Song i owns rows
    offsets[i]:offsets[i + 1]. Distances are computed one held-out song at a
    time, as that song's rows against every row with its own columns
    masked; neighbor orderings are shared across k."""
    correct = {k: 0 for k in ks}
    traces: dict[int, list[TraceRow]] = {k: [] for k in ks}
    for song, a, b in zip(corpus.songs, offsets, offsets[1:]):
        block = pairwise_distances(matrix.rows[a:b], matrix.rows, metric)
        block[:, a:b] = np.inf
        by_k = predict_from_distances(block, matrix.labels, ks)
        nearest = float(block.min())
        for k in ks:
            predicted = vote(by_k[k], block)
            if predicted == song.family:
                correct[k] += 1
            if record_traces:
                traces[k].append(TraceRow(song.song_id, song.family, predicted, nearest))
    return {k: (correct[k] / len(corpus), tuple(traces[k])) for k in ks}


def run_folk_unsegmented(
    corpus: FolkCorpus, config: ExperimentConfig, supports: Sequence[int], length: int = 1024
) -> list[FolkCellReport]:
    """1-NN leave-one-out over whole melodies resampled to ``length``
    samples: one report for the pitch signal, or one per wavelet support in
    samples. Each song is resampled once for all supports."""
    if config.segmentation.method is not SegMethod.NONE:
        raise ConfigError("the unsegmented run takes segmentation 'none'")
    if length < 1:
        raise ConfigError("fixed length must be positive")
    wavelet = config.representation is Representation.WAVELET
    if wavelet and not supports:
        raise ConfigError("the wavelet sweep needs at least one support")
    signals = [
        _attempt(resample_to_length, song.seq, length, config.rest_policy)
        for song in corpus.songs
    ]
    offsets = np.arange(len(corpus) + 1)  # one row per song
    reports = []
    for support in supports if wavelet else (None,):
        try:
            if len(corpus) < 2:
                raise ValueError("leave-one-out needs at least two songs")
            rows = [
                haar_filter(_ok(signal), support) if wavelet else _normalizer(config)(_ok(signal))
                for signal in signals
            ]
            matrix = LabeledCorpus(np.vstack(rows), [song.family for song in corpus.songs])
            accuracy, traces = _leave_one_out(corpus, matrix, offsets, config.metric, (1,), True)[1]
            error = None
        except _CELL_ERRORS as exc:
            accuracy, traces, error = None, (), str(exc)
        reports.append(FolkCellReport(
            config.representation, SegMethod.NONE, support, None, config.metric, 1,
            accuracy, error, traces,
        ))
    return reports


def _segmentation_group(args) -> list:
    """Segmented folk cells that share one segmentation, rate and rest
    policy, given the songs' signals: per cell, in order, the k ->
    (accuracy, traces) results or the cell's error.

    Each stage runs once for every cell that shares its inputs: boundaries
    per song, representation and cut per representation, equalization per
    representation and equalization (shared by the metrics).
    """
    corpus, signals, configs, ks, record_traces = args
    first = configs[0]
    segmentation = first.segmentation
    boundaries = [
        signal if isinstance(signal, Exception) else _attempt(
            find_boundaries,
            signal,
            song.seq if segmentation.method is SegMethod.LBDM else None,
            segmentation,
            first.rate,
        )
        for song, signal in zip(corpus.songs, signals)
    ]
    memo: dict = {}
    results = []
    for config in configs:
        rep = (config.representation, config.wavelet_rep_scale_qn, _normalizer(config))
        try:
            if config.segmentation.method not in (SegMethod.WS_LOCAL_MAX, SegMethod.LBDM):
                raise ConfigError(
                    "segmented folk classification uses ws-max or lbdm segmentation"
                )
            if len(corpus) < 2:
                raise ValueError("leave-one-out needs at least two songs")
            segments, labels, offsets = _once(
                memo, rep, _cut_corpus, corpus, signals, boundaries, config
            )
            matrix = _once(
                memo, (rep, config.equalization), _equalize, segments, labels, config.equalization
            )
            results.append(
                _leave_one_out(corpus, matrix, offsets, config.metric, ks, record_traces)
            )
        except _CELL_ERRORS as exc:
            results.append(exc)
    return results


def _cell_report(
    config: ExperimentConfig, k: int, accuracy: float | None,
    traces: tuple[TraceRow, ...] = (), error: str | None = None,
) -> FolkCellReport:
    return FolkCellReport(
        config.representation, config.segmentation.method, config.segmentation.param,
        config.equalization, config.metric, k, accuracy, error, traces,
    )


def _cell_reports(config: ExperimentConfig, ks: Sequence[int], result) -> list[FolkCellReport]:
    if isinstance(result, Exception):
        return [_cell_report(config, k, None, error=str(result)) for k in ks]
    return [_cell_report(config, k, *result[k]) for k in ks]


def run_folk_segmented(
    corpus: FolkCorpus, config: ExperimentConfig, ks: Sequence[int] = (1,),
    record_traces: bool = True,
) -> list[FolkCellReport]:
    """Leave-one-out tune-family classification over melody segments: one
    report per k, all from one pass. A cell that cannot run raises its
    error."""
    _check_ks(ks)
    (result,) = _segmentation_group(
        (corpus, _song_signals(corpus, config), [config], tuple(ks), record_traces)
    )
    return _cell_reports(config, ks, _ok(result))


def _grid_configs(
    base: ExperimentConfig,
    scales: Sequence,
    thresholds: Sequence[float],
) -> list[ExperimentConfig]:
    """One config per base cell (k varies within a cell at no extra cost).

    For wavelet representation with wavelet segmentation the representation
    scale follows the segmentation scale; with LBDM it stays at the base
    config's representation scale.
    """
    configs = []
    for rep in (Representation.WAVELET, Representation.PITCH):
        for seg, params in ((SegMethod.WS_LOCAL_MAX, scales), (SegMethod.LBDM, thresholds)):
            for param in params:
                for equalization in (Equalization.ZERO_PAD, Equalization.INTERPOLATE):
                    for metric in (Metric.CITYBLOCK, Metric.EUCLIDEAN):
                        changes = dict(
                            representation=rep,
                            segmentation=Segmentation(seg, param),
                            equalization=equalization,
                            metric=metric,
                        )
                        if seg is SegMethod.WS_LOCAL_MAX and rep is Representation.WAVELET:
                            changes["wavelet_rep_scale_qn"] = Fraction(param)
                        configs.append(replace(base, **changes))
    return configs


def grid_search(
    corpus: FolkCorpus,
    base_config: ExperimentConfig | None = None,
    scales: Sequence = DYADIC_SCALES_QN,
    thresholds: Sequence[float] = LBDM_THRESHOLDS,
    ks: Sequence[int] = ALL_KS,
    jobs: int = 1,
    record_traces: bool = False,
) -> list[FolkCellReport]:
    """Accuracy for every cell of the parameter sweep; cells that error are
    reported with the error instead of being skipped. Songs are sampled
    once, then cells run in segmentation groups, the units of work that
    ``jobs`` worker processes share; evaluation is pure, so any job count assembles identical results."""
    if base_config is None:
        base_config = ExperimentConfig(rest_policy=RestPolicy.REMOVE)
    _check_ks(ks)
    configs = _grid_configs(base_config, scales, thresholds)
    if not configs:
        raise ConfigError("the grid has no cells: give at least one scale or threshold")
    signals = _song_signals(corpus, base_config)
    groups: dict[Segmentation, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(config.segmentation, []).append(i)
    tasks = [
        (corpus, signals, [configs[i] for i in cells], tuple(ks), record_traces)
        for cells in groups.values()
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_group = list(pool.map(_segmentation_group, tasks))
    else:
        per_group = [_segmentation_group(task) for task in tasks]
    results: list = [None] * len(configs)
    for cells, group_results in zip(groups.values(), per_group):
        for i, result in zip(cells, group_results):
            results[i] = result
    return [
        report
        for config, result in zip(configs, results)
        for report in _cell_reports(config, ks, result)
    ]
