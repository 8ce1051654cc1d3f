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


def _equalize(
    segments: Sequence[np.ndarray],
    labels: Sequence,
    equalization: Equalization,
    target_len: int | None = None,
) -> LabeledCorpus:
    if equalization is Equalization.ZERO_PAD:
        return equalize_zero_pad(segments, labels, target_len)
    return equalize_interpolate(segments, labels, target_len)


def _classify(
    items: Sequence[tuple[str, str]],
    queries: np.ndarray,
    offsets: np.ndarray,
    corpus: LabeledCorpus,
    metric: Metric,
    ks: Sequence[int],
    held_out: bool,
) -> dict[int, tuple[TraceRow, ...]]:
    """Traces of the kNN/vote decision of every item, for several k at once.
    Item i is (item id, true label); the kNN decisions of its query rows
    offsets[i]:offsets[i + 1] vote for its prediction. Distances are computed
    one item at a time; neighbor orderings are shared across k. With
    ``held_out`` the queries are the corpus rows and each item's own columns
    are masked (leave-one-out)."""
    traces: dict[int, list[TraceRow]] = {k: [] for k in ks}
    for (item_id, true_label), a, b in zip(items, offsets, offsets[1:]):
        block = pairwise_distances(queries[a:b], corpus.rows, metric)
        if held_out:
            block[:, a:b] = np.inf
        by_k = predict_from_distances(block, corpus.labels, ks)
        nearest = float(block.min())
        for k in ks:
            traces[k].append(TraceRow(item_id, true_label, vote(by_k[k], block), nearest))
    return {k: tuple(rows) for k, rows in traces.items()}


def _accuracy(traces: Sequence[TraceRow]) -> float:
    """The share of traces whose prediction is the true label."""
    return sum(t.predicted_label == t.true_label for t in traces) / len(traces)


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


def _span_notes(
    seq: NoteSequence, start_qn: Fraction, end_qn: Fraction, config: ExperimentConfig
) -> NoteSequence | None:
    """The notes of a part's span, which only LBDM segmentation reads."""
    if config.segmentation.method is SegMethod.LBDM:
        return seq.slice(start_qn, end_qn)
    return None


def _part_segments(
    values: np.ndarray,
    span_seq: NoteSequence | None,
    variation: VariationKind,
    config: ExperimentConfig,
) -> list[np.ndarray]:
    """Segments of one span of a part under a contrapuntal variation: the
    span is varied, represented per the config, segmented and cut."""
    if variation is not VariationKind.PRIME:
        values = apply_variation(values, variation)
        if span_seq is not None and span_seq.events:
            span_seq = transform_sequence(span_seq, variation)
    rep = _representation(values, config)
    boundaries = find_boundaries(values, span_seq, config.segmentation, config.rate)
    return _cut(rep, boundaries, config)


def classifier_segments(
    works: Sequence[BachWork], parts: Sequence[list], config: ExperimentConfig,
    prefix_qn: int = 16, contrapuntal: bool = False,
) -> tuple[list[np.ndarray], list]:
    """Segments of the exposition prefixes of every part (``parts[i]`` holds
    work i's sampled parts) and their labels, with contrapuntal variants
    added as extra classes when ``contrapuntal`` is set."""
    prefix_samples = math.ceil(prefix_qn * config.rate)
    variations = tuple(VariationKind) if contrapuntal else (VariationKind.PRIME,)
    segments: list[np.ndarray] = []
    labels: list = []
    for work, work_parts in zip(works, parts):
        for signal, seq in work_parts:
            span = signal[:prefix_samples]
            span_seq = _span_notes(seq, Fraction(0), Fraction(prefix_qn), config)
            for variation in variations:
                label = (work.work_id, variation.value) if contrapuntal else work.work_id
                cut = _part_segments(span, span_seq, variation, config)
                segments += cut
                labels += [label] * len(cut)
    return segments, labels


def _section_segments(
    works: Sequence[BachWork], parts: Sequence[list], config: ExperimentConfig
) -> tuple[list[np.ndarray], list[tuple[str, str]], np.ndarray]:
    """Segments of both parts of every section, the sections as (item id,
    work id) items, and the row offsets of each section's segments."""
    segments: list[np.ndarray] = []
    items = []
    offsets = [0]
    for work, work_parts in zip(works, parts):
        spans = split_section_spans(work_parts[0][0].size, config.rate)
        for j, (a, b) in enumerate(spans):
            for signal, seq in work_parts:
                span_seq = _span_notes(seq, a / config.rate, b / config.rate, config)
                segments += _part_segments(signal[a:b], span_seq, VariationKind.PRIME, config)
            items.append((f"{work.work_id}/s{j}", work.work_id))
            offsets.append(len(segments))
    return segments, items, np.array(offsets)


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
    test_segments, items, offsets = _section_segments(works, parts, config)
    target = max(len(s) for s in cls_segments + test_segments)
    corpus = _equalize(cls_segments, cls_labels, config.equalization, target)
    queries = _equalize(test_segments, [None] * len(test_segments), config.equalization, target)
    traces = _classify(items, queries.rows, offsets, corpus, config.metric, (1,), False)[1]
    if contrapuntal:  # a (work, variation) class counts for its work
        traces = tuple(replace(t, predicted_label=t.predicted_label[0]) for t in traces)
    # split_section_spans gives every work three sections, in order
    accuracies = tuple(_accuracy(traces[j::3]) for j in range(3))
    return BachReport(
        accuracies,
        float(np.mean(accuracies)),
        float(np.std(accuracies, ddof=1)),
        traces,
    )


# ---------------------------------------------------------------------------
# Experiment 2: folk tune families


# A folk cell reports these errors in place of its accuracy.
_CELL_ERRORS = (ValueError, ArithmeticError)


def _cached(memo: dict, key: Hashable, func, *args):
    """``func(*args)``, computed at the first call with ``key`` and kept for
    later calls. An error is raised and not kept: a later call computes
    the stage again and raises it again."""
    if key not in memo:
        memo[key] = func(*args)
    return memo[key]


def _signals(corpus: FolkCorpus, sample, *args) -> list[np.ndarray]:
    """Every song's ``sample(song.seq, *args)``."""
    return [sample(song.seq, *args) for song in corpus.songs]


def _cut_corpus(
    corpus: FolkCorpus, signals: list[np.ndarray], memo: dict, config: ExperimentConfig
) -> tuple[list[np.ndarray], list, np.ndarray]:
    """Segments of every song in corpus order, their families, and the row
    offsets of each song's segments. A song's boundaries are found once per
    ``memo``, keyed by the song's index. A failure raises the first failing
    song's first error, in the order representation, boundaries, cut."""
    segmentation = config.segmentation
    segments: list[np.ndarray] = []
    labels: list = []
    offsets = [0]
    for i, (song, signal) in enumerate(zip(corpus.songs, signals)):
        rep = _representation(signal, config)
        notes = song.seq if segmentation.method is SegMethod.LBDM else None
        boundaries = _cached(memo, i, find_boundaries, signal, notes, segmentation, config.rate)
        cut = _cut(rep, boundaries, config)
        assert cut, "default boundaries guarantee at least one segment"
        segments += cut
        labels += [song.family] * len(cut)
        offsets.append(len(segments))
    return segments, labels, np.array(offsets)


def _segmentation_group(args) -> list:
    """Folk cells that share one segmentation, rate and rest policy, given
    the songs' signals: per cell, in order, the k -> (accuracy, traces)
    results or the cell's error.

    Each stage runs once for every cell that shares its inputs: boundaries
    per song, representation and cut per representation, equalization per
    representation and equalization (shared by the metrics). A stage that
    fails runs again, and fails again, in each cell that needs it.
    """
    corpus, signals, configs, ks, record_traces = args
    items = [(song.song_id, song.family) for song in corpus.songs]
    memo: dict = {}
    results = []
    for config in configs:
        rep = (config.representation, config.wavelet_rep_scale_qn, _normalizer(config))
        try:
            if len(corpus) < 2:
                raise ValueError("leave-one-out needs at least two songs")
            segments, labels, offsets = _cached(
                memo, rep, _cut_corpus, corpus, signals, memo, config
            )
            matrix = _cached(
                memo, (rep, config.equalization), _equalize, segments, labels, config.equalization
            )
            traces = _classify(items, matrix.rows, offsets, matrix, config.metric, ks, True)
            results.append(
                {k: (_accuracy(t), t if record_traces else ()) for k, t in traces.items()}
            )
        except _CELL_ERRORS as exc:
            # without its traceback, the error keeps no failed frame alive
            results.append(exc.with_traceback(None))
    return results


def _run_cells(
    corpus: FolkCorpus, signals: list, configs: Sequence[ExperimentConfig],
    ks: Sequence[int], jobs: int, record_traces: bool,
) -> list:
    """Per config, in order, the k -> (accuracy, traces) results of its cell
    over the songs' signals, or the cell's error. Cells run in segmentation
    groups, the units of work that at most ``jobs`` worker processes share;
    evaluation is pure, so any job count assembles identical results."""
    groups: dict[Segmentation, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(config.segmentation, []).append(i)
    tasks = [
        (corpus, signals, [configs[i] for i in cells], tuple(ks), record_traces)
        for cells in groups.values()
    ]
    workers = min(jobs, len(tasks))  # a group is the smallest unit of work
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_group = list(pool.map(_segmentation_group, tasks))
    else:
        per_group = [_segmentation_group(task) for task in tasks]
    results: list = [None] * len(configs)
    for cells, group_results in zip(groups.values(), per_group):
        for i, result in zip(cells, group_results):
            results[i] = result
    return results


def _cell_report(
    config: ExperimentConfig, k: int, accuracy: float | None,
    traces: tuple[TraceRow, ...] = (), error: str | None = None,
) -> FolkCellReport:
    param, equalization = config.segmentation.param, config.equalization
    if config.segmentation.method is SegMethod.NONE:  # whole melodies: a support, unequalized
        wavelet = config.representation is Representation.WAVELET
        param, equalization = config.wavelet_rep_scale_qn if wavelet else None, None
    return FolkCellReport(
        config.representation, config.segmentation.method, param,
        equalization, config.metric, k, accuracy, error, traces,
    )


def _cell_reports(
    configs: Sequence[ExperimentConfig], ks: Sequence[int], results: Sequence
) -> list[FolkCellReport]:
    """One report per config, in order, and k: its result or its error."""
    reports = []
    for config, result in zip(configs, results):
        if isinstance(result, Exception):
            reports += [_cell_report(config, k, None, error=str(result)) for k in ks]
        else:
            reports += [_cell_report(config, k, *result[k]) for k in ks]
    return reports


def run_folk_segmented(
    corpus: FolkCorpus, config: ExperimentConfig, ks: Sequence[int] = (1,)
) -> list[FolkCellReport]:
    """Leave-one-out tune-family classification over melody segments: one
    report per k, all from one pass. A cell that cannot run raises its
    error."""
    _check_ks(ks)
    if config.segmentation.method not in (SegMethod.WS_LOCAL_MAX, SegMethod.LBDM):
        raise ConfigError("segmented folk classification uses ws-max or lbdm segmentation")
    signals = _signals(corpus, sample_pitch_signal, config.rate, config.rest_policy)
    (result,) = _run_cells(corpus, signals, [config], ks, 1, True)
    if isinstance(result, Exception):
        raise result
    return _cell_reports([config], ks, [result])


def run_folk_unsegmented(
    corpus: FolkCorpus, config: ExperimentConfig, supports: Sequence[int], length: int = 1024
) -> list[FolkCellReport]:
    """1-NN leave-one-out over whole melodies resampled to ``length``
    samples: one report for the pitch signal, or one per wavelet support in
    samples. The config's segmentation, rate, representation scale and
    equalization are not read. Each song is resampled once for all supports."""
    if length < 1:
        raise ConfigError("fixed length must be positive")
    wavelet = config.representation is Representation.WAVELET
    if wavelet and not supports:
        raise ConfigError("the wavelet sweep needs at least one support")
    signals = _signals(corpus, resample_to_length, length, config.rest_policy)
    # a resampled melody has no quarter-note grid; at one sample per unit, a
    # cell's representation scale is its support in samples
    whole = replace(config, segmentation=Segmentation(SegMethod.NONE), rate=1)
    configs = [replace(whole, wavelet_rep_scale_qn=m) for m in supports] if wavelet else [whole]
    return _cell_reports(configs, (1,), _run_cells(corpus, signals, configs, (1,), 1, True))


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
    once for every cell; at most ``jobs`` worker processes, one per
    segmentation group, share the cells."""
    if base_config is None:
        base_config = ExperimentConfig(rest_policy=RestPolicy.REMOVE)
    _check_ks(ks)
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    configs = _grid_configs(base_config, scales, thresholds)
    if not configs:
        raise ConfigError("the grid has no cells: give at least one scale or threshold")
    signals = _signals(corpus, sample_pitch_signal, base_config.rate, base_config.rest_policy)
    results = _run_cells(corpus, signals, configs, ks, jobs, record_traces)
    return _cell_reports(configs, ks, results)
