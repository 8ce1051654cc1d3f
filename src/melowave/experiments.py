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
from itertools import combinations, product
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from .classifier import (
    DistinctRows,
    LabeledCorpus,
    Metric,
    Nearest,
    code_labels,
    decide,
    distinct_rows,
    pairwise_distances,
    predict_from_distances,  # noqa: F401 (a name that perfbench/tracer.py wraps)
    vote,
)
from .contrapuntal import VariationKind, apply_variation, transform_sequence
from .corpora import BachWork, FolkCorpus
from .ingest import NoteSequence, _check_ticks
from .segmentation import (
    BoundarySet,
    Equalization,
    Segments,
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
WHOLE_MELODY_SUPPORTS: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256)
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


class TraceRow(NamedTuple):
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


def _cached(memo: dict, key: Hashable, func, *args):
    """``func(*args)``, computed at the first call with ``key`` and kept for
    later calls. An error is raised and not kept: a later call computes
    the stage again and raises it again."""
    if key not in memo:
        memo[key] = func(*args)
    return memo[key]


def find_boundaries(
    values: np.ndarray,
    notes: NoteSequence | None,
    segmentation: Segmentation,
    rate: Fraction,
    joins: Sequence[int] = (),
    memo: dict | None = None,
) -> BoundarySet:
    """Boundaries of the spans of a pitch signal at ``rate`` laid end to end
    in ``values`` and meeting at ``joins``; LBDM reads their notes, laid out
    alike. ws-zc and ws-max filter the spans once per ``memo`` (see
    ``_span_segments``) and support."""
    length = values.size
    method, param = segmentation.method, segmentation.param
    if method is SegMethod.NONE:
        return BoundarySet.from_interior(joins, length)
    if method in _WS_METHODS:
        support = support_samples(param, rate)
        memo = {} if memo is None else memo
        coeffs = _cached(memo, ("filter", support), haar_filter, values, support, joins)
        if method is SegMethod.WS_ZERO_CROSS:
            return zero_crossing_boundaries(coeffs, joins)
        return local_maxima_boundaries(coeffs, joins)
    if method is SegMethod.CONSTANT:
        return constant_boundaries(length, rate, param, joins)
    if notes is None:
        raise ValueError("LBDM segmentation needs the note stream of the span")
    return lbdm_boundaries(notes, param, rate, joins)


def _equalize(segments: Segments, labels: Sequence, equalization: Equalization) -> LabeledCorpus:
    if equalization is Equalization.ZERO_PAD:
        return equalize_zero_pad(segments, labels)
    return equalize_interpolate(segments, labels)


# distance entries (distinct query rows x distinct corpus rows) that one tile
# measures; a quarter as many copies wait to merge, as a merge holds ten arrays
_CHUNK_ENTRIES = 2**16


def _tie_block(
    queries: DistinctRows, ids: np.ndarray, items: np.ndarray, corpus: DistinctRows,
    bounds: np.ndarray, metric: Metric,
) -> tuple[np.ndarray, np.ndarray]:
    """Distances of distinct query rows ``ids`` to every distinct corpus
    row, and how many copies of each lie outside the corpus rows
    ``bounds[i]:bounds[i + 1]`` of the row's item i (``items``). The corpus
    rows no longer than the query rows' longest effective length are read
    up to it, and each distinct query row is measured once."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    rows = queries.rows[distinct]
    width = max(1, queries.lengths[distinct].max())
    cut = np.searchsorted(corpus.lengths, width, "right")  # rows before cut are zero past width
    parts = [(rows[:, :width], corpus.rows[:cut, :width]), (rows, corpus.rows[cut:])]
    block = np.hstack([pairwise_distances(a, b, metric) for a, b in parts if len(b)])
    copies = np.diff(corpus.starts)
    owners, owner = np.unique(items, return_inverse=True)
    own = [np.bincount(corpus.ids[bounds[i] : bounds[i + 1]], minlength=copies.size)
           for i in owners.tolist()]
    return block[inverse], copies - np.array(own)[owner]


def _classify(
    items: Sequence[tuple[str, str]],
    queries: DistinctRows,
    offsets: np.ndarray,
    corpus: DistinctRows,
    names: Sequence,
    codes: np.ndarray,
    metric: Metric,
    ks: Sequence[int],
    held_out: bool,
) -> dict[int, tuple[TraceRow, ...]]:
    """Traces of the kNN/vote decision of every item, for several k at once.
    Item i is (item id, true label); the kNN decisions of its query rows
    offsets[i]:offsets[i + 1] vote for its prediction; corpus row r has the
    label ``names[codes[r]]``. With ``held_out`` the queries are the corpus
    rows and an item's own rows are no neighbors of its queries
    (leave-one-out).

    Distances run in square tiles of distinct query rows x distinct corpus
    rows, each read up to its rows' longest effective length and merged into
    the first max(ks) neighbors of each (item, distinct query row) pair. With
    the queries the corpus, only tiles on and above the diagonal are measured,
    and a tile read down its columns serves its columns' pairs
    (bit-symmetric distances)."""
    n_items = len(items)
    # each query row's (distinct query row, item) pair, as one integer
    row_item = np.repeat(np.arange(n_items), np.diff(offsets))
    pairs, row_pair = np.unique(queries.ids * n_items + row_item, return_inverse=True)
    distinct_of, item_of = np.divmod(pairs, n_items)  # pairs run by distinct query row
    bounds = offsets if held_out else np.zeros_like(offsets)  # the corpus rows each item excludes
    # the pairs of each distinct query row
    firsts = np.searchsorted(pairs, np.arange(len(queries.rows) + 1) * n_items)
    nearest = Nearest(
        corpus.copies, corpus.starts, firsts, item_of, bounds, max(ks), _CHUNK_ENTRIES // 4
    )
    side = max(1, math.isqrt(_CHUNK_ENTRIES))
    q_cuts, c_cuts = (np.append(np.arange(0, len(d.rows), side), len(d.rows))
                      for d in (queries, corpus))
    symmetric = queries is corpus
    bands = range(len(q_cuts) - 1)
    if symmetric:  # each band's own tile first, whose rows' lengths are alike: tight bounds
        tiles = [(i, i) for i in bands] + list(combinations(bands, 2))
    else:
        tiles = list(product(bands, range(len(c_cuts) - 1)))
    for i, j in tiles:
        q_band, c_band = slice(*q_cuts[i : i + 2]), slice(*c_cuts[j : j + 2])
        width = max(1, queries.lengths[q_band].max(), corpus.lengths[c_band].max())
        rows = queries.rows[q_band, :width]  # both bands are zero past width
        columns = rows if symmetric and i == j else corpus.rows[c_band, :width]
        tile = pairwise_distances(rows, columns, metric)
        nearest.add(tile, q_band, c_band, symmetric and j > i)
    nearest.flush()
    by_k = decide(nearest.rows, nearest.dist, codes, ks)

    def tie_block(rows: np.ndarray) -> tuple:  # the rows of vote ties against the corpus
        ids = distinct_of[row_pair[rows]]
        return _tie_block(queries, ids, row_item[rows], corpus, bounds, metric)

    codes = np.stack([by_k[k] for k in ks])[:, row_pair]
    chosen = vote(codes, offsets, nearest.dist[row_pair], tie_block).tolist()
    distances = np.minimum.reduceat(nearest.dist[row_pair, 0], offsets[:-1]).tolist()
    return {
        k: tuple(TraceRow(item_id, true_label, names[c], d)
                 for (item_id, true_label), c, d in zip(items, predicted, distances))
        for k, predicted in zip(ks, chosen)
    }


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
    parts = [seq.slice(0, total) for seq in (work.upper, work.lower)]  # both end at the total
    return [(sample_pitch_signal(seq, config.rate, config.rest_policy), seq) for seq in parts]


def _span_segments(
    values: np.ndarray, parts: Sequence[tuple], spans: Sequence[tuple], config: ExperimentConfig,
    memo: dict,
) -> tuple[Segments, np.ndarray]:
    """Segments of spans of sampled parts, laid end to end in ``values``,
    and each span's segment count. Span i is (index in ``parts``, window
    start and stop in quarter notes, variation, length in samples). The
    representation, the boundaries and the cut each run once for all spans,
    filtering each span on its own. ``memo`` is shared by the calls on one
    layout at one rate: it keeps each support's Haar coefficients and each
    segmentation's boundaries. Pitch signals are mean-normalized segment by
    segment before the cut; wavelet segments are transposition-invariant
    already. A span too short for a support raises the error that filtering
    span by span would raise first: at the first such span, the
    representation support before the segmentation's."""
    edges = np.cumsum([0, *(span[-1] for span in spans)])
    joins = edges[1:-1]
    segmentation, rate = config.segmentation, config.rate
    wavelet = config.representation is Representation.WAVELET
    scales = [config.wavelet_rep_scale_qn] * wavelet
    scales += [segmentation.param] * (segmentation.method in _WS_METHODS)
    supports = [support_samples(scale, rate) for scale in scales]
    short = np.flatnonzero(2 * np.diff(edges) < max(supports, default=0))
    if short.size:  # the spans up to the first short one, at each support in turn, fail there
        for support in supports:
            haar_filter(values[: edges[short[0] + 1]], support, joins[: short[0]])
    rep = values
    if wavelet:
        rep = _cached(memo, ("filter", supports[0]), haar_filter, values, supports[0], joins)

    def find() -> BoundarySet:  # only LBDM reads a span's notes
        notes = _span_notes(parts, spans, rate) if segmentation.method is SegMethod.LBDM else None
        return find_boundaries(values, notes, segmentation, rate, joins, memo)

    boundaries = _cached(memo, ("boundaries", segmentation), find)
    if not wavelet:
        rep = _normalizer(config)(rep, boundaries.indices[1:-1])
    return cut_segments(rep, boundaries), np.diff(np.searchsorted(boundaries.indices, edges))


def _span_notes(parts: Sequence[tuple], spans: Sequence[tuple], rate: Fraction) -> NoteSequence:
    """The notes of the spans of ``_span_segments`` laid out like their
    samples: span i holds, from its first sample on, the notes of its part
    that overlap its window, clipped, rebased and varied. The layout's
    division is the lcm of the rate's numerator and every part's least
    division, which holds every tick and window edge exactly."""
    part, begin, end, kinds, lengths = (np.array(column) for column in zip(*spans))
    # each part's least division: its division over the gcd of it, its total and its ticks
    gcds = [np.gcd.reduce(np.r_[seq.division, seq.total, seq.onsets, seq.ends]) for _, seq in parts]
    least = [seq.division // int(g) for (_, seq), g in zip(parts, gcds)]
    division = math.lcm(rate.numerator, *least)
    per_sample = division * rate.denominator // rate.numerator  # ticks
    sizes = [signal.size * per_sample for signal, _ in parts]
    _check_ticks(division, sum(sizes), int(lengths.sum()) * per_sample)  # before int64 products
    # the parts end to end, each over its sampled length, so that one search finds every window
    shifts = np.cumsum([0] + sizes)
    onsets, ends = (
        np.concatenate([getattr(seq, name) // (seq.division // d) * (division // d) + shift
                        for (_, seq), d, shift in zip(parts, least, shifts.tolist())])
        for name in ("onsets", "ends")
    )
    start, stop = (shifts[part] + [int(t * division) for t in ts] for ts in (begin, end))
    lo = np.searchsorted(ends, start, "right")
    counts = np.searchsorted(onsets, stop) - lo
    span = np.repeat(np.arange(len(spans)), counts)
    notes = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    slot = lengths * per_sample
    first = np.cumsum(slot) - slot  # each span's first sample, in ticks
    laid = NoteSequence(
        np.maximum(onsets[notes], start[span]) - start[span] + first[span],
        np.minimum(ends[notes], stop[span]) - start[span] + first[span],
        np.concatenate([seq.pitches for _, seq in parts])[notes], division, int(slot.sum()),
    )
    if not len(laid) or (kinds == VariationKind.PRIME).all():
        return laid
    return transform_sequence(laid, kinds, (first, first + stop - start))


def run_bach_experiment(
    works: Sequence[BachWork], config: ExperimentConfig, prefix_qn: int = 16,
    contrapuntal: bool = False,
) -> BachReport:
    """Classify every section of every work by 1-NN against the corpus of
    the first ``prefix_qn`` quarter notes of every part, and report
    per-section-index accuracies. Each part is sampled once. The prefixes
    and the sections are the spans of one layout: each prefix followed by
    its contrapuntal variants when ``contrapuntal`` is set (extra classes,
    those of one kind varied as one block), then both parts of every
    section; all their segments are equalized at once."""
    if prefix_qn not in (4, 8, 16):
        raise ConfigError(f"classifier prefix must be 4, 8 or 16 qn, got {prefix_qn}")
    parts = [part for work in works for part in _work_signals(work, config)]
    variations = tuple(VariationKind) if contrapuntal else (VariationKind.PRIME,)
    prefix, rate = math.ceil(prefix_qn * config.rate), config.rate
    prime = np.stack([signal[:prefix] for signal, _ in parts])
    blocks = [prime if v is VariationKind.PRIME else apply_variation(prime, v) for v in variations]
    spans = [(i, 0, prefix_qn, v, prefix) for i in range(len(parts)) for v in variations]
    labels = [(work.work_id, v.value) if contrapuntal else work.work_id
              for work in works for _ in range(2) for v in variations]  # two parts per work
    slices, items = [np.stack(blocks, axis=1).ravel()], []
    for w, work in enumerate(works):
        for j, (a, b) in enumerate(split_section_spans(parts[2 * w][0].size, rate)):
            for i in (2 * w, 2 * w + 1):
                slices.append(parts[i][0][a:b])
                spans.append((i, a / rate, b / rate, VariationKind.PRIME, b - a))
            items.append((f"{work.work_id}/s{j}", work.work_id))
    segments, counts = _span_segments(np.concatenate(slices), parts, spans, config, {})
    names, codes = code_labels(labels)
    codes = np.repeat(codes, counts[: len(labels)])
    per_item = np.reshape(counts[len(labels) :], (len(items), -1)).sum(axis=1)  # both parts
    rows = _equalize(segments, [None] * len(segments), config.equalization).rows
    corpus, queries = distinct_rows(rows[: codes.size]), distinct_rows(rows[codes.size :])
    offsets = np.concatenate(([0], np.cumsum(per_item)))
    traces = _classify(items, queries, offsets, corpus, names, codes, config.metric, (1,), False)[1]
    if contrapuntal:  # a (work, variation) class counts for its work
        traces = tuple(t._replace(predicted_label=t.predicted_label[0]) for t in traces)
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


def _signals(corpus: FolkCorpus, sample, *args) -> list[np.ndarray]:
    """Every song's ``sample(song.seq, *args)``."""
    return [sample(song.seq, *args) for song in corpus.songs]


def _segmentation_group(args) -> list:
    """Folk cells that share one segmentation, rate and rest policy, given
    the songs' signals: per cell, in order, the k -> (accuracy, traces)
    results or the cell's error.

    The songs are the spans of one ``_span_segments`` layout, and each stage
    runs once for every cell that shares its inputs, for all songs at once:
    Haar coefficients per support, boundaries once, the cut per
    representation, and equalization per representation and equalization
    (shared by the metrics, which read only its distinct rows). A stage that
    fails runs again, and fails again, in each cell that needs it.
    """
    corpus, signals, configs, ks, record_traces = args
    if len(corpus) < 2:
        return [ValueError("leave-one-out needs at least two songs") for _ in configs]
    items = [(song.song_id, song.family) for song in corpus.songs]
    names, families = code_labels([family for _, family in items])
    parts = list(zip(signals, (song.seq for song in corpus.songs)))
    spans = [(i, 0, seq.total_duration_qn, VariationKind.PRIME, signal.size)
             for i, (signal, seq) in enumerate(parts)]
    values = np.concatenate(signals)
    memo: dict = {}
    results = []
    for config in configs:
        rep = (config.representation, config.wavelet_rep_scale_qn, _normalizer(config))
        try:
            segments, counts = _cached(
                memo, ("cut", rep), _span_segments, values, parts, spans, config, memo
            )
            codes, offsets = np.repeat(families, counts), np.concatenate(([0], np.cumsum(counts)))
            matrix = _cached(  # only the equalized matrix's distinct rows are kept
                memo, ("rows", rep, config.equalization),
                lambda: distinct_rows(_equalize(segments, codes, config.equalization).rows),
            )
            traces = _classify(
                items, matrix, offsets, matrix, names, codes, config.metric, ks, True
            )
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
    corpus: FolkCorpus, config: ExperimentConfig,
    supports: Sequence[int] = WHOLE_MELODY_SUPPORTS, length: int = 1024,
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
