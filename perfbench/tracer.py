"""Per-layer tracing of melowave from outside the package.

Each layer is a melowave module. The tracer wraps the public functions of a
layer where they are *called*: ``from .x import y`` gives the importing
module its own binding of ``y``, so every calling namespace is rebound (for
example ``melowave.experiments.haar_filter`` and
``melowave.wavelet.haar_filter``). Every wrapped call records a span
``(id, parent id, name, start, end)`` in memory; a layer's time is the self
time of its spans, so nested calls (``knn_predict`` -> ``pairwise_distances``)
are counted once. Counters are taken at the same call boundaries, outside the
timed span.
"""

from __future__ import annotations

import hashlib
import importlib
import time

import numpy as np

# span name -> the (module, attribute) bindings that call into it
SITES = {
    "signals.sample": [
        ("experiments", "sample_pitch_signal"),
        ("experiments", "resample_to_length"),
    ],
    "segmentation.boundaries": [
        ("experiments", finder)
        for finder in (
            "zero_crossing_boundaries",
            "local_maxima_boundaries",
            "constant_boundaries",
            "lbdm_boundaries",
        )
    ],
    "segmentation.cut": [("experiments", "cut_segments")],
    "segmentation.equalize": [
        ("experiments", "equalize_zero_pad"),
        ("experiments", "equalize_interpolate"),
    ],
    "classifier.distances": [
        ("experiments", "pairwise_distances"),
        ("classifier", "pairwise_distances"),
    ],
    "classifier.decide": [
        ("experiments", "predict_from_distances"),
        ("experiments", "vote"),
        ("classifier", "predict_from_distances"),
    ],
    "experiments.entry": [
        ("experiments", "grid_search"),
        ("experiments", "run_bach_experiment"),
        ("experiments", "run_folk_segmented"),
        ("experiments", "run_folk_unsegmented"),
    ],
    "ingest.parse": [("corpora", "parse_standard_midi")],
    "ingest.extract": [("corpora", "extract_voice")],
    "contrapuntal.variation": [
        ("experiments", "apply_variation"),
        ("experiments", "transform_sequence"),
    ],
    "wavelet.filter": [("experiments", "haar_filter"), ("wavelet", "haar_filter")],
    "cli.main": [("cli", "main")],
    "corpora.load": [("corpora", "load_bach_corpus"), ("corpora", "load_folk_corpus")],
}

OBSERVE = "trace.observe"  # time spent taking counters, excluded from every layer


class TracerError(RuntimeError):
    """A wrapped name is missing from melowave, or a layer never ran."""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:32]


def _array(value) -> np.ndarray:
    return np.asarray(getattr(value, "values", value))


class Stats:
    """Aggregated trace of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.keys: dict[str, set[str]] = {}
        self.sums: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def add(self, counter: str, value: int) -> None:
        self.sums[counter] = self.sums.get(counter, 0) + int(value)

    def peak(self, counter: str, value: int) -> None:
        self.maxima[counter] = max(self.maxima.get(counter, 0), int(value))

    def key(self, counter: str, key: str) -> None:
        self.keys.setdefault(counter, set()).add(key)


def _observe(stats: Stats, name: str, func, args, result) -> None:
    """Counters for one call, taken from its positional arguments and result."""
    if name == "signals.sample":
        seq, arg, policy = args
        stats.key("sample", _digest(func.__name__, seq, arg, policy))
    elif name == "segmentation.boundaries":
        first = args[0]
        source = first if hasattr(first, "events") else _array(first)
        stats.key("boundaries", _digest(func.__name__, source, *args[1:]))
    elif name == "segmentation.cut":
        stats.add("segments", len(result))
    elif name == "segmentation.equalize":
        rows = result.rows
        stats.add("rows", rows.shape[0])
        stats.add("zero_rows", int(np.count_nonzero(~rows.any(axis=1))))
        stats.peak("row_len_max", rows.shape[1])
    elif name == "classifier.distances":
        stats.add("distance_pairs", result.size)
        stats.peak("distance_bytes_max", result.nbytes)
    elif name == "ingest.parse":
        stats.add("bytes", len(args[0]))


class Tracer:
    """Installs span-recording wrappers into melowave and removes them again."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats = Stats()
        self._stack: list[int] = [0]  # 0 is the untraced caller
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, stats = self.spans, self._stack, self.stats

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 2  # span_id + 1 is kept for this call's observe span
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            _observe(stats, name, func, args, result)
            spans.append((span_id + 1, parent, OBSERVE, end, time.perf_counter()))
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        missing = []
        for name, sites in SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(f"melowave.{module_name}")
                if not hasattr(module, attr):
                    missing.append(f"melowave.{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        if missing:
            self.uninstall()
            raise TracerError("traced names no longer exist: " + ", ".join(missing))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self._fold_spans()

    def _fold_spans(self) -> None:
        """Self time per span name and call counts of outermost spans."""
        names = {span_id: name for span_id, _, name, _, _ in self.spans}
        covered: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        for span_id, parent, name, start, end in self.spans:
            if name == OBSERVE:
                continue
            own = (end - start) - covered.get(span_id, 0.0)
            self.stats.self_s[name] = self.stats.self_s.get(name, 0.0) + own
            if names.get(parent) != name:  # nested calls of one layer count once
                self.stats.calls[name] = self.stats.calls.get(name, 0) + 1
        self.spans.clear()
