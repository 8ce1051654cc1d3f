"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria that need the licensed corpora (the Musedata-derived two-part
inventions, the Meertens tune-family collection) skip with instructions
when the data is absent; point MELOWAVE_BACH_DIR (a directory of 15
two-part MIDI works) or MELOWAVE_MEERTENS_DIR + MELOWAVE_MEERTENS_LABELS
at local copies to enable them.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import os
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from melowave.classifier import Metric, pairwise_distances, predict_from_distances
from melowave.cli import main
from melowave.corpora import load_bach_corpus, load_folk_corpus, synthetic_inventions, synthetic_tune_families
from melowave.experiments import (
    ExperimentConfig,
    Representation,
    SegMethod,
    Segmentation,
    run_bach_experiment,
    run_folk_segmented,
    run_folk_unsegmented,
)
from melowave.ingest import write_standard_midi
from melowave.segmentation import zero_crossing_boundaries
from melowave.signals import RestPolicy
from melowave.wavelet import haar_filter

from conftest import mirror_extended
from test_wavelet import window_means

BACH_TARGET = 0.8444
CHANCE = 1 / 15


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {criterion}] {state}{suffix}")
    return ok


def skip(criterion: str, reason: str):
    print(f"[ACCEPTANCE {criterion}] SKIP ({reason})")
    pytest.skip(reason)


def direct_coefficients(values: np.ndarray, support: int) -> np.ndarray:
    """Naive reference: per-shift inner product with the analyzing vector
    over an independently constructed mirror extension."""
    length = values.size
    pad = min(length, support)
    padded = np.array(mirror_extended(values.tolist(), pad))
    amp = 1.0 / math.sqrt(support)
    psi = np.array([amp] * (support // 2) + [-amp] * (support // 2))
    offset = min(pad, 2 * pad - support + 1)
    return np.array(
        [psi @ padded[offset + u : offset + u + support] for u in range(length)]
    )


def test_criterion_1_cwt_oracle_equivalence():
    rng = np.random.default_rng(1)
    supports = [int(8 * s) for s in (0.5, 1, 2, 4)]  # rate 8
    started = time.perf_counter()
    worst = 0.0
    compared = 0
    for _ in range(200):
        length = int(rng.integers(8, 513))
        values = rng.integers(0, 128, size=length).astype(float)
        for support in supports:
            if support > 2 * length:
                with pytest.raises(ValueError):
                    haar_filter(values, support)
                continue
            got = haar_filter(values, support)
            worst = max(worst, float(np.abs(got - direct_coefficients(values, support)).max()))
            compared += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0 and compared > 600
    assert report("1 cwt-oracle", ok, f"max err {worst:.2e}, {elapsed:.2f}s, {compared} comparisons")


def test_criterion_2_constant_and_transposition():
    rng = np.random.default_rng(2)
    worst_const = 0.0
    for length in (8, 33, 257, 1024):
        for support in (2, 4, 8, 32, 128, 1024):
            if support > 2 * length:
                continue
            w = haar_filter(np.full(length, 127.0), support)
            worst_const = max(worst_const, float(np.abs(w).max()))
    worst_shift = 0.0
    for _ in range(50):
        length = int(rng.integers(8, 300))
        values = rng.integers(0, 128, size=length).astype(float)
        support = 2 * int(rng.integers(1, length))
        if support > 2 * length:
            continue
        c = float(rng.uniform(-40, 40))
        delta = np.abs(haar_filter(values + c, support) - haar_filter(values, support)).max()
        worst_shift = max(worst_shift, float(delta))
    ok = worst_const <= 1e-12 and worst_shift <= 1e-9
    assert report("2 constant-transposition", ok,
                  f"const {worst_const:.2e}, shift {worst_shift:.2e}")


def test_criterion_3_zero_crossing_semantics():
    rng = np.random.default_rng(3)
    worst = 0.0
    boundaries_checked = 0
    for _ in range(1000):
        length = int(rng.integers(8, 96))
        values = rng.integers(0, 128, size=length).astype(float)
        support = int(rng.choice([4, 8]))
        w = haar_filter(values, support)
        bounds = zero_crossing_boundaries(w)
        for i in np.nonzero(np.abs(w) <= 1e-12)[0]:
            assert int(i) in bounds.indices
            first, second = window_means(values, support, int(i))
            worst = max(worst, abs(first - second))
            boundaries_checked += 1
    ok = worst <= 1e-9 and boundaries_checked > 100
    assert report("3 zero-crossing-means", ok,
                  f"max mean gap {worst:.2e} over {boundaries_checked} boundaries")


def oracle_knn_all_k(query, rows, labels, metric):
    if metric is Metric.EUCLIDEAN:
        dist = lambda a, b: math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    else:
        dist = lambda a, b: sum(abs(x - y) for x, y in zip(a, b))
    scored = sorted(((dist(query, r), i) for i, r in enumerate(rows)),
                    key=lambda t: (t[0], t[1]))
    ordered = [labels[i] for _, i in scored]
    out = {}
    for k in range(1, 6):
        votes = Counter(ordered[: min(k, len(ordered))])
        best = max(votes.values())
        tied = {label for label, count in votes.items() if count == best}
        out[k] = next(label for label in ordered if label in tied)
    return out


def test_criterion_4_knn_oracle_equivalence():
    rng = np.random.default_rng(4)
    mismatches = 0
    queries_run = 0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(1, 8))
        n_classes = int(rng.integers(1, 27))
        rows = rng.integers(0, 6, size=(n, dim)).astype(float)
        labels = tuple(f"c{int(i)}" for i in rng.integers(0, n_classes, size=n))
        for _ in range(3):
            query = rng.integers(0, 6, size=dim).astype(float)
            for metric in Metric:
                expected = oracle_knn_all_k(query, rows, labels, metric)
                block = pairwise_distances(query[None, :], rows, metric)
                got, _ = predict_from_distances(block, labels, range(1, 6))
                for k in range(1, 6):
                    queries_run += 1
                    if got[k][0] != expected[k]:
                        mismatches += 1
    ok = mismatches == 0
    assert report("4 knn-oracle", ok, f"{queries_run} decisions, {mismatches} mismatches")


def _bach_corpus_or_skip(criterion: str):
    root = os.environ.get("MELOWAVE_BACH_DIR") or str(
        Path(__file__).parent / "data" / "bach_inventions"
    )
    if not Path(root).is_dir():
        skip(criterion, "needs the Musedata-derived MIDI of the 15 two-part "
                        "inventions; set MELOWAVE_BACH_DIR")
    works = load_bach_corpus(root)
    if len(works) != 15:
        skip(criterion, f"expected 15 works in {root}, found {len(works)}")
    return works


def test_criterion_5_bach_end_to_end():
    works = _bach_corpus_or_skip("5 bach-end-to-end")
    started = time.perf_counter()
    best = run_bach_experiment(works, ExperimentConfig())
    none = run_bach_experiment(
        works, ExperimentConfig(segmentation=Segmentation(SegMethod.NONE))
    )
    elapsed = time.perf_counter() - started
    ok = (
        abs(best.mean_accuracy - BACH_TARGET) <= 0.10
        and best.mean_accuracy >= 10 * CHANCE
        and 0.05 <= none.mean_accuracy <= 0.30
        and elapsed < 120.0
    )
    assert report(
        "5 bach-end-to-end", ok,
        f"segmented {best.mean_accuracy:.4f} (target {BACH_TARGET}+-0.10), "
        f"unsegmented {none.mean_accuracy:.4f} (band [0.05,0.30]), {elapsed:.1f}s",
    )


def test_criterion_6_bach_qualitative_orderings():
    works = _bach_corpus_or_skip("6 bach-orderings")
    best = run_bach_experiment(works, ExperimentConfig())
    none = run_bach_experiment(
        works, ExperimentConfig(segmentation=Segmentation(SegMethod.NONE))
    )
    cp = run_bach_experiment(works, ExperimentConfig(), contrapuntal=True)
    ok = best.mean_accuracy > none.mean_accuracy and cp.mean_accuracy <= best.mean_accuracy
    assert report(
        "6 bach-orderings", ok,
        f"seg {best.mean_accuracy:.4f} > none {none.mean_accuracy:.4f}; "
        f"cp {cp.mean_accuracy:.4f} <= nc {best.mean_accuracy:.4f}",
    )


def _folk_cell_config(scale_qn: int) -> ExperimentConfig:
    return ExperimentConfig(
        representation=Representation.WAVELET,
        wavelet_rep_scale_qn=Fraction(scale_qn),
        segmentation=Segmentation(SegMethod.WS_LOCAL_MAX, Fraction(scale_qn)),
        rest_policy=RestPolicy.REMOVE,
    )


@pytest.fixture(scope="module")
def folk_seed_results():
    results = {}
    for seed in range(10):
        corpus = synthetic_tune_families(seed)
        k1, k2 = run_folk_segmented(corpus, _folk_cell_config(1), (1, 2))
        (large,) = run_folk_segmented(corpus, _folk_cell_config(64), (1,))
        results[seed] = {
            "scale1_k1": k1.accuracy,
            "scale1_k2": k2.accuracy,
            "scale64_k1": large.accuracy,
        }
    return results


def test_criterion_7a_synthetic_accuracy(folk_seed_results):
    accs = [r["scale1_k1"] for r in folk_seed_results.values()]
    mean = float(np.mean(accs))
    ok = mean >= 0.90
    assert report("7a folk-synthetic-accuracy", ok,
                  f"mean {mean:.4f} over 10 seeds (min {min(accs):.4f})")


def test_criterion_7b_k1_equals_k2(folk_seed_results):
    ok = all(r["scale1_k1"] == r["scale1_k2"] for r in folk_seed_results.values())
    assert report("7b folk-k1-k2-identical", ok)


def test_criterion_7c_small_scale_beats_large(folk_seed_results):
    small = float(np.mean([r["scale1_k1"] for r in folk_seed_results.values()]))
    large = float(np.mean([r["scale64_k1"] for r in folk_seed_results.values()]))
    ok = small > large
    assert report("7c folk-scale-trend", ok, f"scale 1: {small:.4f} > scale 64: {large:.4f}")


def test_criterion_7_meertens_if_available():
    directory = os.environ.get("MELOWAVE_MEERTENS_DIR")
    labels = os.environ.get("MELOWAVE_MEERTENS_LABELS")
    if not directory or not labels:
        skip("7 meertens", "needs the licensed Meertens collection; set "
                           "MELOWAVE_MEERTENS_DIR and MELOWAVE_MEERTENS_LABELS")
    corpus = load_folk_corpus(directory, labels)
    config = ExperimentConfig(
        representation=Representation.PITCH,
        segmentation=Segmentation(SegMethod.NONE),
        rest_policy=RestPolicy.REMOVE,
    )
    (result,) = run_folk_unsegmented(corpus, config, (), 1024)
    ok = abs(result.accuracy - 0.8806) <= 0.05
    assert report("7 meertens", ok, f"vr/city-block/rests-removed {result.accuracy:.4f}")


@pytest.fixture(scope="module")
def synthetic_bach_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("acceptance_inventions")
    for work in synthetic_inventions(0):
        data = write_standard_midi([work.upper, work.lower], division=480)
        (directory / f"{work.work_id}.mid").write_bytes(data)
    return directory


def test_criterion_8_determinism(synthetic_bach_dir, tmp_path):
    runs = []
    for i in range(3):
        out = tmp_path / f"bach{i}.csv"
        trace = tmp_path / f"trace{i}.csv"
        assert main(["exp", "bach", "--corpus", str(synthetic_bach_dir),
                     "-o", str(out), "--trace", str(trace)]) == 0
        runs.append(out.read_bytes() + trace.read_bytes())
    bach_ok = runs[0] == runs[1] == runs[2]

    cell_runs = []
    for i in range(3):
        out = tmp_path / f"cell{i}.csv"
        assert main(["exp", "folk", "--synthetic-seed", "1", "--synthetic-families", "6",
                     "-o", str(out)]) == 0
        cell_runs.append(out.read_bytes())
    cell_ok = cell_runs[0] == cell_runs[1] == cell_runs[2]

    grid_args = ["exp", "folk", "--synthetic-seed", "1", "--synthetic-families", "6",
                 "--grid", "--scales", "1,4", "--thresholds", "0.4", "--ks", "1,3"]
    jobs1 = tmp_path / "jobs1.csv"
    jobs8 = tmp_path / "jobs8.csv"
    assert main(grid_args + ["--jobs", "1", "-o", str(jobs1)]) == 0
    assert main(grid_args + ["--jobs", "8", "-o", str(jobs8)]) == 0
    grid_ok = jobs1.read_bytes() == jobs8.read_bytes()

    ok = bach_ok and cell_ok and grid_ok
    assert report("8 determinism", ok,
                  f"bach x3 {'=' if bach_ok else '!='}, folk x3 {'=' if cell_ok else '!='}, "
                  f"grid jobs 1 vs 8 {'=' if grid_ok else '!='}")
