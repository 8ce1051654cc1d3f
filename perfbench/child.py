"""One benchmark run of one workload, in a fresh process.

Usage (``run.py`` starts it; ``src`` must be on PYTHONPATH):

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT_JSON

Set-up (importing melowave, then generating the inputs) is timed three
times, the imports in fresh interpreters, and the medians count; then the
workload's commands run over and over, one at a time, until SECONDS have
passed. With TRACE = 1 whole untraced and traced passes alternate instead, and
the traced ones give the per-layer numbers. Every command must write the same
bytes each time it runs, and the digests recorded in ``digests.json`` for the
seed when there are any.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import melowave.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy.spatial.distance import cdist  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
REPEATS = 3
COMMAND_TIMEOUT_S = 60

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# The benchmark shares a few cores of a host whose speed drifts by up to about
# 1.6x over minutes, longer than a run. A fixed calibration kernel, timed
# after every command, slows down with the host, so end-to-end times are
# reported in reference seconds: measured seconds x CALIBRATION_REF_S / the
# kernel's median time in the run (seconds on a host where the kernel takes
# CALIBRATION_REF_S). The measured seconds are printed beside them.
CALIBRATION_REF_S = 0.010
CALIBRATION_SHARE = 0.03  # kernel time after a command, as a share of the command's time
_CAL_RNG = numpy.random.default_rng(0)
_CAL_A, _CAL_B = _CAL_RNG.standard_normal((200, 32)), _CAL_RNG.standard_normal((240, 32))


def _kernel() -> None:
    """The program's kinds of work in miniature: a scipy distance matrix, a
    numpy sort, a Python vote loop and float formatting."""
    dist = cdist(_CAL_A, _CAL_B, "cityblock")
    votes: dict[int, int] = {}
    for row in numpy.argsort(dist, axis=1)[:, :5].tolist():
        for j in row:
            votes[j % 7] = votes.get(j % 7, 0) + 1
    "".join(f"{v:.6g}," for v in dist[:40].ravel())


def calibrate(seconds: float) -> list[float]:
    """Times of the calibration kernel, run for about ``seconds`` (at least once)."""
    times: list[float] = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


class Pass:
    """Some of a workload's commands, run once each: timings, operations, trace."""

    def __init__(self, workload: str, cmds: list[workloads.Command], traced: bool):
        """Runs the commands in this process, through ``melowave.cli.main``."""
        self.workload = workload
        self.traced = traced
        self.cmds = cmds
        self.times: list[tuple[str, float]] = []  # (command id, seconds), in order
        self.ops: list[workloads.Op] = []
        self.stats = tracer.Stats()
        self.calibration: list[float] = []  # kernel times taken after the commands
        for cmd in cmds:
            cmd.out.mkdir(parents=True, exist_ok=True)
        self._run(cmds)

    @property
    def wall(self) -> float:
        return sum(s for _, s in self.times)

    def _run(self, cmds) -> None:
        results = []
        trace = tracer.Tracer()
        with trace if self.traced else contextlib.nullcontext():
            for cmd in cmds:
                start = time.perf_counter()
                try:
                    code = melowave.cli.main(list(cmd.argv))
                except Exception as exc:  # a crash fails the operation, not the run
                    traceback.print_exc()
                    code = f"exception {type(exc).__name__}"
                self.times.append((cmd.op_id, time.perf_counter() - start))
                results.append((cmd, code))
        self.stats = trace.stats
        for cmd, code in results:
            self.ops += workloads.operations(self.workload, cmd, code)


def _setup(workload: str, seed: int, inputs: Path, size: str) -> float:
    """Median set-up time over repeats; every repeat must write the same files."""
    times, digests = [], set()
    for _ in range(REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        workloads.setup(workload, seed, inputs, size)
        times.append(time.perf_counter() - start)
        digests.add(workloads._digest_dir(inputs))
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic: inputs differ between repeats")
    return statistics.median(times)


def _import_probes(n: int) -> list[float]:
    """Times to import melowave.cli, each in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import melowave.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            stdin=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S,
        )
        times.append(float(done.stdout))
    return times


def _counters(stats: tracer.Stats) -> dict:
    return {
        "calls": stats.calls,
        "keys": {c: len(k) for c, k in stats.keys.items()},
        "sums": stats.sums,
        "maxima": stats.maxima,
    }


def layer_metrics(stats: tracer.Stats, self_s: dict, zeros: tuple[int, int],
                  import_s: float, overhead: float) -> dict:
    calls, sums, peaks = stats.calls, stats.sums, stats.maxima

    def repeat(name: str, counter: str) -> float:
        distinct = len(stats.keys.get(counter, ()))
        return calls.get(name, 0) / distinct if distinct else 0.0

    rows = sums.get("rows", 0)
    values = {
        "signals.sample_s": self_s.get("signals.sample", 0.0),
        "signals.sample_calls": calls.get("signals.sample", 0),
        "signals.sample_repeat": repeat("signals.sample", "sample"),
        "segmentation.boundaries_s": self_s.get("segmentation.boundaries", 0.0),
        "segmentation.boundaries_calls": calls.get("segmentation.boundaries", 0),
        "segmentation.boundaries_repeat": repeat("segmentation.boundaries", "boundaries"),
        "segmentation.segments": sums.get("segments", 0),
        "segmentation.cut_s": self_s.get("segmentation.cut", 0.0),
        "segmentation.equalize_s": self_s.get("segmentation.equalize", 0.0),
        "segmentation.row_len_max": peaks.get("row_len_max", 0),
        "segmentation.zero_row_frac": sums.get("zero_rows", 0) / rows if rows else 0.0,
        "classifier.distances_s": self_s.get("classifier.distances", 0.0),
        "classifier.distances_calls": calls.get("classifier.distances", 0),
        "classifier.distance_pairs": sums.get("distance_pairs", 0),
        "classifier.distance_bytes_max": peaks.get("distance_bytes_max", 0),
        "classifier.decide_s": self_s.get("classifier.decide", 0.0),
        "classifier.decide_calls": calls.get("classifier.decide", 0),
        "classifier.zero_nearest_frac": zeros[0] / zeros[1] if zeros[1] else 0.0,
        "experiments.self_s": self_s.get("experiments.entry", 0.0),
        "ingest.parse_s": self_s.get("ingest.parse", 0.0),
        "ingest.parse_calls": calls.get("ingest.parse", 0),
        "ingest.bytes": sums.get("bytes", 0),
        "ingest.extract_s": self_s.get("ingest.extract", 0.0),
        "contrapuntal.variation_s": self_s.get("contrapuntal.variation", 0.0),
        "contrapuntal.variation_calls": calls.get("contrapuntal.variation", 0),
        "wavelet.filter_s": self_s.get("wavelet.filter", 0.0),
        "wavelet.filter_calls": calls.get("wavelet.filter", 0),
        "cli.import_s": import_s,
        "cli.self_s": self_s.get("cli.main", 0.0),
        "corpora.load_s": self_s.get("corpora.load", 0.0),
        "trace.overhead_frac": overhead,
    }
    assert values.keys() == LAYER_UNITS.keys(), "per-layer metrics differ from BENCHMARK.json"
    return values


def _passes(workload: str, inputs: Path, out: Path, seconds: float, trace: bool) -> list[Pass]:
    """Run the workload's commands until ``seconds`` have passed, each round
    of them writing to its own directory.

    Untraced, every command is a pass of its own, followed by the calibration
    kernel, and the commands cycle in order, so a run stops within one command
    of ``seconds``, having run every command at least once. Traced, whole
    untraced and traced passes alternate, so counters and overhead compare
    like with like.
    """
    rounds = (workloads.commands(workload, inputs, out / f"r{n}") for n in itertools.count())
    passes: list[Pass] = []
    start = time.perf_counter()
    if trace:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(Pass(workload, next(rounds), traced=False))
            passes.append(Pass(workload, next(rounds), traced=True))
        return passes
    n_cmds = len(workloads.commands(workload, inputs, out))
    for cmd in itertools.chain.from_iterable(rounds):
        done = Pass(workload, [cmd], traced=False)
        done.calibration = calibrate(CALIBRATION_SHARE * done.wall)
        passes.append(done)
        if len(passes) >= n_cmds and time.perf_counter() - start >= seconds:
            return passes


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            size: str = "full") -> dict:
    """Set up, run passes for ``seconds`` and return the run's result."""
    inputs, out = work / "inputs", work / "out"
    setup_s = _setup(workload, seed, inputs, size)
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed)) if size == "full" else None

    passes = _passes(workload, inputs, out, seconds, trace)

    reference = dict(recorded or {})
    for op in (op for p in passes for op in p.ops):
        reference.setdefault(op.op_id, op.digest)  # without recorded digests: the first run of each
    attempted, errors = 0, []
    for p in passes:
        attempted += len(p.ops)
        for op in p.ops:
            if op.error is None and reference.get(op.op_id) != op.digest:
                op.error = "output bytes differ from " + ("the recorded digest" if recorded else "its first run")
            if op.error is not None:
                errors.append(f"{op.op_id}: {op.error}")
    for op_id in sorted(reference.keys() - {op.op_id for p in passes for op in p.ops}):
        attempted += 1
        errors.append(f"{op_id}: no output")

    result = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "digests_recorded": recorded is not None,
        "commands": sum(len(p.times) for p in passes if not p.traced),
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    plain = [p for p in passes if not p.traced]
    if not trace:
        times: dict[str, list[float]] = {}
        for p in plain:
            for op_id, s in p.times:
                times.setdefault(op_id, []).append(s)
        calibration_s = statistics.median(s for p in plain for s in p.calibration)
        measured = {
            "wall_s": sum(statistics.median(runs) for runs in times.values()),
            "setup_s": statistics.median([_IMPORT_S] + _import_probes(REPEATS - 1)) + setup_s,
        }
        speed = CALIBRATION_REF_S / calibration_s
        result["measured"] = dict(measured, calibration_s=calibration_s)
        result["metrics"] = {
            "wall_s": measured["wall_s"] * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": measured["setup_s"] * speed,
        }
        result["units"] = E2E_UNITS
        return result

    traced = [p for p in passes if p.traced]
    first = traced[0].stats
    missing = sorted(workloads.LAYERS_RUN[workload] - {n for n, c in first.calls.items() if c})
    if missing:
        raise tracer.TracerError(f"{workload}: traced layers never ran: {', '.join(missing)}")
    for p in traced[1:]:
        if _counters(p.stats) != _counters(first):
            result["failed"] += 1
            result["errors"].append("trace counters differ between traced passes")
    names = set().union(*(p.stats.self_s for p in traced))
    self_s = {n: statistics.median(p.stats.self_s.get(n, 0.0) for p in traced) for n in names}
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1
    result["metrics"] = layer_metrics(
        first, self_s, workloads.zero_nearest(cmd.out for cmd in traced[0].cmds),
        statistics.median(_import_probes(REPEATS)), overhead
    )
    result["units"] = LAYER_UNITS
    return result


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, work, result_path = argv
    result = measure(workload, int(seed), float(seconds), trace == "1", Path(work))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
