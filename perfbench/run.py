"""melowave benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a melowave checkout. Each run starts one fresh child
process (``child.py``) for the workload, so set-up, timings and peak RSS
belong to that workload alone. The child generates the inputs from the seed,
runs the workload's commands over and over for S seconds and checks every
output byte. This script prints each metric with its unit, the environment,
and as the last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). End-to-end times are in reference seconds, corrected for the
host's speed (see ``child.py``); the measured seconds are printed beside them.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("folk-grid", "bach-sweep")
WORK_ROOT = Path(".perfbench_work")
TIME_LIMIT_S = 170  # every run ends within 180 s


def _child_env() -> dict:
    """The child's environment, pinned so nothing ambient changes the work."""
    env = dict(os.environ)
    env.pop("MELOWAVE_JOBS", None)  # the grid is also given --jobs 1
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(Path("src").rglob("*.py")))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh child process and return its result."""
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(seconds),
            "1" if trace else "0", str(work), str(result_path)]
    child = subprocess.Popen(argv, env=_child_env(), stdin=subprocess.DEVNULL,
                             stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # the child and any command it started
        except ProcessLookupError:
            pass
        child.wait()
    try:
        if code != 0:
            reason = "timed out" if code is None else f"exited with code {code}"
            raise RuntimeError(f"{workload}: benchmark child {reason}")
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def report(workload: str, seed: int, result: dict, prefix: str = "") -> dict:
    """Print one workload's metrics; return them in the result-line form."""
    env = dict(result["env"], seed=seed, **{"repo.src_lines": _src_lines()})
    print(f"== {workload}  env {json.dumps(env)}")
    metrics = {}
    for name, value in result["metrics"].items():
        unit = result["units"][name]
        print(f"  {name:34s} {value:>16.6g} {unit}")
        metrics[prefix + name] = {"value": value, "unit": unit}
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':34s} {frac:>16.6g} ratio ({result['failed']} of "
          f"{result['attempted']} operations)")
    print(f"  {'commands':34s} {result['commands']:>16d} count")
    for name, value in result.get("measured", {}).items():
        print(f"  measured {name:25s} {value:>16.6g} s")
    if not result["digests_recorded"]:
        print("  no digests recorded for this seed: outputs were checked against each "
              "command's first run and for structure")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/melowave/cli.py").is_file():
        print("perfbench: run from the root of a melowave checkout (src/melowave not found)",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.perf_counter()
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(report(name, args.seed, result, prefix))
        attempted += result["attempted"]
        failed += result["failed"]
    print(f"== done in {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
