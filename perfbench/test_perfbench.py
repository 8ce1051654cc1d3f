"""The benchmark's own checks, on small inputs.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs without a failed operation, every per-layer counter
repeats exactly across two traced runs, and a stale wrapped name fails.
"""

import pytest

import child
import tracer
import workloads

# per-layer metrics that count work: they must repeat exactly across runs
COUNTERS = [
    name for name, unit in child.LAYER_UNITS.items()
    if unit in ("count", "B") or name.endswith(("_repeat", "zero_row_frac", "zero_nearest_frac"))
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_and_nothing_fails(workload, tmp_path):
    runs = [
        child.measure(workload, 0, 0, True, tmp_path / f"run{i}", size="small") for i in range(2)
    ]
    for run in runs:
        assert run["attempted"] > 0
        assert run["failed"] == 0, run["errors"]
        assert list(run["metrics"]) == list(child.LAYER_UNITS)
    first, second = ({name: run["metrics"][name] for name in COUNTERS} for run in runs)
    assert first == second
    assert workloads.LAYERS_RUN[workload] <= tracer.SITES.keys()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    run = child.measure(workload, 0, 0, False, tmp_path, size="small")
    assert run["failed"] == 0, run["errors"]
    assert run["failed"] / run["attempted"] == 0
    assert list(run["metrics"]) == list(child.E2E_UNITS)
    assert all(value > 0 for value in run["metrics"].values())


def test_missing_traced_name_fails_loudly(monkeypatch):
    import melowave.experiments

    monkeypatch.delattr(melowave.experiments, "haar_filter")
    with pytest.raises(tracer.TracerError, match="melowave.experiments.haar_filter"):
        tracer.Tracer().install()
