"""Tests of the benchmark itself: job lists, span arithmetic, wrappers, counts, smoke."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

COUNTS = ("calls", "distinct_frac", "squarefree_per_root_test")


def tiny_jobs(workload: str) -> list:
    """A few of the cheapest jobs of seed 1, which has committed reference hashes."""
    full = jobs.job_list(workload, 1)
    if workload == "ratio-scan":
        return [j for j in full if j["kmax"] <= 60]
    if workload == "reality-table":
        return [j for j in full if j["kmax"] == 20]
    verify = [j for j in full if j["id"] == "fs-verify"]
    return verify + [j for j in full if j.get("deg_max") == 4 and "expect" not in j][:2]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_job_list(workload):
    first = json.dumps(jobs.job_list(workload, 7), sort_keys=True)
    assert json.dumps(jobs.job_list(workload, 7), sort_keys=True) == first
    assert json.dumps(jobs.job_list(workload, 8), sort_keys=True) != first


def test_ratio_scan_jobs_share_no_inputs():
    keys = [j["repeat_key"] for j in jobs.job_list("ratio-scan", 3)]
    assert len(set(keys)) == len(keys)


def test_self_time_subtracts_covered_child_intervals():
    S = spans.Span
    tree = [
        S(0, None, "a", "outer", 0.0, 10.0),
        S(1, 0, "a", "child", 1.0, 4.0),
        S(2, 1, "a", "grandchild", 2.0, 3.0),
        S(3, 0, "a", "child", 5.0, 6.5),
        S(4, None, "b", "leaf", 20.0, 21.0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 10.0 - 3.0 - 1.5, 1: 3.0 - 1.0, 2: 1.0, 3: 1.5, 4: 1.0}
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)


def test_wrappers_are_removed_after_a_traced_pass():
    hermops = child.import_hermops()
    job_list = tiny_jobs("reality-table")[:1] + tiny_jobs("falsify-search")[1:2]
    runners = [child.prepare(hermops, job) for job in job_list]
    tracer = spans.Tracer()
    result = child.run_pass(job_list, runners, tracer)
    assert all(r["error"] is None for r in result["jobs"])
    metrics = tracer.layer_metrics(extra={"cli.out_bytes": 0})
    assert metrics["ratpoly.count_real_roots.calls"] > 0
    assert metrics["classify.falsify.candidates"] > 0
    for name, module in list(sys.modules.items()):
        if name == "hermops" or name.startswith("hermops."):
            for attr, value in vars(module).items():
                assert not hasattr(value, "perfbench_original"), f"{name}.{attr} still wrapped"
                if isinstance(value, type) and "expand" in vars(value):
                    assert not hasattr(vars(value)["expand"], "perfbench_original")


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    job_list = tiny_jobs("reality-table") + tiny_jobs("falsify-search")
    layers = [
        run.measure("reality-table", 1, 0, True, out=tmp_path / str(i), job_list=job_list)["per_layer"]
        for i in range(2)
    ]
    names = [n for n, _, _ in run.per_layer_metrics() if n.rsplit(".", 1)[-1] in COUNTS]
    assert {n: layers[0][n] for n in names} == {n: layers[1][n] for n in names}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_has_no_failures(workload, tmp_path):
    record = run.measure(workload, 1, 0, False, out=tmp_path, job_list=tiny_jobs(workload))
    assert record["correct"] and record["fail_frac"] == 0
    assert record["reference"].startswith(f"{len(record['jobs'])} of")
    assert set(record["end_to_end"]) == {name for name, _ in run.END_TO_END}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
