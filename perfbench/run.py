"""hermops benchmark: three seeded closed-loop workloads, checked outputs.

Run one workload:

    python3 perfbench/run.py --workload ratio-scan --seed 1 --seconds 40 --trace 0

One client runs one job at a time: a job starts only when the previous one
has finished.  The job list of a seed (jobs.py) is run as a pass in a fresh
child interpreter (child.py), and passes repeat until --seconds is used up,
so every pass starts with the program's caches empty.  With --trace 0 the
run reports the end-to-end metrics; with --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics of spans.py plus the
cost of tracing.  Either way the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines above it print
every metric by name with its unit.

Every job output is hashed.  A job run fails on an exception, an unexpected
exit code, a problem found by checks.py, a hash that differs between passes,
or a hash that differs from the committed reference for the seed
(perfbench/reference/).  Each run is saved under --out (default
perfbench/results/), and

    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

prints the median and quartiles of every metric on both sides with their
ratio, and flags every job whose output hash differs.

Times are reported at one reference machine speed.  On a shared host the
same code runs up to 2x slower for minutes at a time, so the child times a
fixed stdlib kernel before the first job and after every job
(`child.calibrate`), and each measured time is multiplied by
CAL_REF_S / (the kernel's time around it).  A value therefore reads as
seconds on a machine where the kernel takes CAL_REF_S.  The raw seconds
are printed next to them and saved with every run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as joblists  # noqa: E402
import spans  # noqa: E402

REFERENCE_DIR = HERE / "reference"
DEFAULT_OUT = HERE / "results"
CHILD_TIMEOUT_S = 170
TAIL_MARGIN = 10  # job_tail_s is the highest percentile with this many jobs above it
CAL_REF_S = 0.01  # kernel time that defines the reference machine speed

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
TRACE_OVERHEAD = ("bench.trace_overhead_frac", "ratio", "lower")


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric a --trace 1 run reports."""
    return spans.metric_names() + [TRACE_OVERHEAD]


class BenchError(RuntimeError):
    pass


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_MARGIN values above it."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_MARGIN, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _run_child(work: Path, jobs_path: Path, index: int, traced: bool, check: bool) -> dict:
    result_path = work / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(jobs_path), str(result_path)]
    if traced:
        cmd += ["--trace", str(work / "spans.jsonl")]
    if check:
        cmd.append("--check")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    cal = result["calibrations"]
    for i, job in enumerate(result["jobs"]):
        job["scaled_s"] = job["seconds"] * CAL_REF_S / ((cal[i] + cal[i + 1]) / 2)
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux.
    result["setup_raw_s"] = result.pop("ready") - spawned
    result["setup_s"] = result["setup_raw_s"] * CAL_REF_S / statistics.median(cal[:3])
    result["speed"] = CAL_REF_S / statistics.median(cal)
    result["traced"] = traced
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool, job_list: list, out: Path) -> list:
    """Passes until the next one would overrun `seconds`; at least one of each kind needed."""
    work = out / ".work" / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(job_list), encoding="utf-8")
        passes = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            began = time.perf_counter()
            passes.append(_run_child(work, jobs_path, len(passes), traced, check=not passes))
            longest = max(longest, time.perf_counter() - began)
            enough = len(passes) >= (2 if trace else 1)
            if enough and time.perf_counter() - start + longest > seconds:
                break
        spans_path = work / "spans.jsonl"
        if spans_path.exists():
            spans_path.replace(out / f"{workload}-seed{seed}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return passes


def load_reference(workload: str, seed: int) -> dict:
    path = REFERENCE_DIR / f"{workload}-seed{seed}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["sha256"]


def judge(job_list: list, passes: list, reference: dict) -> dict:
    """Per job: its hash, the reasons its runs failed, and how many runs failed."""
    problems = passes[0]["problems"]
    verdicts = {}
    for i, job in enumerate(job_list):
        runs = [p["jobs"][i] for p in passes]
        first = runs[0]["sha256"]
        shared = list(problems.get(job["id"], []))
        if reference and reference.get(job["id"]) != first:
            shared.append("output hash differs from the committed reference")
        why = set(shared)
        failed_runs = 0
        for run in runs:
            own = []
            if run["error"] is not None:
                own.append(run["error"].strip().splitlines()[-1])
            elif job["kind"] == "cli" and run["code"] != 0:
                own.append(f"exit code {run['code']}")
            if run["sha256"] != first:
                own.append("output differs between passes")
            why.update(own)
            failed_runs += bool(shared or own)
        verdicts[job["id"]] = {"why": sorted(why), "sha256": first, "failed_runs": failed_runs}
    return verdicts


def end_to_end(job_list: list, passes: list, key: str = "scaled_s") -> dict:
    """End-to-end metrics of the untraced passes, from job times under `key`.

    Each job's time is its median over the passes, and `wall_s` is the sum of
    those medians, the time of the job list with every job at its typical
    speed.
    """
    timed = [p for p in passes if not p["traced"]]
    per_job = [statistics.median([p["jobs"][i][key] for p in timed]) for i in range(len(job_list))]
    tail_value, tail_pct = tail(per_job)
    setup = "setup_s" if key == "scaled_s" else "setup_raw_s"
    return {
        "metrics": {
            "wall_s": sum(per_job),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail_value,
            "setup_s": statistics.median([p[setup] for p in passes]),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in timed]),
        },
        "tail_pct": tail_pct,
        "per_job_s": per_job,
    }


def layer_metrics(passes: list) -> tuple:
    """Per-layer metrics: scaled medians of times, and counts that must repeat exactly."""
    traced = [p for p in passes if p["traced"]]
    out = {}
    unsteady = []
    for name, unit, _ in spans.metric_names():
        values = [p["layers"][name] * (p["speed"] if unit == "s" else 1) for p in traced]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    traced_wall = statistics.median([sum(j["scaled_s"] for j in p["jobs"]) for p in traced])
    untraced_wall = statistics.median([sum(j["scaled_s"] for j in p["jobs"]) for p in passes if not p["traced"]])
    out[TRACE_OVERHEAD[0]] = traced_wall / untraced_wall - 1
    return out, unsteady


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path = DEFAULT_OUT, job_list=None) -> dict:
    """Run one workload and return the record that main() saves and reports."""
    job_list = job_list if job_list is not None else joblists.job_list(workload, seed)
    passes = run_passes(workload, seed, seconds, trace, job_list, out)
    reference = load_reference(workload, seed)
    verdicts = judge(job_list, passes, reference)
    attempted = len(job_list) * len(passes)
    failed = sum(v["failed_runs"] for v in verdicts.values())
    mismatched = sum(1 for job in job_list if reference and reference.get(job["id"]) != verdicts[job["id"]]["sha256"])
    e2e = end_to_end(job_list, passes)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "passes": len(passes),
        "pass_detail": [
            {key: p[key] for key in ("traced", "setup_s", "setup_raw_s", "calibrations")} for p in passes
        ],
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "jobs_per_pass": len(job_list),
        "tail_pct": e2e["tail_pct"],
        "repeat_share": joblists.repeat_share(job_list),
        "reference": f"{len(job_list) - mismatched} of {len(job_list)} hashes match" if reference else "none for this seed",
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "fail_frac": failed / attempted,
        "end_to_end": e2e["metrics"],
        "end_to_end_raw": end_to_end(job_list, passes, key="seconds")["metrics"],
        "jobs": [
            {
                "id": job["id"],
                "median_s": e2e["per_job_s"][i],
                "runs_s": [p["jobs"][i]["scaled_s"] for p in passes if not p["traced"]],
                "raw_runs_s": [p["jobs"][i]["seconds"] for p in passes if not p["traced"]],
                "sha256": verdicts[job["id"]]["sha256"],
                "problems": verdicts[job["id"]]["why"],
            }
            for i, job in enumerate(job_list)
        ],
    }
    if trace:
        record["per_layer"], record["unsteady_counts"] = layer_metrics(passes)
    return record


def save(record: dict, out: Path) -> Path:
    folder = out / record["workload"]
    folder.mkdir(parents=True, exist_ok=True)
    n = 0
    while (path := folder / f"seed{record['seed']}-trace{record['trace']}-{n}.json").exists():
        n += 1
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_reference(record: dict) -> Path:
    if not record["correct"]:
        raise BenchError("refusing to write a reference from a run that failed")
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{record['workload']}-seed{record['seed']}.json"
    payload = {
        "workload": record["workload"],
        "seed": record["seed"],
        "sha256": {job["id"]: job["sha256"] for job in record["jobs"]},
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def report(record: dict, saved: Path) -> dict:
    """Print the human-readable summary and return the metrics of the result line."""
    print(
        f"workload {record['workload']}  seed {record['seed']}  passes {record['passes']}"
        f" ({record['traced_passes']} traced)  jobs/pass {record['jobs_per_pass']}"
        f"  python {record['python']}  nproc {record['nproc']}"
    )
    units = dict(END_TO_END)
    print(f"  {'':<13} {'scaled':>12}      {'raw':>12}")
    for name, value in record["end_to_end"].items():
        note = ""
        if name == "job_tail_s":
            note = f"  (p{record['tail_pct']:.1f} of {record['jobs_per_pass']} per-job medians)"
        raw = record["end_to_end_raw"][name]
        print(f"  {name:<13} {value:12.6f} {units[name]:<4} {raw:12.6f} {units[name]}{note}")
    print(f"  {'fail_frac':<13} {record['fail_frac']:12.6f} ratio  ({record['failed']} of {record['attempted']} job runs)")
    print(f"  repeat_share  {record['repeat_share']:12.6f} ratio  (jobs whose inputs repeat an earlier job's)")
    print(f"  reference     {record['reference']}; saved {saved}")
    for job in record["jobs"]:
        if job["problems"]:
            print(f"  FAILED {job['id']}: {'; '.join(job['problems'])}")
    if not record["trace"]:
        return {name: {"value": value, "unit": units[name]} for name, value in record["end_to_end"].items()}
    layers = record["per_layer"]
    for layer, names in spans.LAYERS.items():
        self_s = sum(layers[f"{layer}.{n}.self_s"] for n in names)
        calls = sum(layers[f"{layer}.{n}.calls"] for n in names)
        print(f"  layer {layer:<9} self {self_s:10.4f} s  calls {calls}")
    for name in record["unsteady_counts"]:
        print(f"  WARNING count {name} differed between traced passes", file=sys.stderr)
    return {name: {"value": layers[name], "unit": unit} for name, unit, _ in per_layer_metrics()}


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_runs(folder: Path) -> list:
    return [
        json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(folder.rglob("seed*-trace*-*.json"))
        if ".work" not in p.parts
    ]


def compare(old_dir: Path, new_dir: Path) -> int:
    """Print median [q1, q3] of every metric on both sides and flag changed outputs."""
    old_runs, new_runs = _load_runs(old_dir), _load_runs(new_dir)
    if not old_runs or not new_runs:
        raise BenchError("both sides need at least one saved run")
    print(f"{'workload':<15} {'metric':<46} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} {'new/old':>8}")
    for workload in joblists.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            old = [r[key] for r in old_runs if r["workload"] == workload and r["trace"] == trace]
            new = [r[key] for r in new_runs if r["workload"] == workload and r["trace"] == trace]
            if not old or not new:
                continue
            for name in sorted(set(old[0]) & set(new[0])):
                q_old = _quartiles([m[name] for m in old])
                q_new = _quartiles([m[name] for m in new])
                ratio = f"{q_new[1] / q_old[1]:8.4f}" if q_old[1] else "     n/a"
                print(
                    f"{workload:<15} {name:<46} "
                    f"{q_old[1]:12.6g} [{q_old[0]:9.4g}, {q_old[2]:9.4g}] "
                    f"{q_new[1]:12.6g} [{q_new[0]:9.4g}, {q_new[2]:9.4g}] {ratio}"
                )
    hashes = {}
    for side, runs in (("old", old_runs), ("new", new_runs)):
        for run in runs:
            for job in run["jobs"]:
                key = (run["workload"], run["seed"], job["id"])
                hashes.setdefault(key, {}).setdefault(side, set()).add(job["sha256"])
    changed = sorted(k for k, v in hashes.items() if len(v) == 2 and v["old"] != v["new"])
    compared = sum(1 for v in hashes.values() if len(v) == 2)
    for workload, seed, job_id in changed:
        print(f"OUTPUT CHANGED {workload} seed {seed} job {job_id}")
    print(f"{compared} jobs compared by output hash, {len(changed)} changed")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="where runs are saved")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's output hashes as the seed's reference")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload is None:
            parser.error("--workload is required unless --compare is given")
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
        saved = save(record, args.out)
        if args.write_reference:
            print(f"  wrote {write_reference(record)}")
        metrics = report(record, saved)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
