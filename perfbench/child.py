"""One pass of a workload's job list, in a fresh interpreter.

Usage (started by run.py, one process at a time):

    python3 perfbench/child.py JOBS.json RESULT.json [--trace SPANS.jsonl] [--check]

The pass imports hermops from the checkout's `src/`, builds the inputs from
the job list, warms up on inputs that no job uses, then runs the jobs back to
back and writes per-job times and output hashes to RESULT.json.  With
--trace it wraps the layers' public functions for the pass (see spans.py)
and adds the per-layer metrics; with --check it also runs the independent
output checks of checks.py after the timed part.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_hermops():
    """Import hermops from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "hermops" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hermops package under {src}")
    sys.path.insert(0, str(src))
    import hermops
    import hermops.cli

    if Path(hermops.__file__).resolve().parent != (src / "hermops").resolve():
        raise SystemExit(f"perfbench: imported hermops from {hermops.__file__}, not from {src}")
    return hermops


def build_sequence(hermops, seq: dict):
    family = seq["family"]
    if family == "factored":
        spec = hermops.FactoredSpec(
            m=seq["m"],
            sigma=Fraction(seq["sigma"]),
            zeros=tuple(Fraction(z) for z in seq["zeros"]),
        )
        return hermops.GammaSeq.from_lpplus(spec)
    if family == "linear":
        return hermops.GammaSeq.linear(Fraction(seq["a"]))
    if family == "geom-factorial":
        return hermops.GammaSeq.geometric_factorial(Fraction(seq["r"]))
    return hermops.make_sequence(family)


def build_basis(hermops, job: dict):
    cls = hermops.HermiteBasis if job["basis"] == "hermite" else hermops.LaguerreBasis
    return cls(Fraction(job["alpha"]))


def prepare(hermops, job: dict):
    """A zero-argument callable that runs the job and returns (text, exit code)."""
    if job["kind"] == "cli":
        cli = sys.modules["hermops.cli"]
        argv = list(job["argv"])

        def run_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return out.getvalue(), code

        return run_cli
    seq = build_sequence(hermops, job["seq"])
    basis = build_basis(hermops, job)
    deg_max = job["deg_max"]

    def run_falsify():
        verdict = hermops.falsify_sequence(seq, basis, deg_max)
        return json.dumps(verdict.to_json_dict(), sort_keys=True), 0

    return run_falsify


# Inputs no job list uses (alpha = 5, sigma = 9/7, deg_max 2), so warming up
# leaves nothing behind that a job could reuse.
WARMUP_JOBS = (
    {"kind": "cli", "argv": ["ratios", "--factored", '{"sigma": "9/7"}', "--kmax", "12", "--histogram", "3"]},
    {"kind": "cli", "argv": ["reality", "--factored", '{"sigma": "9/7"}', "--alpha", "5", "--kmax", "6"]},
    {"kind": "cli", "argv": ["qpoly", "--seq", "geom-factorial(7/9)", "--alpha", "5", "--kmax", "6"]},
    {"kind": "falsify", "seq": {"family": "linear", "a": "1/3"}, "basis": "hermite", "alpha": "5", "deg_max": 2},
    {"kind": "falsify", "seq": {"family": "linear", "a": "1/3"}, "basis": "laguerre", "alpha": "5", "deg_max": 2},
)


def calibrate() -> float:
    """Seconds taken by a fixed stdlib kernel: sums of products of big Fractions.

    It runs before the first job and after every job, so that run.py can
    scale each job time to one machine speed: on a shared host the speed of
    the same code drifts by up to 2x within minutes.  Like the jobs, it
    allocates and multiplies rationals of a few hundred bits, which made it
    track their slowdowns more closely than a small-integer kernel.  It uses
    no hermops code, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    xs = [Fraction(3 ** (k % 40 + 20), 7 ** (k % 30 + 10) + k) for k in range(120)]
    ys = [Fraction(5 ** (k % 35 + 15) + 1, 2 ** (k % 60 + 30)) for k in range(120)]
    acc = [Fraction(0)] * 40
    for i in range(40):
        for j in range(0, 120, 4):
            acc[i] += xs[(i + j) % 120] * ys[j]
    return time.perf_counter() - start


def run_pass(jobs: list, runners: list, tracer=None) -> dict:
    """Run the prepared jobs back to back; return timings, outputs and exit codes.

    The kernel of `calibrate` runs before the first job and after each job;
    hashing waits until the last job has finished.
    """
    records = []
    outputs = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        calibrations = [calibrate()]
        for job, runner in zip(jobs, runners):
            if tracer:
                tracer.job = job["id"]
            start = time.perf_counter()
            error = None
            try:
                text, code = runner()
            except Exception:
                text, code, error = "", None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
            calibrations.append(calibrate())
            outputs.append(text)
            records.append({"id": job["id"], "seconds": seconds, "code": code, "error": error})
    for record, text in zip(records, outputs):
        record["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        record["bytes"] = len(text.encode("utf-8"))
    return {"jobs": records, "outputs": outputs, "calibrations": calibrations}


def main(argv: list) -> int:
    jobs_path, result_path = Path(argv[0]), Path(argv[1])
    trace_path = Path(argv[argv.index("--trace") + 1]) if "--trace" in argv else None
    hermops = import_hermops()
    jobs = json.loads(jobs_path.read_text(encoding="utf-8"))
    runners = [prepare(hermops, job) for job in jobs]
    for job in WARMUP_JOBS:
        prepare(hermops, job)()
    tracer = None
    if trace_path is not None:
        from spans import Tracer

        tracer = Tracer()
    ready = time.perf_counter()

    result = run_pass(jobs, runners, tracer)
    outputs = result.pop("outputs")
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cli_bytes = sum(r["bytes"] for r, job in zip(result["jobs"], jobs) if job["kind"] == "cli")
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(extra={"cli.out_bytes": cli_bytes})
        tracer.write_jsonl(trace_path)
    if "--check" in argv:
        from checks import check_output

        result["problems"] = {
            job["id"]: check_output(job, text, record["code"])
            for job, text, record in zip(jobs, outputs, result["jobs"])
            if record["error"] is None
        }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
