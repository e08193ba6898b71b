"""Seeded job lists for the three benchmark workloads.

Every workload has 30 jobs in three size classes: 10 small, 15 medium and 5
large.  The medium jobs share one size, and they cover both ranks that the
end-to-end metrics read, the median (ranks 15 and 16) and the tail (rank 20,
the highest with ten jobs above it).  Within a class, the parameters that
set a job's cost (sigma's denominator, the number of zeros, alpha, which
side of a membership boundary a sequence lies on) are dealt from a fixed
multiset that the seed shuffles; the remaining values are drawn freely.  So
each seed gives different inputs with nearly the same costs, and the
metrics spread little from seed to seed.  The seed also shuffles the order
the jobs run in.

A job is a plain JSON-ready dict:

    id          stable name of the slot, e.g. "rs07"
    kind        "cli" (argv for `hermops.cli.main`) or "falsify"
                (a `falsify_sequence(seq, basis, deg_max)` call)
    seq         sequence descriptor (see `seq_argv`), absent for verify/examples
    repeat_key  the input a cache inside the program could reuse across jobs
    expect      optional extra check: "inconclusive" or "all-real"
"""

import json
import random
from fractions import Fraction

WORKLOADS = ("ratio-scan", "reality-table", "falsify-search")
ALPHAS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def seq_argv(seq: dict) -> list:
    """CLI arguments selecting the sequence a descriptor names."""
    family = seq["family"]
    if family == "factored":
        spec = {"sigma": seq["sigma"], "zeros": seq["zeros"], "m": seq["m"]}
        return ["--factored", json.dumps(spec, sort_keys=True)]
    if family in ("besselJ0", "exp-half-cosh"):
        return ["--seq", family]
    if family == "geom-factorial":
        return ["--seq", f"geom-factorial({seq['r']})"]
    if family == "linear":
        return ["--seq", f"linear({seq['a']})"]
    raise ValueError(f"unknown sequence family {family!r}")


def _dealt(rng, values, n: int) -> list:
    """n values cycling through `values`, in an order the seed shuffles."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _coprime_fraction(rng, den: int, lo: int, hi: int) -> Fraction:
    """A fraction n/den in lowest terms with lo <= n <= hi."""
    while True:
        value = Fraction(rng.randint(lo, hi), den)
        if value.denominator == den:
            return value


def _sigma(rng, den: int, above_one: bool) -> Fraction:
    """n/den in lowest terms, below 1 or in (1, 3)."""
    if above_one:
        return _coprime_fraction(rng, den, den + 1, 3 * den - 1)
    return _coprime_fraction(rng, den, 1, den - 1)


def _factored(rng, sigma: Fraction, n_zeros: int, m: int) -> dict:
    """A factored generator with the given sigma; zeros n/d with n <= 9, d <= 3."""
    zeros = sorted(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(n_zeros))
    return {"family": "factored", "sigma": str(sigma), "zeros": [str(z) for z in zeros], "m": m}


def _free_factored(rng, dens=(2, 3, 4, 5), max_zeros: int = 4) -> dict:
    sigma = _sigma(rng, rng.choice(dens), rng.random() < 0.5)
    return _factored(rng, sigma, rng.randint(0, max_zeros), rng.randint(0, 2))


def _geom(rng) -> dict:
    return {"family": "geom-factorial", "r": str(_coprime_fraction(rng, 3, 4, 11))}


def _ratio_scan(rng) -> list:
    """`hermops ratios` over 30 distinct sequences.

    Small: K = 40..100, factored with 0-4 zeros and geom-factorial.  Medium:
    15 factored generators with sigma = n/3 and 1-4 zeros at K = 180.  Large: exp-half-cosh
    at K = 200, and besselJ0, geom-factorial and two factored generators at
    K = 260..300.  A third of the jobs pass --p, a quarter --histogram.
    """
    slots = []
    for i in range(10):
        slots.append((40 + round(i * 60 / 9), "geom" if i % 3 == 2 else "free"))
    above = _dealt(rng, (True, False), 15)
    n_zeros = _dealt(rng, (1, 2, 3, 4), 15)
    ms = _dealt(rng, (0, 1, 2), 15)
    for i in range(15):
        slots.append((180, (3, above[i], n_zeros[i], ms[i])))
    slots += [
        (200, "exp-half-cosh"),
        (260, "besselJ0"),
        (260, "geom"),
        (280, (3, True, 2, 1)),
        (300, (4, False, 3, 0)),
    ]

    jobs = []
    used = set()
    for i, (kmax, kind) in enumerate(slots):
        while True:
            if kind in ("exp-half-cosh", "besselJ0"):
                seq = {"family": kind}
            elif kind == "geom":
                seq = _geom(rng)
            elif kind == "free":
                seq = _free_factored(rng)
            else:
                den, above_one, zeros, m = kind
                seq = _factored(rng, _sigma(rng, den, above_one), zeros, m)
            key = json.dumps(seq, sort_keys=True)
            if key not in used:
                used.add(key)
                break
        argv = ["ratios", *seq_argv(seq), "--kmax", str(kmax)]
        p = 0
        if i % 3 == 1 and seq["family"] != "exp-half-cosh":
            p = rng.randint(1, 5)
            argv += ["--p", str(p)]
        if i % 4 == 2:
            argv += ["--histogram", str(rng.randint(5, 20))]
        jobs.append({
            "id": f"rs{i:02d}",
            "kind": "cli",
            "argv": argv,
            "seq": seq,
            "kmax": kmax,
            "p": p,
            "repeat_key": json.dumps([seq, p], sort_keys=True),
        })
    return jobs


def _reality_table(rng) -> list:
    """`hermops reality` and `hermops qpoly` with alpha in {1/2, 1, 3/2, 2}.

    Small: reality at K = 20, four of them on series-defined sequences.
    Medium: reality on 15 factored generators at K = 30.  Large: qpoly at
    K = 50, 55 and 60 (45-80 KB of JSON each), reality on a factored
    generator at K = 60, and reality on besselJ0 at K = 35: series
    sequences stay at lower K, since besselJ0 reality at K = 60 alone takes
    seconds.  alpha comes from four values, so (alpha, K) pairs recur.
    """
    series = [
        {"family": "besselJ0"},
        {"family": "exp-half-cosh"},
        {"family": "geom-factorial", "r": str(_coprime_fraction(rng, 3, 1, 8))},
        {"family": "geom-factorial", "r": str(_coprime_fraction(rng, 5, 1, 14))},
    ]
    small_alphas = _dealt(rng, ALPHAS, 10)
    slots = [("reality", 20, small_alphas[i], series[i] if i < 4 else None) for i in range(10)]
    alphas = _dealt(rng, ALPHAS, 15)
    dens = _dealt(rng, (2, 3, 4), 15)
    above = _dealt(rng, (True, False), 15)
    n_zeros = _dealt(rng, (0, 1, 2, 3), 15)
    ms = _dealt(rng, (0, 1, 2), 15)
    for i in range(15):
        slots.append(("reality", 30, alphas[i], _factored(rng, _sigma(rng, dens[i], above[i]), n_zeros[i], ms[i])))
    slots += [
        ("qpoly", 50, rng.choice(ALPHAS), None),
        ("qpoly", 55, rng.choice(ALPHAS), None),
        ("qpoly", 60, rng.choice(ALPHAS), None),
        ("reality", 60, rng.choice(ALPHAS), None),
        ("reality", 35, rng.choice(ALPHAS), {"family": "besselJ0"}),
    ]
    jobs = []
    for i, (command, kmax, alpha, seq) in enumerate(slots):
        if seq is None:
            seq = _free_factored(rng, dens=(2, 3), max_zeros=3)
        job = {
            "id": f"rt{i:02d}",
            "kind": "cli",
            "argv": [command, *seq_argv(seq), "--alpha", str(alpha), "--kmax", str(kmax)],
            "seq": seq,
            "alpha": str(alpha),
            "kmax": kmax,
            "p": 0,
            "repeat_key": json.dumps([str(alpha), kmax]),
        }
        if command == "reality" and seq["family"] == "factored" and Fraction(seq["sigma"]) > 1:
            job["expect"] = "all-real"
        jobs.append(job)
    return jobs


def _falsify_search(rng) -> list:
    """`falsify_sequence` calls plus one `hermops examples` and one `hermops verify`.

    Small: verify and nine searches that stop early on a witness: linear(a)
    at least 2 away from [0, alpha + 1] on the Laguerre basis, and
    geom-factorial(r) and factored sigma in {1/3, 1/4, 1/5} on the Hermite
    basis.  Medium:
    15 searches at deg_max 4 that theory says are inconclusive, so they run
    the whole corpus: linear(a) with 0 <= a <= alpha + 1 on the Laguerre
    basis and factored sigma > 1 on the Hermite basis.  Large: examples and
    four inconclusive searches at deg_max 5 and 6.
    """
    jobs = [{"id": "fs-verify", "kind": "cli", "argv": ["verify"], "repeat_key": "verify"}]
    small = list(zip(_dealt(rng, ("lag-out", "geom", "fac-lt1"), 9), _dealt(rng, (4, 5, 6), 9)))
    medium = list(zip(_dealt(rng, ("lag-in", "fac-gt1"), 15), [4] * 15))
    large = [("lag-in", 5), ("fac-gt1", 5), ("lag-in", 6), ("fac-gt1", 6)]
    alphas = _dealt(rng, ALPHAS, 28)
    for i, ((kind, deg_max), alpha) in enumerate(zip(small + medium + large, alphas)):
        expect = None
        if kind == "lag-out":
            basis = "laguerre"
            a = -Fraction(rng.randint(8, 16), 4) if rng.random() < 0.5 else alpha + 3 + Fraction(rng.randint(0, 8), 4)
            seq = {"family": "linear", "a": str(a)}
        elif kind == "lag-in":
            basis = "laguerre"
            seq = {"family": "linear", "a": str(Fraction(rng.randint(0, int(4 * (alpha + 1))), 4))}
            expect = "inconclusive"
        elif kind == "geom":
            basis = "hermite"
            seq = {"family": "geom-factorial", "r": str(_coprime_fraction(rng, rng.choice((2, 3)), 1, 9))}
        elif kind == "fac-lt1":
            basis = "hermite"
            seq = _factored(rng, Fraction(1, rng.choice((3, 4, 5))), rng.randint(0, 3), rng.randint(0, 2))
        else:
            basis = "hermite"
            seq = _factored(rng, _sigma(rng, 4, True), rng.randint(0, 3), rng.randint(0, 2))
            expect = "inconclusive"
        job = {
            "id": f"fs{i:02d}",
            "kind": "falsify",
            "seq": seq,
            "basis": basis,
            "alpha": str(alpha),
            "deg_max": deg_max,
            "repeat_key": json.dumps([basis, str(alpha), deg_max]),
        }
        if expect:
            job["expect"] = expect
        jobs.append(job)
    jobs.append({"id": "fs-examples", "kind": "cli", "argv": ["examples"], "repeat_key": "examples"})
    return jobs


_BUILDERS = {
    "ratio-scan": _ratio_scan,
    "reality-table": _reality_table,
    "falsify-search": _falsify_search,
}


def job_list(workload: str, seed: int) -> list:
    """The job list of a workload for a seed, in the order the jobs run."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def repeat_share(jobs: list) -> float:
    """Share of jobs whose repeat_key already occurred earlier in the list."""
    seen = set()
    repeats = 0
    for job in jobs:
        if job["repeat_key"] in seen:
            repeats += 1
        seen.add(job["repeat_key"])
    return repeats / len(jobs)
