"""Output checks that do not go through hermops.

The output hashes catch any change of bytes on seeds with committed
references.  These checks hold on every seed: they recompute the finite
differences d_k of each generator by the exponential-shift route,

    d_k = k! * [x^k] e^(-x) * phi(x),

from the generator's own series rather than from its sequence values, with
the shifted differences d_(k,p) = sum_i C(p,i) * d_(k+i).  Against them they
test sampled ratio rows, the two leading coefficients of every Q_k, and the
necessary condition d_k^2 + 2*d_k*d_(k-1) >= 0 for every real-rooted Q_k.
Verdicts that theory fixes (linear(a) with 0 <= a <= alpha + 1 on the
Laguerre basis, factored sigma >= 1 on the Hermite basis) must come back
inconclusive.
"""

import json
import math
from fractions import Fraction


def _product_coeffs(zeros: list) -> list:
    out = [Fraction(1)]
    for z in zeros:
        inv = 1 / Fraction(z)
        out = [a + b * inv for a, b in zip(out + [0], [0] + out)]
    return out


def _shifted_series_coeff(seq: dict, k: int) -> Fraction:
    """[x^k] of e^(-x) * phi(x) for the generator phi of `seq`."""
    family = seq["family"]
    if family == "factored":
        rate = Fraction(seq["sigma"]) - 1
        m = seq["m"]
        coeffs = _product_coeffs(seq["zeros"])
        return sum(
            (a * rate ** (k - m - i) / math.factorial(k - m - i)
             for i, a in enumerate(coeffs) if k - m - i >= 0),
            Fraction(0),
        )
    if family == "exp-half-cosh":
        # e^(-x) * e^(x/2) * cosh(sqrt(2x)) = e^(-x/2) * sum_j 2^j x^j / (2j)!
        return sum(
            (Fraction(2**j, math.factorial(2 * j)) * Fraction(-1, 2) ** (k - j) / math.factorial(k - j)
             for j in range(k + 1)),
            Fraction(0),
        )
    if family in ("besselJ0", "geom-factorial"):
        # phi(x) = sum_n r^n x^n / (n!)^2, with r = 1 for besselJ0
        r = Fraction(seq.get("r", 1))
        return sum(
            (r**n / math.factorial(n) ** 2 * (-1) ** (k - n) / math.factorial(k - n)
             for n in range(k + 1)),
            Fraction(0),
        )
    raise ValueError(f"no exponential-shift route for family {family!r}")


class Differences:
    """d_(k,p) of one sequence, each d_k computed once."""

    def __init__(self, seq: dict, p: int = 0):
        self.seq = seq
        self.p = p
        self._plain = {}

    def _d(self, k: int) -> Fraction:
        if k not in self._plain:
            self._plain[k] = math.factorial(k) * _shifted_series_coeff(self.seq, k)
        return self._plain[k]

    def __getitem__(self, k: int) -> Fraction:
        return sum((math.comb(self.p, i) * self._d(k + i) for i in range(self.p + 1)), Fraction(0))


def _check_ratios(job: dict, text: str) -> list:
    lines = text.split("\n")
    kmax = job["kmax"]
    if lines[0] != "k,num,den,approx" or len(lines) < kmax + 1:
        return [f"ratio CSV has {len(lines)} lines for kmax {kmax}"]
    rows = lines[1:kmax + 1]
    problems = []
    d = Differences(job["seq"], job["p"])
    for k in sorted({1, kmax // 2, kmax}):
        fields = rows[k - 1].split(",")
        if fields[0] != str(k):
            problems.append(f"row {k} is labelled {fields[0]}")
            continue
        prev = d[k - 1]
        if prev == 0:
            if fields[1:] != ["", "", "NA"]:
                problems.append(f"row {k}: ratio must be undefined")
            continue
        expected = d[k] / prev
        if fields[1:3] != [str(expected.numerator), str(expected.denominator)]:
            problems.append(f"row {k}: ratio is not d_k/d_(k-1)")
    if "--histogram" in job["argv"]:
        bins = int(job["argv"][job["argv"].index("--histogram") + 1])
        tail = lines[kmax + 1:]
        defined = sum(1 for row in rows if not row.endswith(",NA"))
        if tail[:2] != ["", "bin,lo,hi,count"] or len([t for t in tail[2:] if t]) != bins:
            problems.append("histogram block malformed")
        elif sum(int(t.split(",")[3]) for t in tail[2:] if t) != defined:
            problems.append("histogram counts do not add up to the defined ratios")
    return problems


def _check_reality(job: dict, text: str) -> list:
    table = json.loads(text)
    kmax = job["kmax"]
    flags = [row["real_rooted"] for row in table["rows"]]
    if [row["k"] for row in table["rows"]] != list(range(kmax + 1)):
        return ["reality rows are not k = 0..kmax"]
    if Fraction(table["alpha"]) != Fraction(job["alpha"]) or table["p"] != 0:
        return ["reality header does not echo alpha and p"]
    problems = []
    if job.get("expect") == "all-real" and not all(flags):
        problems.append("sigma >= 1 but some Q_k is not real-rooted")
    d = Differences(job["seq"])
    for k in range(2, kmax + 1):
        if flags[k] and d[k] * d[k] + 2 * d[k] * d[k - 1] < 0:
            problems.append(f"Q_{k} reported real-rooted but d_k^2 + 2 d_k d_(k-1) < 0")
    return problems


def _check_qpoly(job: dict, text: str) -> list:
    op = json.loads(text)
    kmax = job["kmax"]
    alpha = Fraction(job["alpha"])
    if len(op["Q"]) != kmax + 1 or Fraction(op["alpha"]) != alpha or op["p_shift"] != 0:
        return ["qpoly header or length is wrong"]
    problems = []
    d = Differences(job["seq"])
    for k, q in enumerate(op["Q"]):
        coeffs = [Fraction(c) for c in q["coeffs"]]
        lead = d[k] / math.factorial(k)
        if lead == 0:
            continue
        if len(coeffs) != k + 1 or coeffs[k] != lead:
            problems.append(f"Q_{k}: leading coefficient is not d_k/k!")
            continue
        if any(c for i, c in enumerate(coeffs) if (k - i) % 2):
            problems.append(f"Q_{k}: a coefficient of the wrong parity is nonzero")
        if k >= 2:
            second = -alpha * k * (k - 1) / 2 * lead - alpha * d[k - 1] / math.factorial(k - 2)
            if coeffs[k - 2] != second:
                problems.append(f"Q_{k}: coefficient of x^(k-2) is wrong")
    return problems


def _check_verdict(job: dict, text: str) -> list:
    verdict = json.loads(text)
    status = verdict["status"]
    if status == "inconclusive":
        return [] if verdict.get("bound") == job["deg_max"] else ["inconclusive verdict without its bound"]
    if status != "falsified":
        return [f"unexpected status {status!r}"]
    if job.get("expect") == "inconclusive":
        return ["falsified a sequence that theory says preserves real roots on this basis"]
    witness = verdict["witness"]
    if not 1 <= witness["input_degree"] <= job["deg_max"]:
        return ["witness degree outside 1..deg_max"]
    if not witness["basis"].startswith(job["basis"]):
        return ["witness names another basis"]
    return []


def check_output(job: dict, text: str, code) -> list:
    """Problems found in one job's output; empty when it checks out."""
    if job["kind"] == "falsify":
        return _check_verdict(job, text)
    if code != 0:
        return [f"exit code {code}"]
    command = job["argv"][0]
    if command == "ratios":
        return _check_ratios(job, text)
    if command == "reality":
        return _check_reality(job, text)
    if command == "qpoly":
        return _check_qpoly(job, text)
    if command == "verify":
        lines = text.splitlines()
        return [] if lines and all(line.startswith("PASS ") for line in lines) else ["a verify suite failed"]
    if command == "examples":
        return [] if text and "FAIL" not in text else ["a worked example failed"]
    return [f"no check for command {command!r}"]
