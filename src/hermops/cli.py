"""Command-line interface.

Subcommands:

    qpoly     emit the coefficient polynomials of the diagonal operator
    reality   emit the real-rootedness table of those coefficients
    ratios    emit the finite-difference ratio scan as CSV
    verify    run the exact identity suites and report PASS/FAIL lines
    examples  reproduce the packaged worked examples

All output is deterministic: the same invocation produces byte-identical
bytes.  Configuration errors, argument usage errors among them, print a
one-line JSON object to stderr and exit with status 2; check failures, running
out of memory, a failed write or an internal error (one JSON line each) and a
reader that closes stdout early (a broken pipe, silently) exit with status 1.
``--help`` prints usage and exits 0.
"""

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import re
import sys
from fractions import Fraction

from .classify import coefficient_reality_table
from .demos import DEMO_IDS, run_demo
from .diffop import build_operator, check_diagonal_action, check_operator_equivalence, check_standard_basis_limit
from .hermite import check_identities
from .jensen import (
    GammaSeq,
    approx_str,
    check_difference_reconstruction,
    check_shift_recurrence,
    check_sum_interchange,
    histogram_bins,
    ratio_csv_lines,
    ratio_sequence,
)
from .laguerre import check_eigen_action
from .ratpoly import brief, parse_rat, rat_str
from .sequences import check_range, factored_from_json, make_sequence


class ConfigError(ValueError):
    pass


# A value argparse echoes, quoted as repr quotes it: its first 20 characters (an escape counts as one), then the
# rest. The closing quote is optional, so a match never fails partway and the scan stays linear in the message.
_ECHOED = re.compile(r"""(['"])((?:\\.|(?!\1)[^\\]){0,20})((?:\\.|(?!\1)[^\\])*)\1?""")


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: one JSON line and exit 2, not usage text.  Each argument
    it echoes is cut to its first 20 characters, as `brief` cuts it."""

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:  # argparse would echo them whole, unquoted and joined
            self.error(f"unrecognized arguments: {' '.join(map(brief, extras))}")
        return namespace

    def error(self, message):
        message = _ECHOED.sub(lambda m: f"{m[1]}{m[2]}{m[1]}{'...' if m[3] else ''}", message)
        raise ConfigError(f"{self.prog}: {message}")


def _resolve_sequence(args) -> GammaSeq:
    """The sequence of --seq or --factored; --p, --kmax and the factored sizes are checked against the cap."""
    if (args.seq is None) == (args.factored is None):
        raise ConfigError("exactly one of --seq or --factored is required")
    check_range("p", args.p)  # gamma_0..gamma_(p+kmax) are cached
    seq = make_sequence(args.seq) if args.seq is not None else GammaSeq.from_lpplus(factored_from_json(args.factored))
    check_range("kmax", args.kmax)
    return seq


# The two JSON writers spell out json.dumps(data, indent=2, sort_keys=True) + "\n" for their one shape: keys
# in sorted order, every string rat_str text, which needs no escaping, and every list at least one entry long.
def _qpoly_json(qpolys, alpha, p):
    sep = '{\n  "Q": [\n'
    for q in qpolys:  # a Q_k's coefficients are text only once reached, and joined once
        if q:
            yield sep + '    {\n      "coeffs": [\n        "'
            yield '",\n        "'.join(q.to_json_dict()["coeffs"])
            yield '"\n      ]\n    }'
        else:
            yield sep + '    {\n      "coeffs": []\n    }'
        sep = ",\n"
    yield f'\n  ],\n  "alpha": "{rat_str(alpha)}",\n  "p_shift": {p}\n}}\n'


def _reality_json(rows, alpha, p):
    sep = f'{{\n  "alpha": "{rat_str(alpha)}",\n  "p": {p},\n  "rows": [\n'
    for k, real in enumerate(rows):
        yield f'{sep}    {{\n      "k": {k},\n      "real_rooted": {"true" if real else "false"}\n    }}'
        sep = ",\n"
    yield "\n  ]\n}\n"


def _csv(*parts):
    """The lines of each part in turn, each made with its newline only when written."""
    return (f"{line}\n" for line in itertools.chain.from_iterable(parts))


def _emit(pieces, path) -> None:
    """Write the text pieces as they are made, a long one in buffer-sized slices; the text layer joins short ones."""
    size = io.DEFAULT_BUFFER_SIZE  # a longer write that a departing reader cuts short drops the rest silently
    target = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="\n")
    with target as fh:
        for piece in pieces:
            if len(piece) > size:
                for i in range(0, len(piece), size):
                    fh.write(piece[i : i + size])
            elif piece:
                fh.write(piece)


def _cmd_qpoly(args) -> int:
    seq = _resolve_sequence(args)
    alpha = parse_rat(args.alpha)
    qpolys = build_operator(alpha, seq, args.kmax, args.p)
    rows = (f"{k},{' '.join(q.to_json_dict()['coeffs'])}" for k, q in enumerate(qpolys))
    _emit(_qpoly_json(qpolys, alpha, args.p) if args.format == "json" else _csv(["k,coeffs"], rows), args.output)
    return 0


def _cmd_reality(args) -> int:
    seq = _resolve_sequence(args)
    alpha = parse_rat(args.alpha)
    table = coefficient_reality_table(alpha, seq, args.kmax, args.p)
    rows = (f"{k},{'true' if real else 'false'}" for k, real in enumerate(table))
    _emit(_reality_json(table, alpha, args.p) if args.format == "json" else _csv(["k,real_rooted"], rows), args.output)
    return 0


def _cmd_ratios(args) -> int:
    seq = _resolve_sequence(args)
    bins = args.histogram
    if bins is not None:
        if bins < 1:
            raise ConfigError("histogram bin count must be positive")
        check_range("histogram", bins)
    rows = ratio_sequence(seq, args.kmax, args.p)
    counts = [] if bins is None else histogram_bins([v for _, v in rows if v is not None], bins)
    histogram = (f"{i},{approx_str(lo)},{approx_str(hi)},{n}" for i, (lo, hi, n) in enumerate(counts))
    _emit(_csv(ratio_csv_lines(rows), [] if bins is None else ["", "bin,lo,hi,count"], histogram), args.output)
    return 0


def _verify_suites():
    const1 = make_sequence("const1")
    linear3 = make_sequence("linear(3)")
    ex311 = make_sequence("example311")
    bessel = make_sequence("besselJ0")

    yield check_difference_reconstruction(const1, 10)
    yield check_difference_reconstruction(ex311, 10)
    yield check_difference_reconstruction(bessel, 10)
    for seq in (ex311, bessel, linear3):
        yield check_shift_recurrence(seq, 8, 4)
    table = {(k, i): Fraction((k + 1) * (i + 2), 3) for k in range(10) for i in range(10)}
    for j in range(3):
        yield check_sum_interchange(8, j, table)
    yield check_identities(12, Fraction(1))
    for seq in (const1, linear3, ex311, bessel):
        yield check_diagonal_action(Fraction(1), seq, 10)
        yield check_operator_equivalence(Fraction(1), seq, 8)
    yield check_standard_basis_limit(bessel, 6)
    yield check_standard_basis_limit(ex311, 6)
    for alpha in (Fraction(0), Fraction(1), Fraction(2)):
        yield check_eigen_action(alpha, alpha + 1, 10)


def _print_reports(reports) -> int:
    """Each report's line and its notes; 0 if every report passed, else 1."""
    all_passed = True
    for report in reports:
        print(report.line())
        for note in report.notes:
            print(f"  {note}")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def _cmd_verify(_args) -> int:
    return _print_reports(_verify_suites())


def _cmd_examples(args) -> int:
    ids = DEMO_IDS if args.id == "all" else (args.id,)
    return _print_reports(run_demo(demo_id) for demo_id in ids)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    parser = _Parser(
        prog="hermops",
        description="Exact diagonal differential operators on the Hermite basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sequence_options(p):
        p.add_argument("--seq", help="named sequence selector, e.g. besselJ0 or linear(3)")
        p.add_argument(
            "--factored",
            help='factored generator as JSON, e.g. \'{"sigma": "1/2", "zeros": ["1", "1"]}\'',
        )
        p.add_argument("--p", type=int, default=0, help="index offset (default 0, capped like --kmax)")
        p.add_argument("--output", help="write to this path instead of stdout")

    for name, func, text in (
        ("qpoly", _cmd_qpoly, "coefficient polynomials of the diagonal operator"),
        ("reality", _cmd_reality, "real-rootedness table of the coefficients"),
    ):
        c = sub.add_parser(name, help=text)
        add_sequence_options(c)
        c.add_argument("--alpha", required=True, help="Hermite parameter, e.g. 1 or 1/2")
        c.add_argument("--kmax", type=int, required=True, help="highest coefficient index")
        c.add_argument("--format", choices=("json", "csv"), default="json")
        c.set_defaults(func=func)

    t = sub.add_parser("ratios", help="finite-difference ratio scan as CSV")
    add_sequence_options(t)
    t.add_argument("--kmax", type=int, required=True)
    t.add_argument("--histogram", type=int, help="append equal-width bin counts (capped like --kmax)")
    t.set_defaults(func=_cmd_ratios)

    v = sub.add_parser("verify", help="run the exact identity suites")
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("examples", help="reproduce the packaged worked examples")
    e.add_argument("--id", default="all", choices=("all",) + DEMO_IDS)
    e.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe or a full device raises here, not at exit
        return code
    except MemoryError:
        sys.stderr.write('{"error": "out of memory"}\n')
        return 1
    except (ValueError, OSError) as exc:
        if not isinstance(exc, BrokenPipeError):  # a departed reader ends the output silently
            sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        # An OSError naming a path is a bad --output or file: path; naming none, a failed write.
        if not isinstance(exc, OSError) or exc.filename is not None:
            return 2
        try:  # bytes stdout could not write stay in its buffer: devnull takes them, not the flush at exit
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # a fault of the program, not of its input
        sys.stderr.write(json.dumps({"error": f"internal error: {type(exc).__name__}: {exc}"}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
