import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermops
from hermops import cli
from hermops.classify import coefficient_reality_table
from hermops.cli import main
from hermops.diffop import build_operator
from hermops.jensen import DifferenceTable, GammaSeq, ratio_csv_lines
from hermops.ratpoly import ZERO, RatPoly, parse_rat
from hermops.sequences import factored_from_json, make_sequence
from oracles import encoder_qpoly_json, encoder_reality_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qpoly_json(capsys):
    code, out, err = run_cli(
        capsys, "qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "3"
    )
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["alpha"] == "1/1"
    assert data["p_shift"] == 0
    assert data["Q"][2]["coeffs"] == ["1/4", "0/1", "-1/4"]
    assert data["Q"][3]["coeffs"] == ["0/1", "1/6", "0/1", "1/9"]


def test_qpoly_csv(capsys):
    code, out, _ = run_cli(
        capsys, "qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["k,coeffs", "0,1/1", "1,", "2,1/4 0/1 -1/4"]


def test_reality_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "reality",
        "--factored",
        '{"sigma": "1/2", "zeros": ["1", "1"]}',
        "--alpha",
        "1",
        "--kmax",
        "5",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "k,real_rooted",
        "0,true",
        "1,true",
        "2,true",
        "3,true",
        "4,false",
        "5,false",
    ]


def test_json_headers_echo_the_parsed_alpha_and_p(capsys):
    """Both JSON writers print alpha in lowest terms and p as given: --alpha 2/4 --p 2 reads back 1/2 and 2."""
    for command, p_key in (("qpoly", "p_shift"), ("reality", "p")):
        code, out, err = run_cli(capsys, command, "--seq", "besselJ0", "--alpha", "2/4", "--p", "2", "--kmax", "3")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["alpha"], data[p_key]) == ("1/2", 2)


def test_reality_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "reality", "--seq", "example311", "--alpha", "2", "--kmax", "4", "--p", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 1
    assert len(data["rows"]) == 5


def test_ratios_stdout(capsys):
    code, out, _ = run_cli(capsys, "ratios", "--seq", "example311", "--kmax", "3")
    assert code == 0
    assert out.splitlines() == [
        "k,num,den,approx",
        "1,3,2,1.5",
        "2,1,6,0.166666666667",
        "3,-13,2,-6.5",
    ]


def test_ratios_undefined_rows(capsys):
    code, out, _ = run_cli(capsys, "ratios", "--seq", "besselJ0", "--kmax", "2")
    assert code == 0
    assert out.splitlines()[2] == "2,,,NA"


def test_ratios_histogram_counts_sum(capsys):
    code, out, _ = run_cli(
        capsys, "ratios", "--seq", "exp-half-cosh", "--kmax", "60", "--histogram", "8"
    )
    assert code == 0
    lines = out.splitlines()
    split = lines.index("")
    ratio_rows = lines[1:split]
    defined = [row for row in ratio_rows if not row.endswith("NA")]
    hist_rows = lines[split + 2 :]
    assert len(hist_rows) == 8
    total = sum(int(row.split(",")[3]) for row in hist_rows)
    assert total == len(defined)


@pytest.mark.parametrize(
    "source, p",
    [
        (["--seq", "besselJ0"], 0),
        (["--seq", "exp-half-cosh"], 0),
        (["--seq", "geom-factorial(-5/3)"], 0),
        (["--factored", '{"c": "2/3", "m": 1, "sigma": "5/4", "zeros": ["1/2", "3"]}'], 3),
    ],
)
def test_ratios_match_the_row_by_row_table(capsys, source, p):
    kmax = 400
    code, out, _ = run_cli(capsys, "ratios", *source, "--kmax", str(kmax), "--p", str(p))
    assert code == 0
    if source[0] == "--seq":
        seq = make_sequence(source[1])
    else:
        seq = GammaSeq.from_lpplus(factored_from_json(source[1]))
    oracle = DifferenceTable(GammaSeq(lambda k: seq[k]), kmax, p)
    rows = [(k, oracle.ratio(k)) for k in range(1, kmax + 1)]
    assert out == "\n".join(ratio_csv_lines(rows)) + "\n"


_PIN_SOURCES = {
    "besselJ0": ("--seq", "besselJ0", "--alpha", "1"),
    "factored": ("--factored", '{"sigma": "3/2", "zeros": ["1", "2"]}', "--alpha", "7/3", "--p", "3"),
    "linear(3)": ("--seq", "linear(3)", "--alpha", "1"),
}


@pytest.mark.parametrize(
    "command, source, digest",
    [
        ("qpoly", "besselJ0", "0c7ef17ad1ac4d7bef4c269dce95fdf8afd786eebc30dd83aeeca30ff5cf2e02"),
        ("qpoly", "factored", "70de49675aa130c95a63b8c0beb1cd06d85c8644fc3a1c2e5b30287bc25e540b"),
        ("qpoly", "linear(3)", "edac4f8503215915ec89aa9b5cd37ddbc0630bcbca07bc346958dba09c337e54"),
        ("reality", "besselJ0", "2713292a582a880cff09cfd151f3f4d0b3ffef1d9ee683dfbe80a96670b67b3d"),
        ("reality", "factored", "a8bb29eaa8d3edb99910822316abfe7568f3124dee159c996c6100b6271d441d"),
        ("reality", "linear(3)", "b9c93cd090aef0b744bc9ca9c646a480f33053b59488fd93fb78f79e853b2b51"),
    ],
)
def test_output_bytes_at_k_120_are_pinned(capsys, command, source, digest):
    # The bench's reference hashes stop at K = 60; these pin the bytes at twice that.
    extra = ("--format", "csv") if command == "qpoly" else ()
    code, out, err = run_cli(capsys, command, *_PIN_SOURCES[source], "--kmax", "120", *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, fmt, source, digest",
    [
        ("qpoly", "json", "besselJ0", "7ba02e2d9b0a9e32ef1f6a178da3768037ce621c1f44eb2ccfc97cf3f79b4136"),
        ("qpoly", "json", "factored", "dfb098df442834eb8ade3d9e61628a34e3fca3a581b9167b4d87e539d66d9642"),
        ("qpoly", "json", "linear(3)", "ca8ad276515907f3d81a763b689b6585b5d4cd31876818f1840c32a862551a26"),
        ("reality", "csv", "besselJ0", "329d44fcb825b33235c46a8120adf3325cb74f4c9247f6f65bb0bece560900a3"),
        ("reality", "csv", "factored", "067e8a8fa55105e5020774ae8e55b8ac90a5fc961bf54a1012bfcfc23228ce73"),
        ("reality", "csv", "linear(3)", "067e8a8fa55105e5020774ae8e55b8ac90a5fc961bf54a1012bfcfc23228ce73"),
    ],
)
def test_other_format_at_k_120_is_pinned(capsys, command, fmt, source, digest):
    # The formats the test above leaves out: qpoly's streamed JSON encoder and reality's CSV.
    code, out, err = run_cli(capsys, command, *_PIN_SOURCES[source], "--kmax", "120", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_RAT_TEXT = re.compile(r"-?\d+/\d+")


def _assert_rat_text(text, strings):
    assert all(_RAT_TEXT.fullmatch(s) for s in strings), text


_COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**700), 10**700), st.integers(1, 10**40)),  # past int_str's split
)
_ALPHAS = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1000, 7)]), st.fractions(0))


@settings(max_examples=80, deadline=None)
@given(_ALPHAS, st.integers(0, 2000), st.lists(st.lists(_COEFFS, max_size=6).map(RatPoly), min_size=1, max_size=5))
@example(Fraction(1000, 7), 3, [ZERO])
@example(Fraction(1), 0, [RatPoly([-1, 0, Fraction(-5, 3)]), ZERO, ZERO])
def test_qpoly_json_writer_matches_the_encoder_on_drawn_operators(alpha, p, qpolys):
    text = "".join(cli._qpoly_json(qpolys, alpha, p))
    assert text == encoder_qpoly_json(qpolys, alpha, p)
    data = json.loads(text)
    _assert_rat_text(text, [data["alpha"], *(s for q in data["Q"] for s in q["coeffs"])])


@settings(max_examples=80, deadline=None)
@given(_ALPHAS, st.integers(0, 2000), st.lists(st.booleans(), min_size=1, max_size=12))
@example(Fraction(1000, 7), 0, [True] * 6)
@example(Fraction(1, 2), 4, [False] * 6)
def test_reality_json_writer_matches_the_encoder_on_drawn_tables(alpha, p, verdicts):
    text = "".join(cli._reality_json(verdicts, alpha, p))
    assert text == encoder_reality_json(verdicts, alpha, p)
    _assert_rat_text(text, [json.loads(text)["alpha"]])


@pytest.mark.parametrize(
    "selector, alpha, kmax, p",
    [
        ("const1", "1", 6, 0),  # Q_1..Q_6 are zero
        ("besselJ0", "1", 8, 0),  # Q_1 is zero
        ("besselJ0", "1/2", 0, 0),
        ("exp-half-cosh", "1000/7", 14, 5),
        ("linear(-1/2)", "3", 4, 2),  # negative coefficients
        ("geom-factorial(-5/3)", "2/9", 10, 1),
    ],
)
def test_json_output_matches_the_encoder(capsys, selector, alpha, kmax, p):
    source = ("--seq", selector, "--alpha", alpha, "--kmax", str(kmax), "--p", str(p))
    seq = make_sequence(selector)
    a = parse_rat(alpha)
    oracles = (
        ("qpoly", encoder_qpoly_json(build_operator(a, seq, kmax, p), a, p)),
        ("reality", encoder_reality_json(coefficient_reality_table(a, seq, kmax, p), a, p)),
    )
    for command, oracle in oracles:
        code, out, err = run_cli(capsys, command, *source)
        assert (code, err) == (0, "")
        assert out == oracle
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_qpoly_json_reaches_the_writer_before_its_last_q_is_text(monkeypatch):
    """_emit receives its first piece while Q_K has not been rendered, and each nonzero Q_k is rendered once."""
    kmax = 30
    qpolys = build_operator(1, make_sequence("besselJ0"), kmax)
    rendered, at_first = [], []
    to_json_dict = RatPoly.to_json_dict
    monkeypatch.setattr(RatPoly, "to_json_dict", lambda q: rendered.append(q) or to_json_dict(q))

    def emit(pieces, path):
        pieces = iter(pieces)
        text = next(pieces)
        at_first.extend(rendered)
        json.loads(text + "".join(pieces))

    monkeypatch.setattr(cli, "_emit", emit)
    assert main(["qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", str(kmax)]) == 0
    assert qpolys[-1] not in at_first
    assert rendered == [q for q in qpolys if q]


def _traced_peak(*argv):
    """tracemalloc's peak over one in-process run of main, which must succeed."""
    tracemalloc.start()
    try:
        code = main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_qpoly_output_is_streamed(tmp_path, fmt):
    """With --output, qpoly never holds its whole output: the traced peak stays below the file's size."""
    path = tmp_path / f"q.{fmt}"
    peak = _traced_peak("qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "150", "--format", fmt, "--output", str(path))
    assert peak < path.stat().st_size


def test_ratios_output_is_streamed(tmp_path):
    """ratios makes each line only when it is written: the traced peak stays below the file's size."""
    path = tmp_path / "ratios.csv"
    peak = _traced_peak("ratios", "--seq", "exp-half-cosh", "--kmax", "1000", "--output", str(path))
    assert peak < path.stat().st_size


def test_emit_writes_every_piece_in_buffer_sized_writes(monkeypatch):
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    pieces = ["a" * n for n in (0, 1, 5000, 3191, 8192, 20000, 3, 70000, 17)]
    monkeypatch.setattr(sys, "stdout", Recorder())
    cli._emit(iter(pieces), None)
    assert "".join(writes) == "".join(pieces)
    assert all(0 < len(text) <= io.DEFAULT_BUFFER_SIZE for text in writes)


def test_emit_never_copies_a_whole_piece(monkeypatch):
    """A Q_k's text framed by short pieces is written in slices, never joined to its neighbours in one copy."""

    class Sink:
        def write(self, text):
            return len(text)

    big = "7" * (4 << 20)
    pieces = ['{\n  "coeffs": [\n    "', big, '"\n  ]\n}\n']
    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        cli._emit(iter(pieces), None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(big)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("reality", "--seq", "exp-half-cosh", "--alpha", "1", "--p", "500", "--kmax", "120"),
            "0bc30a9c7e8668189e18624da72cbe916d16747828d9024a41d3df816e8383cc",
        ),
        (
            ("qpoly", "--seq", "exp-half-cosh", "--alpha", "3/2", "--p", "7", "--kmax", "60"),
            "f243108770148d78d8e76fe9c25d1ea591ceed8ccad0c401a21b857ea0433f8f",
        ),
    ],
)
def test_shifted_series_output_bytes_are_pinned(capsys, argv, digest):
    # A shift p > 0 runs exp-half-cosh's differences at order 3, which the bench never reaches.
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "source, extra, digest",
    [
        ("exp-half-cosh", ("--kmax", "1000", "--histogram", "7"), "2577605d11654e6289bf2242c9f304223cb1da70c4e9a1fbec68a0f4c08a3cb8"),
        ("exp-half-cosh", ("--kmax", "1000", "--histogram", "100"), "1aa17f870e2e76d10f91db42d588cd6e670955243cad9522d10d184183e154d5"),
        ("besselJ0", ("--kmax", "600", "--p", "3", "--histogram", "20"), "deba99be75872a62b7923dfa674fee602edbefe670208a17178286d31070233f"),
        ("file", ("--kmax", "9", "--histogram", "4"), "619da0de0942f78ac93421ba3633f1ac3aaa84455b996896fa54a5825060c1ec"),
    ],
)
def test_histogram_bytes_above_the_bench_sizes_are_pinned(tmp_path, capsys, source, extra, digest):
    # The bench's histograms stop at K = 300; "file" has ratios near 10^450, past the float range.
    if source == "file":
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"gammas": [f"{k + 1}{'0' * (450 * k)}/{k + 2}" for k in range(10)]}))
        source = f"file:{path}"
    code, out, err = run_cli(capsys, "ratios", "--seq", source, *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_file_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "ratios",
            "--seq",
            "exp-half-cosh",
            "--kmax",
            "120",
            "--histogram",
            "10",
            "--output",
            str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize(
    "command, digest",
    [
        ("verify", "a3208db79a7ecdece463302be472ad3567abe4539bacdb65cfaacb455371251d"),
        ("examples", "0cfa1c5a9a2c8725abb67f29a5465236c39d720b0c98df0b449a3bfe7f4220ca"),
    ],
    ids=["verify", "examples"],
)
def test_check_commands_print_pinned_bytes(capsys, command, digest):
    # Every PASS line, its "(N checks)" count and every note, byte for byte.
    code, out, _ = run_cli(capsys, command)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("demo_id", ["table1", "bessel", "linear-op", "geom-family", "laguerre"])
def test_examples_each(capsys, demo_id):
    code, out, _ = run_cli(capsys, "examples", "--id", demo_id)
    assert code == 0
    assert out.startswith("PASS")


def test_examples_print_the_notes_in_order(capsys):
    # The lines under each PASS line are the report's notes, byte for byte.
    code, out, _ = run_cli(capsys, "examples", "--id", "table1")
    assert code == 0
    assert out.splitlines()[2:] == [
        "  k=1: 3/2",
        "  k=2: 1/6",
        "  k=3: -13/2",
        "  k=4: -33/26",
        "  k=5: -61/66",
        "  k=6: -97/122",
        "  k=7: -141/194",
    ]
    code, out, _ = run_cli(capsys, "examples", "--id", "geom-family")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS geom-factorial-family (12 checks)"
    assert lines[1].startswith("  NOTE (documented divergence)")
    assert lines[2:] == [
        f"  r={r}: Q_2 real-rooted={q2}, Q_4 real-rooted=False"
        for r, q2 in (("0/1", False), ("1/2", False), ("4/7", False), ("3/5", True), ("9/10", True), ("1/1", True))
    ]


def test_error_unknown_sequence(capsys):
    code, out, err = run_cli(capsys, "qpoly", "--seq", "nope", "--alpha", "1", "--kmax", "2")
    assert code == 2
    assert out == ""
    assert "unknown sequence" in json.loads(err)["error"]


def test_error_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "qpoly", "--alpha", "1", "--kmax", "2")
    assert code == 2
    assert "exactly one" in json.loads(err)["error"]

    code, _, err = run_cli(
        capsys,
        "qpoly",
        "--seq",
        "const1",
        "--factored",
        '{"sigma": "1"}',
        "--alpha",
        "1",
        "--kmax",
        "2",
    )
    assert code == 2
    assert "exactly one" in json.loads(err)["error"]


def test_error_alpha_nonpositive_reality(capsys):
    code, _, err = run_cli(capsys, "reality", "--seq", "const1", "--alpha", "0", "--kmax", "2")
    assert code == 2
    assert "alpha" in json.loads(err)["error"]


def test_error_kmax_cap(capsys, monkeypatch):
    monkeypatch.setenv("HERMOPS_KMAX_CAP", "10")
    code, _, err = run_cli(capsys, "ratios", "--seq", "const1", "--kmax", "11")
    assert code == 2
    assert "HERMOPS_KMAX_CAP" in json.loads(err)["error"]


def test_error_p_cap(capsys, monkeypatch):
    # --p sets how many gammas get cached, so it is capped like --kmax.
    monkeypatch.setenv("HERMOPS_KMAX_CAP", "10")
    for command in (["ratios"], ["qpoly", "--alpha", "1"], ["reality", "--alpha", "1"]):
        code, out, err = run_cli(capsys, *command, "--seq", "const1", "--kmax", "2", "--p", "11")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "HERMOPS_KMAX_CAP" in json.loads(err)["error"]
    code, _, _ = run_cli(capsys, "ratios", "--seq", "const1", "--kmax", "2", "--p", "10")
    assert code == 0


@pytest.mark.parametrize("cap", ["abc", "-5", "0"])
def test_error_bad_kmax_cap(capsys, monkeypatch, cap):
    # The error blames the setting and quotes it, not the input it would reject.
    monkeypatch.setenv("HERMOPS_KMAX_CAP", cap)
    code, out, err = run_cli(capsys, "ratios", "--seq", "const1", "--kmax", "3")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    message = json.loads(err)["error"]
    assert "HERMOPS_KMAX_CAP" in message and repr(cap) in message


@pytest.mark.parametrize(
    "cap, kmax, exceeds",
    [("9" * 5000, "3", False), ("0" * 5000 + "5", "5", False), ("0" * 5000 + "5", "6", True)],
    ids=["5000-nines", "zeros-then-5-at-cap", "zeros-then-5-over-cap"],
)
def test_a_cap_of_any_length_is_compared_exactly(capsys, monkeypatch, cap, kmax, exceeds):
    # int() refuses strings of more than 4,300 digits; the cap is compared by its digits instead.
    monkeypatch.setenv("HERMOPS_KMAX_CAP", cap)
    code, out, err = run_cli(capsys, "ratios", "--seq", "const1", "--kmax", kmax)
    if exceeds:
        assert _assert_one_json_error_line(code, out, err) == "kmax 6 exceeds the configured cap 5 (HERMOPS_KMAX_CAP)"
    else:
        assert (code, err) == (0, "")


def test_ratios_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gammas": ["1", "1" + "0" * 400]}))
    code, out, err = run_cli(capsys, "ratios", "--seq", f"file:{path}", "--kmax", "1", "--histogram", "2")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == f"1,{'9' * 400},1,1e+400"
    assert lines[-2:] == ["0,1e+400,1e+400,1", "1,1e+400,1e+400,0"]


def test_error_bad_factored_json(capsys):
    code, _, err = run_cli(
        capsys, "qpoly", "--factored", "{bad json", "--alpha", "1", "--kmax", "2"
    )
    assert code == 2
    assert json.loads(err)["error"]


def _assert_one_json_error_line(code, out, err):
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return json.loads(err)["error"]


@pytest.mark.parametrize(
    "content, source, name",
    [
        (b"", "file", "sequence file"),
        (b'\xff{"gammas": []}', "file", "sequence file"),
        (None, "{nope", "factored generator"),
    ],
    ids=["empty-file", "non-utf8-file", "factored-bad-json"],
)
def test_error_on_malformed_json_names_its_input(tmp_path, capsys, content, source, name):
    if source == "file":
        path = tmp_path / "gammas.json"
        path.write_bytes(content)
        argv, name = ["--seq", f"file:{path}"], f"{name} {path}"
    else:
        argv = ["--factored", source]
    code, out, err = run_cli(capsys, "ratios", *argv, "--kmax", "3")
    assert _assert_one_json_error_line(code, out, err).startswith(f"{name} is not valid JSON: ")


def test_error_deeply_nested_factored_json(capsys):
    deep = "[" * 20000 + "]" * 20000
    code, out, err = run_cli(capsys, "ratios", "--factored", f'{{"sigma": {deep}}}', "--kmax", "3")
    assert "factored generator" in _assert_one_json_error_line(code, out, err)


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"sigma": "1/2", "bogus": 1}', "unknown key 'bogus'"),
        ('{"sigma": "1/2", "zero": ["1"]}', "unknown key 'zero'"),
        ('{"sgima": "1/2"}', "unknown key 'sgima'"),
        ('{"sigma": "1/2", "sigma": "3/2"}', "duplicate key 'sigma'"),
        ('{"sigma": "1/2", "zeros": ["1"], "m": 0, "zeros": []}', "duplicate key 'zeros'"),
    ],
)
def test_error_factored_key_unknown_or_given_twice(capsys, spec, message):
    code, out, err = run_cli(capsys, "ratios", "--factored", spec, "--kmax", "3")
    assert _assert_one_json_error_line(code, out, err).startswith(f"factored generator: {message}")


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"gammas": ["1"], "gammas": ["1", "5"], "gamas": 3}', ": duplicate key 'gammas'"),
        ('{"gammas": ["1"], "bogus": 1}', ": unknown key 'bogus'; known: gammas"),
        ('{"gammas": ["1", "5"], "gammas": []}', ": duplicate key 'gammas'"),
        ('["1", "5"]', ' needs a JSON object with at least "gammas"'),
        ("{}", ' needs a JSON object with at least "gammas"'),
    ],
    ids=["found-example", "unknown-key", "given-twice", "array", "no-gammas"],
)
def test_error_sequence_file_key_rule(tmp_path, capsys, content, message):
    # A file: takes the key rule of --factored: gammas once, nothing else, one JSON line naming the file.
    path = tmp_path / "gammas.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "ratios", "--seq", f"file:{path}", "--kmax", "2")
    assert _assert_one_json_error_line(code, out, err) == f"sequence file {path}{message}"


def test_error_deeply_nested_sequence_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"gammas": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = run_cli(capsys, "ratios", "--seq", f"file:{path}", "--kmax", "3")
    assert str(path) in _assert_one_json_error_line(code, out, err)


@pytest.mark.parametrize(
    "gammas",
    [
        "[" + "[" * 900 + "]" * 900 + "]",  # one entry nested 900 deep
        json.dumps([list(range(100000))]),  # one entry a list of 100,000 integers
        json.dumps(["x" * 100000]),  # one entry a 100,000-character string that is no rational
        json.dumps({"zeros": list(range(100000))}),  # an object where the list belongs
    ],
    ids=["nested-900", "int-list-entry", "long-string-entry", "object-for-list"],
)
def test_error_on_a_large_sequence_file_entry_is_short(tmp_path, capsys, gammas):
    path = tmp_path / "big.json"
    path.write_text('{"gammas": ' + gammas + "}")
    code, out, err = run_cli(capsys, "ratios", "--seq", f"file:{path}", "--kmax", "3")
    _assert_one_json_error_line(code, out, err)
    assert len(err) < 200 + len(str(path))


def test_error_on_an_object_for_the_zeros_list_is_short(capsys):
    zeros = {str(k): k for k in range(100000)}
    code, out, err = run_cli(capsys, "ratios", "--factored", json.dumps({"sigma": "1/2", "zeros": zeros}), "--kmax", "3")
    assert "JSON object" in _assert_one_json_error_line(code, out, err)
    assert len(err) < 200


@pytest.mark.parametrize("where", ["seq", "cap"])
def test_error_on_a_large_selector_or_cap_is_short(capsys, monkeypatch, where):
    text = "x" * 50000
    seq = text if where == "seq" else "const1"
    if where == "cap":
        monkeypatch.setenv("HERMOPS_KMAX_CAP", text)
    code, out, err = run_cli(capsys, "ratios", "--seq", seq, "--kmax", "3")
    assert "'xxxxxxxxxxxxxxxxxxxx'..." in _assert_one_json_error_line(code, out, err)
    assert len(err) < 200


def test_error_alpha_in_exponent_notation(capsys):
    code, out, err = run_cli(capsys, "qpoly", "--seq", "const1", "--alpha", "1e3", "--kmax", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "exponent" in json.loads(err)["error"]


def test_error_bad_histogram(capsys):
    code, _, err = run_cli(
        capsys, "ratios", "--seq", "const1", "--kmax", "5", "--histogram", "0"
    )
    assert code == 2
    assert "histogram" in json.loads(err)["error"]


def test_error_histogram_cap(capsys, monkeypatch):
    # The bin count sets how many lines are printed, so it is capped like --kmax.
    monkeypatch.setenv("HERMOPS_KMAX_CAP", "10")
    code, out, err = run_cli(capsys, "ratios", "--seq", "const1", "--kmax", "5", "--histogram", "11")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    message = json.loads(err)["error"]
    assert "histogram" in message and "HERMOPS_KMAX_CAP" in message
    code, _, _ = run_cli(capsys, "ratios", "--seq", "const1", "--kmax", "5", "--histogram", "10")
    assert code == 0


@pytest.mark.parametrize(
    "field, over, at_cap",
    [
        ('"m"', '{"sigma": "1/2", "m": 11}', '{"sigma": "1/2", "m": 10}'),
        ('"zeros"', '{"sigma": "1/2", "zeros": [%s]}' % ", ".join(["1"] * 11),
         '{"sigma": "1/2", "zeros": [%s]}' % ", ".join(["1"] * 10)),
    ],
    ids=["m", "zeros"],
)
def test_error_factored_size_cap(capsys, monkeypatch, field, over, at_cap):
    # m and the zeros size the generator's polynomial, so they are capped like --kmax before it is built.
    monkeypatch.setenv("HERMOPS_KMAX_CAP", "10")
    for command in (["ratios"], ["qpoly", "--alpha", "1"], ["reality", "--alpha", "1"]):
        code, out, err = run_cli(capsys, *command, "--factored", over, "--kmax", "3")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        message = json.loads(err)["error"]
        assert field in message and "HERMOPS_KMAX_CAP" in message
        code, _, _ = run_cli(capsys, *command, "--factored", at_cap, "--kmax", "3")
        assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["ratios", "--seq", "besselJ0", "--kmax", "5", "--histogram", "0"],
        ["ratios", "--seq", "besselJ0", "--kmax", "0"],
        ["qpoly", "--seq", "besselJ0", "--alpha", "-1", "--kmax", "5", "--format", "csv"],
        ["qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "5", "--p", "-1"],
        ["reality", "--seq", "besselJ0", "--alpha", "0", "--kmax", "5"],
        ["reality", "--factored", '{"sigma": 0.5}', "--alpha", "1", "--kmax", "5", "--format", "csv"],
        ["qpoly", "--factored", "{", "--alpha", "1", "--kmax", "5"],
        ["qpoly", "--seq", "besselJ0", "--alpha", "1_0", "--kmax", "1"],
        ["reality", "--seq", "besselJ0", "--alpha", "1 /2", "--kmax", "1"],
    ],
    ids=[
        "histogram-0",
        "kmax-0",
        "alpha-negative",
        "p-negative",
        "reality-alpha-0",
        "factored-float",
        "factored-not-json",
        "alpha-underscore",
        "alpha-inner-space",
    ],
)
def test_config_error_opens_no_output_file(tmp_path, capsys, argv):
    path = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ratios", "--seq", "const1", "--kmax", "0"],
        ["reality", "--seq", "const1", "--alpha", "0", "--kmax", "2"],
        ["reality", "--seq", "const1", "--alpha", "-1", "--kmax", "2"],
    ],
    ids=["ratios-kmax-0", "reality-alpha-0", "reality-alpha-negative"],
)
def test_error_from_library_check(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ratios", "--seq", "linear(3)", "--kmax", "five"], "hermops ratios: argument --kmax: invalid int value: 'five'"),
        (["frobnicate"], "hermops: argument command: invalid choice: 'frobnicate'"),
        ([], "hermops: the following arguments are required: command"),
    ],
    ids=["bad-int", "unknown-subcommand", "no-subcommand"],
)
def test_usage_error_is_one_json_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith(message)


LONG_ARGUMENT = "x" * 50000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ratios", "--seq", "const1", "--kmax", LONG_ARGUMENT], "hermops ratios: argument --kmax: invalid int value: "),
        (
            ["qpoly", "--seq", "const1", "--alpha", "1", "--kmax", "3", "--format", LONG_ARGUMENT],
            "hermops qpoly: argument --format: invalid choice: ",
        ),
        ([LONG_ARGUMENT], "hermops: argument command: invalid choice: "),
        (["ratios", "--seq", "const1", "--kmax", "3", LONG_ARGUMENT], "hermops: unrecognized arguments: "),
    ],
    ids=["bad-int", "bad-format", "unknown-subcommand", "unrecognized"],
)
def test_usage_error_cuts_the_argument_it_echoes(capsys, argv, message):
    error = _assert_one_json_error_line(*run_cli(capsys, *argv))
    assert error.startswith(message + "'xxxxxxxxxxxxxxxxxxxx'...")
    assert len(error) < 200


@pytest.mark.parametrize("argv", [["--help"], ["ratios", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: hermops")
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["ratios", "--seq", "const1", "--kmax", "3"],
        ["qpoly", "--seq", "const1", "--alpha", "1", "--kmax", "3"],
        ["reality", "--seq", "const1", "--alpha", "1", "--kmax", "3"],
    ],
    ids=["ratios", "qpoly", "reality"],
)
def test_error_negative_shift(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--p", "-1")
    assert code == 2
    assert out == ""
    assert "nonnegative" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "source",
    [
        ["--seq", "linear(1/0)"],
        ["--seq", "geom-factorial(1/0)"],
        ["--factored", '{"sigma": "1/2", "zeros": "12"}'],
        ["--factored", '{"sigma": "1/2", "m": 1.7}'],
        ["--factored", '{"sigma": "1/2", "m": true}'],
        ["--factored", '{"sigma": 0.5}'],
        ["--seq", "linear(1e3)"],
        ["--factored", '{"sigma": "1e10000000"}'],
    ],
    ids=[
        "linear-zero-den",
        "geom-zero-den",
        "zeros-string",
        "m-float",
        "m-bool",
        "sigma-float",
        "linear-exponent",
        "sigma-exponent",
    ],
)
def test_error_bad_sequence_input(capsys, source):
    code, out, err = run_cli(capsys, "ratios", *source, "--kmax", "3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, head",
    [
        (["ratios", "--seq", "besselJ0", "--kmax", "400"], b"k,num,den,"),
        (["qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "120", "--format", "json"], b'{\n  "Q": ['),
        (["qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "120", "--format", "csv"], b"k,coeffs\n0"),
    ],
    ids=["ratios", "qpoly-json", "qpoly-csv"],
)
def test_broken_stdout_pipe_exits_1_silently(argv, head):
    """`hermops ratios ... | head -c 10`: the reader leaves, the CLI exits 1 quietly."""
    env = dict(os.environ, PYTHONPATH=str(Path(hermops.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "hermops.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.read(10)  # the output is far larger than a pipe buffer
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == head
    assert err == b""


def test_out_of_memory_is_one_json_line_and_exit_1(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_operator", exhausted)
    code, out, err = run_cli(capsys, "qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "3")
    assert (code, out, err) == (1, "", '{"error": "out of memory"}\n')


@pytest.mark.parametrize("exc", [TypeError("bad operand"), ZeroDivisionError("division by zero")])
def test_an_internal_error_is_one_json_line_and_exit_1(capsys, monkeypatch, exc):
    """A fault inside a stage is no config error (exit 2) and prints no traceback."""

    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, "ratio_sequence", broken)
    code, out, err = run_cli(capsys, "ratios", "--seq", "besselJ0", "--kmax", "3")
    assert (code, out) == (1, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == {"error": f"internal error: {type(exc).__name__}: {exc}"}


def test_address_space_limit_ends_in_the_out_of_memory_line():
    """The shifted ratios cap needs about 44 MB of address space even streamed; under a 32 MB limit
    on this one child (an interpreter with hermops imported takes 15-21 MB) it ends in one JSON
    line, exit 1."""
    resource = pytest.importorskip("resource")
    limit = 32 << 20
    env = dict(os.environ, PYTHONPATH=str(Path(hermops.__file__).resolve().parents[1]))
    argv = [sys.executable, "-S", "-m", "hermops.cli", "ratios", "--seq", "exp-half-cosh", "--p", "2000", "--kmax", "2000"]
    proc = subprocess.run(
        argv, capture_output=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr) == (1, b'{"error": "out of memory"}\n')


_NO_SPACE = {"error": f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"}


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "argv",
    [
        ["qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "60", "--format", "csv"],
        ["qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "60"],
        ["reality", "--seq", "besselJ0", "--alpha", "1", "--kmax", "10", "--format", "csv"],
        ["ratios", "--seq", "besselJ0", "--kmax", "60", "--histogram", "3"],
        ["verify"],
        ["examples", "--id", "table1"],
    ],
    ids=["qpoly-csv", "qpoly-json", "reality", "ratios", "verify", "examples"],
)
def test_failed_write_is_one_json_line_and_exit_1(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, err.count("\n")) == (1, 1)
    assert json.loads(err) == _NO_SPACE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv, to_stdout",
    [
        (["qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "60", "--output", "/dev/full"], False),
        (["qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "60"], True),
        (["ratios", "--seq", "besselJ0", "--kmax", "300"], True),
        (["ratios", "--seq", "besselJ0", "--kmax", "300", "--output", "/dev/full"], False),
        (["verify"], True),
        (["examples", "--id", "table1"], True),
        (["ratios", "--seq", "besselJ0", "--kmax", "3"], True),
    ],
    ids=["qpoly-output", "qpoly-stdout", "ratios-stdout", "ratios-output", "verify-stdout", "examples-stdout", "small-ratios-stdout"],
)
def test_full_device_ends_in_one_json_line_and_exit_1(argv, to_stdout):
    """Stdout is buffered, as by default: output smaller than the buffer is still held there when
    the write fails, and the flush at exit must not fail again (a second stderr line, exit 120)."""
    env = dict(os.environ, PYTHONPATH=str(Path(hermops.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full" if to_stdout else os.devnull, "w") as stdout:
        proc = subprocess.run([sys.executable, "-m", "hermops.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
    assert (proc.returncode, proc.stderr.count(b"\n")) == (1, 1)
    assert json.loads(proc.stderr) == _NO_SPACE


@pytest.mark.parametrize(
    "argv",
    [
        ["ratios", "--seq", "file:{missing}", "--kmax", "3"],
        ["ratios", "--seq", "const1", "--kmax", "3", "--output", "{missing}/out.csv"],
        ["qpoly", "--seq", "const1", "--alpha", "1", "--kmax", "3", "--output", "{dir}"],
    ],
    ids=["missing-sequence-file", "output-in-a-missing-directory", "output-is-a-directory"],
)
def test_a_path_that_cannot_be_opened_stays_a_config_error(tmp_path, capsys, argv):
    argv = [arg.format(missing=tmp_path / "missing", dir=tmp_path) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert str(tmp_path) in json.loads(err)["error"]


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every command pays for `import hermops, hermops.cli`; `inspect` alone brings in
    `ast`, `dis` and `tokenize`.  -S keeps the host's .pth files out of the count."""
    src = str(Path(hermops.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hermops, hermops.cli; "
        "print(hermops.__file__); print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.splitlines() == [hermops.__file__, "[]"]


def test_one_parser_serves_every_call(capsys):
    """main reuses one parser; a config error or a usage error in between changes nothing."""
    argvs = [
        ("qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "3"),
        ("reality", "--seq", "const1", "--alpha", "0", "--kmax", "2"),  # config error, exit 2
        ("ratios", "--seq", "linear(3)", "--kmax", "5", "--histogram", "2"),
        ("ratios", "--seq", "linear(3)", "--kmax", "five"),  # usage error, exit 2
        ("reality", "--factored", '{"sigma": "1/2"}', "--alpha", "1", "--kmax", "6", "--format", "csv"),
        ("qpoly", "--seq", "besselJ0", "--alpha", "1", "--kmax", "3"),
    ]

    def run(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    cli.build_parser.cache_clear()
    reused = [run(argv) for argv in argvs]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 0]
    assert cli.build_parser.cache_info().misses == 1


# -- the CLI contract on drawn argv -------------------------------------------


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "good": '{"gammas": ["1", "3/2", "-2", "0", "5/7"]}',
        "floats": '{"gammas": [0.5, 1]}',
        "no-gammas": '{"values": ["1"]}',
        "not-json": "{gammas",
        "deep": '{"gammas": ' + "[" * 5000 + "]" * 5000 + "}",
    }
    for name, text in files.items():
        (root / f"{name}.json").write_text(text)
    return [f"file:{root / name}.json" for name in [*files, "missing"]] + [f"file:{root}"]


# Each vocabulary as (well-formed, malformed); `_mostly` draws the first three times as often.
RATIONALS = (["1", "1/2", "2/3", "3"], ["0", "-1", "-3/4", "1e5", "1/0", "abc", ""])
INTEGERS = ([str(n) for n in range(13)], ["-2", "-1", "five", "1.5"])
SELECTORS = (
    ["const1", "linear(3)", "linear(-1/2)", "example311", "besselJ0", "exp-half-cosh", "geom-factorial(3/5)",
     "geom-factorial(-2)", "geom-factorial(0)"],
    ["linear(1e5)", "linear(1/0)", "linear()", "geom-factorial(1/0)", "nosuch", "file:"],
)
FACTORED = (
    ['{"sigma": "1/2", "zeros": ["1", "1"]}', '{"sigma": "1/2"}', '{"sigma": "0", "m": 2, "c": "3"}',
     '{"sigma": "3", "zeros": ["1/3"]}'],
    ['{"sigma": 0.5}', '{"sigma": "1e5"}', '{"sigma": "1/0"}', '{"zeros": []}', "[1]", "{", "null",
     '{"sigma": "1", "zeros": "12"}', '{"sigma": "1", "m": -1}', '{"sigma": "-1"}', '{"sigma": "1", "c": "0"}',
     '{"sigma": "1", "zeros": ["-1"]}', '{"sigma": "1", "m": true}', '{"sigma": "1", "zero": []}',
     '{"sigma": "1", "sigma": "2"}', '{"sigma": ' + "[" * 3000 + "]" * 3000 + "}"],
)
COMMANDS = ["qpoly", "reality", "ratios", "verify", "examples"]


def _mostly(good, bad):
    return st.sampled_from(good * 3 + bad)


@st.composite
def cli_argv(draw, files):
    vocab = {
        "--seq": _mostly(SELECTORS[0] + files[:1], SELECTORS[1] + files[1:]),
        "--factored": _mostly(*FACTORED),
        "--p": _mostly(*INTEGERS),
        "--kmax": _mostly(*INTEGERS),
        "--histogram": _mostly(*INTEGERS),
        "--alpha": _mostly(*RATIONALS),
        "--format": _mostly(["json", "csv"], ["xml"]),
        "--id": _mostly(["all", "table1", "bessel", "linear-op", "geom-family", "laguerre"], ["nosuch"]),
    }
    anything = st.sampled_from(sorted({v for vs in (RATIONALS, INTEGERS, SELECTORS, FACTORED) for v in vs[0] + vs[1]}))
    command = draw(st.sampled_from(COMMANDS + ["frobnicate", "--help"]))
    flags = []
    if command in ("qpoly", "reality", "ratios"):  # usually a source and the required options
        required = [draw(st.sampled_from(["--seq", "--factored"])), "--kmax"] + (["--alpha"] if command != "ratios" else [])
        flags = [flag for flag in required if draw(st.sampled_from([True] * 9 + [False]))]
    flags += draw(st.lists(st.sampled_from(sorted(vocab)), max_size=2))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        # now and then a flag without its value, or with another flag's value
        pick = draw(st.sampled_from(["own"] * 18 + ["any", "none"]))
        if pick != "none":
            argv.append(draw(vocab[flag] if pick == "own" else anything))
    return argv


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_on_drawn_argv(fuzz_files, data):
    argv = data.draw(cli_argv(fuzz_files))
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert json.loads(err)["error"]
    assert _run_in_process(argv) == (code, out, err)
