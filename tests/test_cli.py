import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermops
from hermops import cli
from hermops.cli import main
from hermops.jensen import DifferenceTable, GammaSeq, ratio_csv_lines
from hermops.sequences import factored_from_json, make_sequence


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


def test_error_deeply_nested_factored_json(capsys):
    deep = "[" * 20000 + "]" * 20000
    code, out, err = run_cli(capsys, "ratios", "--factored", f'{{"sigma": {deep}}}', "--kmax", "3")
    assert "factored generator" in _assert_one_json_error_line(code, out, err)


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


def test_broken_stdout_pipe_exits_1_silently():
    """`hermops ratios ... | head -c 10`: the reader leaves, the CLI exits 1 quietly."""
    env = dict(os.environ, PYTHONPATH=str(Path(hermops.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "hermops.cli", "ratios", "--seq", "besselJ0", "--kmax", "400"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)  # the output is far larger than a pipe buffer
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head == b"k,num,den,"
    assert err == b""


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
     '{"sigma": "1", "zeros": ["-1"]}', '{"sigma": "1", "m": true}', '{"sigma": ' + "[" * 3000 + "]" * 3000 + "}"],
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
