import json
from fractions import Fraction

import pytest

from hermops.jensen import FactoredSpec
from hermops.sequences import example311_spec, factored_from_json, make_sequence

F = Fraction


def test_const1():
    seq = make_sequence("const1")
    assert seq.values(4) == [F(1)] * 5
    assert seq.name == "const1"


def test_linear_selector():
    assert make_sequence("linear(3)").values(3) == [F(3), F(4), F(5), F(6)]
    assert make_sequence("linear(-1/2)")[1] == F(1, 2)


def test_geometric_selector():
    seq = make_sequence("geom-factorial(1/2)")
    assert seq[2] == F(1, 8)


def test_example311_matches_spec_object():
    spec = example311_spec()
    assert spec == FactoredSpec(sigma=F(1, 2), zeros=(F(1), F(1)))
    seq = make_sequence("example311")
    # (1+x)^2 e^{x/2}: gamma_0 = 1, gamma_1 = 1/2 + 2 = 5/2.
    assert seq[0] == 1
    assert seq[1] == F(5, 2)


def test_bessel_selector():
    assert make_sequence("besselJ0").values(2) == [F(1), F(1), F(1, 2)]


def test_exp_half_cosh_selector():
    assert make_sequence("exp-half-cosh")[1] == F(3, 2)


@pytest.mark.parametrize("r", ["-1", "-1/2", "-7/3"])
def test_geometric_selector_alternates_for_negative_r(r):
    seq = make_sequence(f"geom-factorial({r})")
    for k in range(40):
        assert seq[k] != 0 and (seq[k] > 0) == (k % 2 == 0)


@pytest.mark.parametrize("name", ["besselJ0", "exp-half-cosh"])
def test_named_series_are_positive(name):
    assert all(g > 0 for g in make_sequence(name).values(200))


def test_file_selector(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"gammas": ["1", "2", "9/2"]}))
    seq = make_sequence(f"file:{path}")
    assert seq.values(3) == [F(1), F(2), F(9, 2), F(0)]
    assert seq.name == f"file:{path}"


def test_file_selector_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(OSError):
        make_sequence(f"file:{missing}")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"values": [1]}))
    with pytest.raises(ValueError):
        make_sequence(f"file:{bad}")
    for gammas in ("12", [1, 0.5], ["1", True], ["1/0"]):
        bad.write_text(json.dumps({"gammas": gammas}))
        with pytest.raises(ValueError):
            make_sequence(f"file:{bad}")


def test_unknown_selector():
    with pytest.raises(ValueError, match="known:"):
        make_sequence("mystery")
    with pytest.raises(ValueError):
        make_sequence("linear(x)")


def test_factored_from_json():
    spec = factored_from_json('{"sigma": "1/2", "zeros": ["1", "1"]}')
    assert spec == example311_spec()
    spec = factored_from_json('{"sigma": "2", "c": "3", "m": 1}')
    assert (spec.c, spec.m, spec.sigma, spec.zeros) == (F(3), 1, F(2), ())


def test_factored_from_json_errors():
    for text in ('{"zeros": ["1"]}', '["not", "an", "object"]'):  # sigma required, in an object
        with pytest.raises(ValueError, match='^factored generator needs a JSON object with at least "sigma"$'):
            factored_from_json(text)
    with pytest.raises(ValueError, match="^factored generator is JSON nested too deeply$"):
        factored_from_json('{"sigma": ' + "[" * 100000 + "]" * 100000 + "}")
    with pytest.raises(ValueError, match="^factored generator is not valid JSON: "):
        factored_from_json("{nope")
    for text in (
        '{"sigma": "1/2", "zeros": "12"}',
        '{"sigma": "1/2", "zeros": [0.5]}',
        '{"sigma": "1/2", "m": 1.7}',
        '{"sigma": "1/2", "m": true}',
        '{"sigma": 0.5}',
        '{"sigma": "1/2", "c": 0.5}',
        '{"sigma": "1/0"}',
    ):
        with pytest.raises(ValueError):
            factored_from_json(text)


def test_factored_from_json_accepts_integer_rationals():
    spec = factored_from_json('{"sigma": 2, "c": 3, "zeros": [1, "1/2"]}')
    assert (spec.c, spec.sigma, spec.zeros) == (F(3), F(2), (F(1), F(1, 2)))


def test_factored_from_json_checks_the_cap(monkeypatch):
    # The parser itself refuses sizes past HERMOPS_KMAX_CAP: no caller can build (0,)*m unchecked.
    monkeypatch.setenv("HERMOPS_KMAX_CAP", "10")
    assert factored_from_json('{"sigma": "1/2", "m": 10}').m == 10
    assert len(factored_from_json('{"sigma": "1/2", "zeros": [%s]}' % ", ".join(["1"] * 10)).zeros) == 10
    for text, field in (
        ('{"sigma": "1/2", "m": 11}', '"m" 11 exceeds'),
        ('{"sigma": "1/2", "m": -1}', '"m" must be nonnegative'),
        ('{"sigma": "1/2", "zeros": [%s]}' % ", ".join(["1"] * 11), '"zeros" 11 exceeds'),
    ):
        with pytest.raises(ValueError, match=field):
            factored_from_json(text)
