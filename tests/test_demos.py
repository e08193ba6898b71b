import re
from fractions import Fraction

import pytest

from hermops.classify import HermiteBasis, falsify_sequence
from hermops.demos import (
    BESSEL_DIFFERENCES_REFERENCE,
    BESSEL_TURAN_REFERENCE,
    DEMO_IDS,
    RATIO_TABLE_REFERENCE,
    run_demo,
)
from hermops.jensen import GammaSeq
from hermops.ratpoly import rat_str

F = Fraction


def test_demo_ids_complete():
    assert DEMO_IDS == ("table1", "bessel", "linear-op", "geom-family", "laguerre")
    with pytest.raises(ValueError):
        run_demo("nonexistent")


def test_reference_constants():
    assert RATIO_TABLE_REFERENCE[0] == F(3, 2)
    assert RATIO_TABLE_REFERENCE[-1] == F(-141, 194)
    assert BESSEL_DIFFERENCES_REFERENCE[2] == F(-1, 2)
    # The Turan reference starts at k=1, so 1/4 (the corrected k=2 value) sits
    # at position 1.
    assert BESSEL_TURAN_REFERENCE[1] == F(1, 4)


def test_table1_demo_data():
    # The notes are the lines `hermops examples` prints under the PASS line.
    report = run_demo("table1")
    assert report.passed
    window, *ratios = report.notes
    assert window == (
        "difference ratios confirmed within 1/100 of -1/2 on the window [103, 123] (first such window start: 103)"
    )
    assert ratios == [f"k={k}: {rat_str(v)}" for k, v in enumerate(RATIO_TABLE_REFERENCE, start=1)]


def test_bessel_demo_notes_flag_both_errata():
    report = run_demo("bessel")
    assert report.passed
    assert len(report.notes) == 2
    assert any("1/4" in note for note in report.notes)
    assert any("18" in note for note in report.notes)


def test_linear_operator_demo_witness():
    assert run_demo("linear-op").passed
    verdict = falsify_sequence(GammaSeq.linear(-1), HermiteBasis(1), 4)
    assert verdict.status == "falsified"
    assert verdict.witness.input_poly.degree == 2


def test_geom_family_demo_rows():
    report = run_demo("geom-family")
    assert report.passed
    region_note, *lines = report.notes
    assert region_note.startswith("NOTE (documented divergence)")
    rows = {}
    for line in lines:
        r, q2, q4 = re.fullmatch(r"r=(\S+): Q_2 real-rooted=(\w+), Q_4 real-rooted=(\w+)", line).groups()
        rows[r] = (q2 == "True", q4 == "True")
    assert len(rows) == 6
    # Q_2 loses reality below 2 - sqrt(2) ~ 0.586 (and Q_4 fails across the
    # whole [0, 1] grid), so reality of the pair never holds.
    assert rows["0/1"] == (False, False)
    assert rows["3/5"] == (True, False)
    assert rows["1/1"] == (True, False)
    assert all(not (q2 and q4) for q2, q4 in rows.values())


def test_laguerre_demo_passes():
    report = run_demo("laguerre")
    assert report.passed
    assert report.checked > 0
