"""Model catalog landmarks, all by exact arithmetic."""

import dataclasses
from fractions import Fraction as F

import pytest

from isocert import geomex as gx
from isocert.algebraic import QuadExt


def _rat(x):
    return QuadExt.rational(x)


def test_equatorial():
    m = gx.get_model("equatorial")
    assert (m.S - _rat(0)).sign() == 0
    assert m.multiplicities == (4,)
    assert (m.sum_h_squared() - _rat(0)).sign() == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_clifford_tori(k):
    m = gx.clifford_torus(k)
    ps = m.power_sums
    assert ps["p1"].sign() == 0
    assert (m.S - _rat(4)).sign() == 0
    if k == 2:
        assert m.A3.sign() == 0
        assert (ps["p4"] - _rat(4)).sign() == 0
        assert sorted(m.multiplicities) == [2, 2]
    else:
        # A3 = +-8 sqrt(3)/3, which squares to 64/3.
        assert (m.A3 * m.A3 - _rat(F(64, 3))).sign() == 0
        assert m.A3.sign() == (1 if k == 1 else -1)
        assert (ps["p4"] - _rat(F(28, 3))).sign() == 0
        assert sorted(m.multiplicities) == [1, 3]
    assert (m.sum_h_squared() - _rat(0)).sign() == 0


def test_clifford_k_bounds():
    with pytest.raises(ValueError):
        gx.clifford_torus(0)
    with pytest.raises(ValueError):
        gx.clifford_torus(4)


def test_g4_model():
    m = gx.isoparametric_g4()
    ps = m.power_sums
    assert ps["p1"].sign() == 0
    assert (ps["p2"] - _rat(12)).sign() == 0
    assert ps["p3"].sign() == 0
    assert (ps["p4"] - _rat(68)).sign() == 0
    assert m.multiplicities == (1, 1, 1, 1)
    assert (m.sum_h_squared() - _rat(96)).sign() == 0
    assert not m.h_all_zero


def test_power_sum_interval_widths():
    for name in gx.catalog_names():
        m = gx.get_model(name)
        for lo, hi in m.power_sum_intervals(F(1, 10**12)).values():
            assert hi - lo <= F(1, 10**12)


def test_okumura_equality_exactly_at_one_repeated_triple():
    for name in gx.catalog_names():
        m = gx.get_model(name)
        lhs = m.A3 * m.A3 * 3
        rhs = m.S**3
        assert (rhs - lhs).sign() >= 0
        is_equality = (rhs - lhs).sign() == 0
        if name in ("clifford1", "clifford3"):
            assert is_equality
        elif name == "equatorial":
            assert is_equality  # degenerate 0 = 0
        else:
            assert not is_equality


def test_scalar_curvature_relation():
    for name in gx.catalog_names():
        m = gx.get_model(name)
        assert (m.scalar_curvature - (_rat(12) - m.S)).sign() == 0


def test_theorem_1_consistency():
    for name in gx.catalog_names():
        rep = gx.check_model(gx.get_model(name), 1)
        assert rep["status"] == "pass", (name, rep)


def test_theorem_2_pass_cases():
    assert gx.check_model(gx.get_model("clifford2"), 2)["status"] == "pass"
    assert gx.check_model(gx.get_model("g4"), 2)["status"] == "hypothesis_not_met"
    assert gx.check_model(gx.get_model("equatorial"), 2)["status"] == "hypothesis_not_met"


def test_theorem_2_documented_discrepancy():
    rep = gx.check_model(gx.get_model("clifford1"), 2)
    assert rep["status"] == "documented_discrepancy"
    bad = [c for c in rep["conclusions"] if not c["holds"]]
    assert len(bad) == 1 and bad[0]["clause"] == "A3 = 0"
    assert "note" in rep and "boundary" in rep["note"]
    # The bookkeeping extra confirms S in {0, 4} for the vanishing-h case.
    assert any(e["holds"] for e in rep.get("extras", []))


def test_unrelated_note_does_not_excuse_a_failed_conclusion():
    # g4's catalog note is about off-diagonal h, not about any theorem's
    # conclusion; a spectrum with S = 10 fails "S in {0, 4, 12}".
    g4 = gx.isoparametric_g4()
    assert g4.notes
    spectrum = tuple(_rat(v) for v in (-2, -1, 1, 2))
    model = dataclasses.replace(g4, spectrum=spectrum)
    rep = gx.check_model(model, 1)
    assert rep["status"] == "violated"
    assert "note" not in rep


def test_theorem_3():
    assert gx.check_model(gx.get_model("g4"), 3)["status"] == "pass"
    # The tori fail the strict cubic-bound or range hypotheses: vacuous.
    assert gx.check_model(gx.get_model("clifford1"), 3)["status"] == "hypothesis_not_met"
    assert gx.check_model(gx.get_model("clifford2"), 3)["status"] == "hypothesis_not_met"
    with pytest.raises(ValueError):
        gx.check_model(gx.get_model("g4"), 4)


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        gx.get_model("torus_of_revolution")
