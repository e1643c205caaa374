"""Model catalog landmarks, all by exact arithmetic."""

import dataclasses
import re
from fractions import Fraction as F

import pytest

from isocert import geomex as gx
from isocert.algebraic import QuadExt, power_sums


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
    # Only a documented (model, theorem, clause) excuses a failure: g4 has
    # no note, and a spectrum with S = 10 fails "S in {0, 4, 12}".
    g4 = gx.isoparametric_g4()
    spectrum = tuple(_rat(v) for v in (-2, -1, 1, 2))
    model = dataclasses.replace(g4, spectrum=spectrum)
    rep = gx.check_model(model, 1)
    assert rep["status"] == "violated"
    assert "note" not in rep


def _product_torus_clause(model) -> bool:
    conclusions = gx.check_model(model, 2)["conclusions"]
    return next(c["holds"] for c in conclusions if c["clause"] == "product-torus spectrum")


def test_product_torus_clause_reads_the_spectrum_not_the_name():
    assert all(_product_torus_clause(gx.clifford_torus(k)) for k in (1, 2, 3))
    # Same name and multiplicities as the k = 1 torus, not its spectrum.
    torus = gx.clifford_torus(1)
    model = dataclasses.replace(torus, spectrum=tuple(_rat(v) for v in (-1, -1, -1, 3)))
    assert model.name == torus.name and model.multiplicities == (3, 1)
    assert not _product_torus_clause(model)


def test_power_sums_are_computed_once_per_model(monkeypatch):
    calls = []

    def spy(values, top):
        calls.append(top)
        return power_sums(values, top)

    monkeypatch.setattr(gx, "power_sums", spy)
    for name in gx.catalog_names():
        m = gx.get_model(name)
        assert m.power_sums["p1"] is m.power_sums["p1"]
        m.S, m.A3, m.scalar_curvature, m.sum_h_squared(), m.power_sum_intervals()
        for theorem in (1, 2, 3):
            gx.check_model(m, theorem)
        assert len(calls) == 1, name
        calls.clear()


def test_each_documented_note_states_the_sign_of_its_models_A3():
    models = {m.name: m for m in map(gx.get_model, gx.catalog_names())}
    for (name, theorem, clause), note in gx.DOCUMENTED_DISCREPANCIES.items():
        sign, num, radicand, den = re.search(
            r"constant A3 = (-?)(\d+)\*sqrt\((\d+)\)/(\d+)", note).groups()
        stated = QuadExt.make(0, F(int(sign + num), int(den)), int(radicand))
        assert stated == models[name].A3, (name, note)
        rep = gx.check_model(models[name], theorem)
        assert rep["status"] == "documented_discrepancy" and rep["note"] == note
        assert ("-A3 = S^(3/2)/sqrt(3)" in note) == (stated.sign() < 0)


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
