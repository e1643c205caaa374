"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with pytest -s or
in the captured output); failures surface through normal assertions.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from isocert import certify as ct
from isocert import configsolve as cs
from isocert import geomex as gx
from isocert import identities as idn
from isocert import mollify as mf
from isocert.algebraic import QuadExt

ENTRY = [sys.executable, "-m", "isocert"]


def _cli(*args):
    return subprocess.run(ENTRY + list(args), capture_output=True, text=True, timeout=900)


def test_criterion_01_identity_suite_exact_and_fast():
    t0 = time.perf_counter()
    reports = idn.run_identity_suite(modes=("symbolic", "expanded"))
    elapsed = time.perf_counter() - t0
    assert len(reports) == len(idn.IDENTITY_NAMES) * 2
    for rep in reports:
        assert rep.residual_is_zero, (rep.name, rep.mode)
        assert rep.residual_term_count == 0
    by_name = {r.name for r in reports}
    assert sum(1 for n in by_name if n.startswith("dtheta_")) == 6
    assert {"dphi", "dg_phi", "df_phi"} <= by_name
    assert sum(1 for n in by_name if n.endswith("_phi") and n.startswith("w")) == 4
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s"
    print(f"PASS criterion 1: 13 identities x 2 modes, zero residual, {elapsed:.1f}s")


def test_criterion_02_L_values_at_probe():
    probe = {"l1": -3, "l2": -1, "l3": 1, "l4": 3}
    gamma = idn.gamma_polynomial()
    gL = idn.gamma_L_polynomials()
    l1 = gL[1].evaluate(probe) / gamma.evaluate(probe)
    assert l1 == -1
    for i in range(1, 5):
        assert gL[i].evaluate(probe) / gamma.evaluate(probe) < 0
    print("PASS criterion 2: L1(-3,-1,1,3) = -1 exactly; all four L_i < 0 there")


def test_criterion_03_Li_certificate_and_cross_check():
    t0 = time.perf_counter()
    cert = ct.certify_Li_negative(8, 0.05, margin=1e-9, max_depth=20)
    elapsed = time.perf_counter() - t0
    assert cert.status == "proved"
    assert cert.max_depth_reached <= 20
    assert elapsed < 300.0
    xc = ct.sample_Li_cross_check(8, 0.05, count=100_000)
    assert xc["samples"] == 100_000
    assert xc["violations"] == []
    print(f"PASS criterion 3: proved in {elapsed:.2f}s at depth "
          f"{cert.max_depth_reached}; 100000-point exact cross-check clean")


def test_criterion_04_okumura_certificate():
    cert = ct.certify_okumura(4, tol=1e-6)
    assert cert.status == "proved"
    # Low-slack cells stay within 1e-3 of the equality configurations.
    assert cert.bound <= 1e-3
    eq = ct.okumura_equality_case_exact()
    assert all(eq.values())  # (3,-1,-1,-1)/sqrt(12) attains p3^2 = 1/3 exactly
    constant = (4 - 2) / math.sqrt(4 * 3)
    assert abs(constant - 0.577350) < 1e-6
    assert abs(constant - 1 / math.sqrt(3)) < 1e-15
    print(f"PASS criterion 4: proved at tol 1e-6; equality constant 1/sqrt(3); "
          f"low-slack cells within {cert.bound:.2e} of the equality set")


def test_criterion_05_system_I_even_spacing():
    params = cs.ScalarParams.make(12, 0)
    cfgs = cs.solve_system("I", params, F(1, 10**13))
    satisfied = [c for c in cfgs if c.constraint_satisfied]
    assert len(satisfied) == 1
    cfg = satisfied[0]
    lams = cfg.lambda_intervals(F(1, 10**13))
    mids = [(l.lo + l.hi) / 2 for l in lams]
    gap = 2 * math.sqrt(3 / 5)
    for a, b in zip(mids, mids[1:]):
        assert abs(float(b - a) - gap) < 1e-12
    ps = cfg.power_sum_intervals(F(1, 10**12))
    assert ps["p1"].contains(0) and ps["p1"].width() < F(1, 10**12)
    assert ps["p2"].contains(12) and ps["p2"].width() < F(1, 10**12)
    assert ps["p3"].contains(0)
    from test_configsolve import _grid_oracle_count

    assert len(satisfied) == _grid_oracle_count("I", 12.0, 0.0)
    print("PASS criterion 5: evenly spaced tuple, gap 2*sqrt(3/5), residuals "
          "< 1e-12, count matches the grid oracle")


def test_criterion_06_case_branch_identities():
    rep = cs.case_branch_identities(cs.ScalarParams.make(8, 1))
    assert rep["status"] == "pass"
    assert rep["top_pair_cube_sum_identity"] is True
    assert rep["equality_pattern_3p3sq_eq_p2cubed"] is True
    assert rep["negativity_spot_checks_pass"] is True
    cert = rep["negativity_certificate"]
    assert len(cert["factors"]) == 3
    print("PASS criterion 6: cube-sum collapse exact; negativity certified by "
          "factor signs; 3 p3^2 = p2^3 exact for the repeated-triple pattern")


def test_criterion_07_model_landmarks():
    width = F(1, 10**12)
    eq = gx.get_model("equatorial")
    assert (eq.S - QuadExt.rational(0)).sign() == 0
    for k in (1, 2, 3):
        m = gx.clifford_torus(k)
        assert (m.S - QuadExt.rational(4)).sign() == 0
        for lo, hi in m.power_sum_intervals(width).values():
            assert hi - lo <= width
    g4 = gx.get_model("g4")
    ps = g4.power_sums
    expected = {"p1": 0, "p2": 12, "p3": 0, "p4": 68}
    for key, val in expected.items():
        assert (ps[key] - QuadExt.rational(val)).sign() == 0
        lo, hi = g4.power_sum_intervals(width)[key]
        assert hi - lo <= width and lo <= val <= hi
    for name in gx.catalog_names():
        m = gx.get_model(name)
        slack = m.S**3 - m.A3 * m.A3 * 3
        assert slack.sign() >= 0
        equality = slack.sign() == 0
        assert equality == (name in ("clifford1", "clifford3", "equatorial"))
    print("PASS criterion 7: landmarks S in {0,4,12}, g4 power sums "
          "(0,12,0,68), cubic-bound equality exactly at the two skew tori")


def test_criterion_08_mollifier_K_cutoff_suites():
    rep = mf.mollifier_property_report(0.5, samples=10_000)
    assert rep["status"] == "pass"
    assert rep["worst_equality_outside"] <= 1e-12
    assert rep["min_fd_h2"] >= -1e-8
    repk = mf.gap_value_property_report(0.05, 0.1, samples=100_000)
    assert repk["status"] == "pass"
    repc = mf.cutoff_property_report(0.3, samples=10_000)
    assert repc["status"] == "pass"
    assert repc["slope_constant"] <= 4.0
    assert repc["max_fd_slope_times_eps"] <= 4.0
    print(f"PASS criterion 8: kernel invariants at 10^4 samples "
          f"(|h-|t|| <= {rep['worst_equality_outside']:.1e} outside, fd h'' >= "
          f"{rep['min_fd_h2']:.1e}); 10^5 gap pairs clean; ramp constant "
          f"{repc['slope_constant']:.3f} <= 4")


def test_criterion_09_documented_discrepancy_status():
    rep = gx.check_model(gx.get_model("clifford1"), 2)
    assert rep["status"] == "documented_discrepancy"
    flagged = [c for c in rep["conclusions"] if not c["holds"]]
    assert [c["clause"] for c in flagged] == ["A3 = 0"]
    assert "note" in rep
    out = _cli("examples", "--check", "clifford1", "--theorem", "2", "--quiet")
    assert out.returncode == 3
    print("PASS criterion 9: cube-sum clause flagged as a documented "
          "discrepancy with the catalog note; run exits with status 3")


def test_criterion_10_byte_identical_reports():
    args = (
        "pipeline", "--S", "8", "--A3", "1", "--eps0", "1/10", "--delta1", "1/20",
        "--samples", "1500", "--quiet",
    )
    first = _cli(*args)
    second = _cli(*args)
    assert first.returncode == 0, first.stderr[-2000:]
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode
    recs = json.loads(first.stdout)
    assert recs[-1]["name"] == "pipeline_summary"
    assert recs[-1]["status"] == "pass"
    threads_a = _cli("verify-identities", "--mode", "symbolic", "--threads", "1", "--quiet")
    threads_b = _cli("verify-identities", "--mode", "symbolic", "--threads", "3", "--quiet")
    assert threads_a.stdout == threads_b.stdout
    assert len(json.loads(threads_a.stdout)) == 12
    print("PASS criterion 10: repeated pipeline runs byte-identical; identity "
          "reports byte-identical across thread counts (12 records)")
