"""Configuration enumeration: cubic reductions, oracles, branch identities.

The brute-force oracle scans the sorted chart on a dense grid, marks cells
where both remaining constraint functions change sign or nearly vanish,
and clusters them; solver output must match the cluster count for the
sorted-and-pattern-satisfying configurations.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from isocert import configsolve as cs
from isocert import upoly as up
from isocert.algebraic import AlgebraicNumber, quad_sign, root_sum_sign


def test_parse_value_forms():
    assert cs.parse_value("3/2").rational_value() == F(3, 2)
    assert cs.parse_value("-2").rational_value() == -2
    v = cs.parse_value("8*sqrt(3)/3")
    assert (v * v).rational_value() == F(64, 3)
    assert cs.parse_value("sqrt(2)").d == 2
    assert cs.parse_value("-sqrt(2)").sign() == -1
    with pytest.raises(ValueError):
        cs.parse_value("sqrt(-1)")
    with pytest.raises(ValueError):
        cs.parse_value("two")
    # sqrt(0) is the rational 0; marked irrational, it sent solve into an endless loop.
    assert cs.parse_value("sqrt(0)") == cs.QuadExt.rational(0)


def test_cubic_roots_share_the_chain_of_their_factor():
    # The chain isolation built for the cubic; each number still counts with it.
    _cubic, roots = cs._cubic_roots("I", cs.ScalarParams.make(12, 0))
    assert len(roots) == 3 and all(r.chain is roots[0].chain for r in roots)
    assert roots[0].chain == up.sturm_chain(up.squarefree_part(roots[0].poly))


def _is_root_of_shifted(alg, base, a3) -> bool:
    """Reference: does base - a3 vanish at the sextic root alg (vs base + a3)?

    The interval route: refine until the enclosure of base over the root's
    interval excludes one of +-a3.
    """
    cur = alg
    while True:
        enc = cs.eval_on_interval(base, cur.box)
        if not enc.contains(a3):
            return False
        if not enc.contains(-a3):
            return True
        cur = cur.refine(cur.box.width / 16)


@st.composite
def _radical_params(draw):
    """(S, A3) with A3 = +-k*sqrt(r)/m near the cubic bound S^(3/2)/sqrt(3), or on it."""
    sign = draw(st.sampled_from(("", "-")))
    if draw(st.booleans()):
        # S = 3p/q and A3 = 3p*sqrt(pq)/q^2 satisfy 3 A3^2 = S^3.
        p, q = draw(st.integers(1, 12)), draw(st.integers(1, 4))
        return F(3 * p, q), f"{sign}{3 * p}*sqrt({p * q})/{q * q}"
    S = F(draw(st.integers(1, 56)), 4)
    r, m = draw(st.sampled_from((2, 3, 5, 6, 7, 4))), draw(st.integers(1, 6))
    share = draw(st.sampled_from((0.3, 0.9, 0.99, 1.0, 1.01)))
    k = max(1, math.floor(share * math.sqrt(float(S) ** 3 / 3) * m / math.sqrt(r)))
    k = max(1, k + draw(st.integers(-1, 1)))
    return S, f"{sign}{k}*sqrt({r})/{m}"


@given(_radical_params())
@settings(max_examples=60, deadline=None)
def test_radical_roots_by_sign_match_the_interval_route(point):
    params = cs.ScalarParams.make(*point)
    a3 = params.A3
    for tag in ("I", "II", "III"):
        base = cs._cubic_coeffs(tag, params.S)
        sextic = up.sub(up.mul(base, base), up.upoly([(a3 * a3).rational_value()]))
        every = [AlgebraicNumber(chain[0], box, chain)
                 for box, _m, chain in up.isolate_with_multiplicity(sextic, F(1, 2**20))]
        kept = [r for r in every if _is_root_of_shifted(r, base, a3)]
        defining, roots = cs._cubic_roots(tag, params)
        if a3.is_rational():
            # A square radicand folds into a rational A3: the cubic path, with
            # the roots the interval route keeps.
            assert defining == up.sub(base, up.upoly([a3.rational_value()]))
            assert len(roots) == len(kept) and all(r.compare(k) == 0 for r, k in zip(roots, kept))
        else:
            assert defining == sextic
            assert [tuple(r.box) for r in roots] == [tuple(r.box) for r in kept]


def test_system_I_even_spacing():
    params = cs.ScalarParams.make(12, 0)
    cfgs = cs.solve_system("I", params, F(1, 10**13))
    satisfied = [c for c in cfgs if c.constraint_satisfied]
    assert len(satisfied) == 1
    lams = satisfied[0].lambda_intervals(F(1, 10**13))
    mids = [(l.lo + l.hi) / 2 for l in lams]
    gap = 2 * math.sqrt(3 / 5)
    for a, b in zip(mids, mids[1:]):
        assert abs(float(b - a) - gap) < 1e-12
    checks = satisfied[0].verify_constraints(satisfied[0].power_sum_intervals(F(1, 10**12)))
    assert all(checks.values())
    # The non-pattern solution is reported but flagged.
    flagged = [c for c in cfgs if not c.constraint_satisfied]
    assert len(flagged) == 1
    assert flagged[0].multiplicities == [1, 2, 1]


def test_system_II_radical_triple():
    params = cs.ScalarParams.make(4, "8*sqrt(3)/3")
    cfgs = cs.solve_system("II", params)
    assert len(cfgs) == 1
    cfg = cfgs[0]
    assert cfg.constraint_satisfied
    assert cfg.multiplicities == [3, 1]
    lams = cfg.lambda_intervals(F(1, 10**12))
    mids = [float((l.lo + l.hi) / 2) for l in lams]
    expected = [-1 / math.sqrt(3)] * 3 + [math.sqrt(3)]
    for got, want in zip(mids, expected):
        assert abs(got - want) < 1e-10
    assert all(cfg.verify_constraints(cfg.power_sum_intervals(F(1, 10**10))).values())


def test_system_II_mirrored_radical():
    # The sign-flipped radical input lands the triple on the upper side:
    # middle-pair equality holds (tag II), bottom-pair equality does not.
    params = cs.ScalarParams.make(4, "-8*sqrt(3)/3")
    assert any("negative" in w for w in params.admissibility_warnings())
    cfgs = cs.solve_system("II", params)
    assert len(cfgs) == 1 and cfgs[0].constraint_satisfied
    assert cfgs[0].multiplicities == [1, 3]
    cfgs = cs.solve_system("III", params)
    assert len(cfgs) == 1 and not cfgs[0].constraint_satisfied


def test_system_III_clifford_pattern():
    params = cs.ScalarParams.make(4, 0)
    cfgs = cs.solve_system("III", params)
    satisfied = [c for c in cfgs if c.constraint_satisfied]
    assert len(satisfied) == 1
    lams = satisfied[0].lambda_intervals(F(1, 10**12))
    mids = [float((l.lo + l.hi) / 2) for l in lams]
    assert max(abs(a - b) for a, b in zip(mids, (-1, -1, 1, 1))) < 1e-11
    assert satisfied[0].multiplicities == [2, 2]


def test_admissibility_warnings():
    assert cs.ScalarParams.make(8, 1).admissibility_warnings() == []
    warns = cs.ScalarParams.make(4, "8*sqrt(3)/3").admissibility_warnings()
    assert any("range" in w for w in warns)
    assert any("bound" in w for w in warns)
    assert cs.ScalarParams.make(8, -1).admissibility_warnings()


def test_double_rooted_cubic_gives_triple_configuration():
    # 12x^3 - 36x + 24 = 12(x-1)^2(x+2): the doubled value 1 merges with a
    # simple-pair member into a triple; the other root has no real branch.
    params = cs.ScalarParams.make(12, -24)
    cfgs = cs.solve_system("II", params)
    assert len(cfgs) == 1
    assert cfgs[0].multiplicities == [1, 3]
    lams = cfgs[0].lambda_intervals(F(1, 10**10))
    mids = [float((l.lo + l.hi) / 2) for l in lams]
    assert max(abs(a - b) for a, b in zip(mids, (-3, 1, 1, 1))) < 1e-9


def test_empty_solution_set_is_valid():
    # A3 far beyond the cubic bound: no real configuration for system I.
    params = cs.ScalarParams.make(5, 40)
    cfgs = cs.solve_system("I", params)
    assert cfgs == []


# -- brute-force grid oracle ------------------------------------------------------

def _grid_oracle_count(tag: str, S: float, A3: float, n: int = 400) -> int:
    """Count sorted-chamber solutions of (p3 = A3, pattern) by grid refinement.

    Scans the chart, keeps cells where both constraint functions could
    vanish (sign change or small value against a cell-size threshold), then
    clusters adjacent hits.
    """

    def constraints(l1, l2):
        s = -(l1 + l2)
        disc = 2 * (S - l1 * l1 - l2 * l2) - s * s
        if disc < 0:
            return None
        r = math.sqrt(disc)
        l3, l4 = (s - r) / 2, (s + r) / 2
        if l2 > l3 + 1e-12:
            return None
        p3 = l1**3 + l2**3 + l3**3 + l4**3
        if tag == "I":
            pat = (l3 - l2) - (l2 - l1)
        elif tag == "II":
            pat = l3 - l2
        else:
            pat = l2 - l1
        return p3 - A3, pat

    bound = math.sqrt(S)
    step = 2 * bound / n
    hits = set()
    for i in range(n + 1):
        for j in range(2 * n + 1):
            l1 = -bound + i * step / 2
            if l1 > 0:
                continue
            l2 = -bound + j * step
            vals = constraints(l1, l2)
            if vals is None:
                continue
            c1, c2 = vals
            # Cell-local threshold: a root forces both functions small.
            if abs(c1) < 12 * step and abs(c2) < 6 * step:
                hits.add((round(l1 / (8 * step)), round(l2 / (8 * step))))
    # Cluster adjacent grid hits.
    clusters = 0
    seen = set()
    for cell in sorted(hits):
        if cell in seen:
            continue
        clusters += 1
        stack = [cell]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = (c[0] + dx, c[1] + dy)
                    if nb in hits and nb not in seen:
                        stack.append(nb)
    return clusters


@pytest.mark.parametrize("tag,S,A3", [("I", 12, 0), ("III", 4, 0), ("II", 8, 2), ("I", 8, 1)])
def test_solution_count_matches_grid_oracle(tag, S, A3):
    params = cs.ScalarParams.make(S, A3)
    cfgs = cs.solve_system(tag, params)
    solver_count = sum(1 for c in cfgs if c.constraint_satisfied)
    oracle_count = _grid_oracle_count(tag, float(S), float(A3))
    assert solver_count == oracle_count


def test_case_branch_identities():
    rep = cs.case_branch_identities(cs.ScalarParams.make(6, 0))
    assert rep["status"] == "pass"
    assert rep["top_pair_cube_sum_identity"]
    assert rep["equality_pattern_3p3sq_eq_p2cubed"]
    assert rep["negativity_spot_checks_pass"]
    # Spot values of the collapsed cube sum -6 x (S/2 - 2 x^2).
    assert -6 * 1 * (F(6, 2) - 2) == -6      # x = 1, S = 6: strictly negative
    assert -6 * 1 * (F(4, 2) - 2) == 0       # x = 1, S = 4: boundary case


def test_pattern_cube_identity_values():
    # (3, -1, -1, -1): p2 = 12, p3 = 24, and 3 * 24^2 = 12^3.
    lams = (3, -1, -1, -1)
    p2 = sum(x * x for x in lams)
    p3 = sum(x**3 for x in lams)
    assert (p2, p3) == (12, 24)
    assert 3 * p3**2 == p2**3


_RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(_RATIONAL, _RATIONAL, _RATIONAL)
def test_root_sum_sign_matches_exact_fractions(a, b, r):
    # With d = r^2, a + b sqrt(d) = a + b |r| exactly; each sign is asked
    # for only when the rule needs it.
    d = r * r
    exact = a + b * abs(r)
    asked = []

    def sign_of(name, x):
        def ask():
            asked.append(name)
            return (x > 0) - (x < 0)
        return ask

    sign = root_sum_sign((a > 0) - (a < 0), (b > 0) - (b < 0), sign_of("d", d),
                         sign_of("norm", a * a - b * b * d))
    assert sign == quad_sign(a, b, d) == (exact > 0) - (exact < 0)
    assert ("d" in asked) == (b != 0)
    assert ("norm" in asked) == (b != 0 and d != 0 and a * b < 0)


@pytest.mark.parametrize("tag", ["I", "II"])
def test_member_sign_asks_no_radicand_sign_when_q_is_zero(monkeypatch, tag):
    # p(x0) + 0 * sqrt(D(x0)) has the sign of p(x0), whatever D(x0) is.
    cfg = cs.solve_system(tag, cs.ScalarParams.make(8, 1))[0]
    asked = []
    sign_of = AlgebraicNumber.sign_of
    monkeypatch.setattr(AlgebraicNumber, "sign_of", lambda x0, q: asked.append(q) or sign_of(x0, q))
    members = cfg.members + [cs._ZERO_MEMBER]
    for m1 in members:
        for m2 in members:
            asked.clear()
            cs._sign_member_diff(m1, m2, cfg.x0, cfg.D)
            assert (cfg.D in asked) == (m1.q != m2.q)
