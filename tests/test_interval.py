"""Outward-rounded intervals (vinterval.VI) on the path the band certificates
use: containment, poles, refinement monotonicity, tight squares."""

import random
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

from isocert.certify import _CELL_BLOCK, _SideProgram, _chart_terms, _side_program
from isocert.exactalg import FactorBase, FactoredFn, MultiPoly, SymbolTable
from isocert.identities import gamma_L_polynomials, gap_band_quantities
from isocert.vinterval import VI, float_down, float_up

T = SymbolTable.geometry()
L = {i: MultiPoly.var(T, f"l{i}") for i in range(1, 5)}
GAMMA_L1 = gamma_L_polynomials()[1]


def _box(**bounds) -> dict[str, VI]:
    """One cell per column: name -> (lo list, hi list); unnamed l's are [0, 0]."""
    n = len(next(iter(bounds.values()))[0])
    box = {f"l{i}": VI(np.zeros(n), np.zeros(n)) for i in range(1, 5)}
    for name, (lo, hi) in bounds.items():
        box[name] = VI(lo, hi)
    return box


def _chart(box: dict[str, VI]) -> list[VI]:
    return [box[f"l{i}"] for i in range(1, 5)]


def _enclose(poly: MultiPoly, box: dict[str, VI]) -> VI:
    """The enclosure of one polynomial: the numerator row of a one-pair program."""
    sums = _SideProgram([(poly, MultiPoly.const(T, 1))]).polys(_chart(box))
    return VI(sums.lo[0], sums.hi[0])


def _contains(enc: VI, k: int, x) -> bool:
    """Exact test: python floats compare exactly with Fractions."""
    return float(enc.lo[k]) <= x <= float(enc.hi[k])


def test_sum_over_unit_boxes():
    out = _enclose(L[1] + L[2], _box(l1=([0.0], [1.0]), l2=([0.0], [1.0])))
    assert out.lo[0] <= 0.0 and out.hi[0] >= 2.0
    assert out.hi[0] < 2.0 + 1e-12


def test_gamma_L1_point_enclosure():
    eps = 1e-9
    probe = {"l1": -3, "l2": -1, "l3": 1, "l4": 3}
    box = _box(**{k: ([v - eps], [v + eps]) for k, v in probe.items()})
    out = _enclose(GAMMA_L1, box)
    assert out.lo[0] <= -256 <= out.hi[0]
    assert out.hi[0] - out.lo[0] < 1e-5


def test_possible_pole():
    # 1 / (l1 - l2): the first cell's denominator box straddles 0, the
    # second's does not.
    expr = FactoredFn(FactorBase([L[1] - L[2]]), MultiPoly.const(T, 1), (1,)).normalize()
    box = _box(l1=([-0.5, 1.0], [0.5, 2.0]), l2=([-0.5, -0.5], [0.5, 0.5]))
    val, ok = _SideProgram([(expr.num, expr.den_poly())])(_chart(box))
    val, ok = VI(val.lo[0], val.hi[0]), ok[0]
    assert list(ok) == [False, True]
    # 1 / [1/2, 5/2] = [2/5, 2]
    assert _contains(val, 1, F(2, 5)) and _contains(val, 1, 2)


def test_from_fraction_containment():
    # Coefficients enter a program as floats widened one ulp outward.
    for q in (F(1, 3), F(-7, 11), F(2), F(10**18 + 1, 3)):
        enc = _enclose(MultiPoly.const(T, q), _box(l1=([0.0], [0.0])))
        assert _contains(enc, 0, q)


def test_containment_random_points():
    # 60 random rational boxes, one cell each, evaluated in one batch.
    rng = random.Random(7)
    lo = {f"l{i}": [] for i in range(1, 5)}
    hi = {f"l{i}": [] for i in range(1, 5)}
    points = []
    for _ in range(60):
        pt = {}
        for i in range(1, 5):
            a = F(rng.randrange(-8, 8), 4)
            b = a + F(rng.randrange(0, 4), 4)
            pt[f"l{i}"] = a + (b - a) * F(rng.randrange(0, 5), 4)
            lo[f"l{i}"].append(float(a))
            hi[f"l{i}"].append(float(b))
        points.append(pt)
    enc = _enclose(GAMMA_L1, _box(**{k: (lo[k], hi[k]) for k in lo}))
    for k, pt in enumerate(points):
        assert _contains(enc, k, GAMMA_L1.evaluate(pt))


def test_monotone_refinement():
    # The union of the child enclosures never exceeds the parent enclosure.
    expr = (L[1] * L[2] - L[1] ** 2) * (L[2] + 2)
    parent = _enclose(expr, _box(l1=([-1.0], [1.0]), l2=([0.0], [2.0])))
    kids = _enclose(expr, _box(l1=([-1.0, 0.0], [0.0, 1.0]), l2=([0.0, 0.0], [2.0, 2.0])))
    assert parent.lo[0] <= kids.lo.min() and kids.hi.max() <= parent.hi[0]


def _term_walk(poly: MultiPoly, box: dict[str, VI], n: int) -> VI:
    """Reference: read every exponent field of every term on each call."""
    total = VI(np.zeros(n), np.zeros(n))
    powers = {}
    for mono, coeff in poly.sorted_terms():
        term = None
        for i, e in enumerate(poly.exponents(mono)):
            if e:
                if (i, e) not in powers:
                    base = p = box[poly.table.names[i]]
                    for _ in range(e - 1):
                        p = p * base
                    powers[i, e] = p
                term = powers[i, e] if term is None else term * powers[i, e]
        c = VI.scalar(np.nextafter(float(coeff), -np.inf), np.nextafter(float(coeff), np.inf), n)
        total = total + (c if term is None else term * c)
    return total


def _same_bits(want: np.ndarray, got: np.ndarray) -> bool:
    return want.shape == got.shape and np.array_equal(want.view(np.int64), got.view(np.int64))


def test_compiled_polys_match_term_walk_bitwise():
    # Batching reorders no float operation, so enclosures are bit-identical,
    # signed zeros included; all polynomials of a side share one program.
    for n in (1, 50, 400):
        rng = random.Random(11 + n)
        lo = {f"l{i}": [rng.uniform(-3, 3) for _ in range(n)] for i in range(1, 5)}
        hi = {k: [x + rng.uniform(0, 0.5) for x in v] for k, v in lo.items()}
        for k in range(0, n, 5):   # some degenerate and zero-touching boxes
            name = f"l{rng.randint(1, 4)}"
            lo[name][k], hi[name][k] = rng.choice([(0.0, 0.0), (-0.0, 0.0), (-0.0, 1.0), (-1.0, 0.0)])
        box = _box(**{k: (lo[k], hi[k]) for k in lo})
        for side in ("g", "f"):
            exprs = list(gap_band_quantities(side).values())
            got = _SideProgram([(e.num, e.den_poly()) for e in exprs]).polys(_chart(box))
            for j, poly in enumerate([e.num for e in exprs] + [e.den_poly() for e in exprs]):
                want = _term_walk(poly, box, n)
                assert _same_bits(want.lo, got.lo[j])
                assert _same_bits(want.hi, got.hi[j])


_EDGE_BOXES = st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (-0.0, 1.0), (-1.0, 0.0), (2.0, 2.0)])
_FREE_BOXES = st.tuples(st.floats(-3, 3), st.floats(0, 0.5)).map(lambda b: (b[0], b[0] + b[1]))


@st.composite
def _program_cases(draw):
    """Boxes over a cell count at and around the cell-block edges, and
    polynomial pairs of unequal term counts, with a constant polynomial."""
    b = _CELL_BLOCK
    n = draw(st.sampled_from([1, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 4 * b + 1]))
    cells = draw(st.lists(st.tuples(*[_EDGE_BOXES | _FREE_BOXES] * 4), min_size=n, max_size=n))
    box = _box(**{f"l{i + 1}": ([c[i][0] for c in cells], [c[i][1] for c in cells])
                  for i in range(4)})
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * 4),
                     st.fractions(-50, 50, max_denominator=9).filter(bool))

    def poly(terms):
        return sum((c * L[1] ** e[0] * L[2] ** e[1] * L[3] ** e[2] * L[4] ** e[3] for e, c in terms),
                   MultiPoly.zero(T))

    polys = [poly(t) for t in draw(st.lists(st.lists(term, min_size=1, max_size=12),
                                            min_size=1, max_size=5))]
    # Terms l1^a l2^b l3^c l4^d with one (a, b): they share their first two factor rows.
    head = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    tails = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=6,
                          unique=True))
    polys.insert(0, poly([((*head, *tail), c) for tail, c in zip(tails, draw(
        st.lists(term.map(lambda t: t[1]), min_size=len(tails), max_size=len(tails))))]))
    polys.append(MultiPoly.const(T, draw(st.fractions(-9, 9, max_denominator=7).filter(bool))))
    pairs = [(polys[i], polys[-1 - i]) for i in range(len(polys) // 2 + 1)]
    return box, n, pairs


def _divide(num: VI, den: VI) -> tuple[VI, np.ndarray]:
    """Reference: num / den over cells where den excludes zero, by the
    sign of den, with the placeholder [1, 2] where it does not."""
    ok = (den.lo > 0) | (den.hi < 0)
    safe = VI(np.where(ok, den.lo, 1.0), np.where(ok, den.hi, 2.0))
    pos = safe.lo > 0
    den_pos = VI(np.where(pos, safe.lo, -safe.hi), np.where(pos, safe.hi, -safe.lo))
    num_adj = VI(np.where(pos, num.lo, -num.hi), np.where(pos, num.hi, -num.lo))
    return num_adj / den_pos, ok


@given(_program_cases())
@settings(max_examples=30, deadline=None)
def test_side_program_matches_term_walk_bitwise(case):
    # Each polynomial's sum runs over exactly its own terms in monomial
    # order, whatever the other polynomials' term counts; the quotients,
    # taken in cell blocks, are those of the term walks' sums.
    box, n, pairs = case
    program = _SideProgram(pairs)
    # Each distinct prefix is multiplied out once: fewer products than the
    # terms' chains hold, since the first polynomial's terms share one.
    chained = sum(len(f) - 1 for pair in pairs for p in pair for f, _ in _chart_terms(p) if f)
    assert sum(len(parent) for parent, _ in program.levels) < chained
    got = program.polys(_chart(box))
    with np.errstate(over="ignore"):     # a denominator near zero may overflow to inf
        val, ok = program(_chart(box))
    for r, (num, den) in enumerate(pairs):
        walks = [_term_walk(poly, box, n) for poly in (num, den)]
        for j, want in ((r, walks[0]), (len(pairs) + r, walks[1])):
            assert _same_bits(want.lo, got.lo[j])
            assert _same_bits(want.hi, got.hi[j])
        with np.errstate(over="ignore"):
            want, want_ok = _divide(*walks)
        assert _same_bits(want.lo, val.lo[r]) and _same_bits(want.hi, val.hi[r])
        assert np.array_equal(want_ok, ok[r])


_NUM_END = st.sampled_from([0.0, -0.0, np.inf, -np.inf]) | st.floats(allow_nan=False)
_DEN_END = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@st.composite
def _quotient_cases(draw):
    """num and den batches; each cell's den excludes zero, with either sign."""
    n = draw(st.integers(1, 8))
    num = [sorted(draw(st.tuples(_NUM_END, _NUM_END))) for _ in range(n)]
    den = []
    for _ in range(n):
        a, b = sorted(draw(st.tuples(_DEN_END, _DEN_END)))
        den.append((a, b) if draw(st.booleans()) else (-b, -a))
    return VI(*zip(*num)), VI(*zip(*den))


@given(_quotient_cases())
def test_quotient_matches_the_flipped_positive_quotient_bitwise(case):
    # Reference: flip num and den where den < 0, then take the extremes of
    # the four endpoint quotients by a positive divisor, widened outward.
    # IEEE division is symmetric in sign, so only the sign of a zero
    # quotient can differ, and nextafter maps -0.0 and 0.0 alike.
    num, den = case
    pos = den.lo > 0
    n_lo, n_hi = np.where(pos, num.lo, -num.hi), np.where(pos, num.hi, -num.lo)
    d_lo, d_hi = np.where(pos, den.lo, -den.hi), np.where(pos, den.hi, -den.lo)
    with np.errstate(over="ignore"):
        quotients = np.stack([n / d for n in (n_lo, n_hi) for d in (d_lo, d_hi)])
        got = num / den
    assert _same_bits(np.nextafter(quotients.min(axis=0), -np.inf), got.lo)
    assert _same_bits(np.nextafter(quotients.max(axis=0), np.inf), got.hi)


def test_g_programs_multiply_each_shared_prefix_once():
    # The four G quantities of a side: 277 terms whose chains hold 513 factor
    # products, 130 (g) and 128 (f) of them distinct prefixes.
    for side, products in (("g", 130), ("f", 128)):
        program = _side_program(side, ("G1", "G2", "G3", "G4"))
        exprs = [gap_band_quantities(side)[key] for key in ("G1", "G2", "G3", "G4")]
        polys = [e.num for e in exprs] + [e.den_poly() for e in exprs]
        assert sum(len(f) - 1 for p in polys for f, _ in _chart_terms(p) if f) == 513
        assert sum(len(parent) for parent, _ in program.levels) == products
        assert sum(len(slots) for final, _, slots in program.groups if final is not None) == 277


def test_ratfn_enclosures_do_not_depend_on_cell_blocks():
    # 400 cells in one call cross several cell-block boundaries; the same
    # cells split 150 + 250 cross them elsewhere.  Every bit must agree.
    rng = random.Random(5)
    lo = {f"l{i}": [rng.uniform(-3, 3) for _ in range(400)] for i in range(1, 5)}
    box = _box(**{k: (v, [x + rng.uniform(0, 0.5) for x in v]) for k, v in lo.items()})

    def cells(part):
        return [VI(v.lo[part], v.hi[part]) for v in _chart(box)]

    program = _SideProgram([(e.num, e.den_poly()) for e in gap_band_quantities("g").values()])
    whole, ok = program(cells(slice(None)))
    parts = [program(cells(p)) for p in (slice(0, 150), slice(150, None))]
    for got, want in ((whole.lo, [v.lo for v, _ in parts]), (whole.hi, [v.hi for v, _ in parts]),
                      (ok, [k for _, k in parts])):
        assert np.array_equal(got.view(np.int8), np.concatenate(want, axis=1).view(np.int8))


def test_power_tightness():
    x = VI([-2.0], [1.0])
    sq = x.sq()
    assert sq.lo[0] == 0.0 and sq.hi[0] >= 4.0
    cube = x * sq
    assert cube.lo[0] <= -8.0 and cube.hi[0] >= 1.0


def test_sqrt_clamps_tiny_negative():
    r = VI([-1e-18], [4.0]).sqrt_clamped()
    assert r.lo[0] == 0.0 and r.hi[0] >= 2.0


@given(st.fractions(min_value=-10**9, max_value=10**9)
       | st.floats(allow_nan=False, allow_infinity=False).map(F))
def test_float_down_up_bracket_fractions(q):
    lo, hi = float_down(q), float_up(q)
    assert F(lo) <= q <= F(hi)
    if F(float(q)) == q:
        assert lo == hi == float(q)
    else:
        assert hi == np.nextafter(lo, np.inf)
