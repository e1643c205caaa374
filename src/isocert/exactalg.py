"""Exact rational arithmetic and sparse multivariate polynomial algebra.

Every symbolic check in this package runs on the types defined here.

Representation:

  Coefficients            = Python int whenever integral, otherwise
                            fractions.Fraction (arbitrary precision, always
                            normalized with positive denominator).  No
                            operation turns an int coefficient into a float:
                            division by a non-unit goes through Fraction.
  SymbolTable             = fixed, ordered tuple of symbol names.  The order
                            is frozen at construction and fixes the packed
                            monomial layout below.
  Packed monomial         = one int.  Symbol i of an n-symbol table owns the
                            8-bit field at bit offset 8*(n-1-i); the total
                            degree sits above bit 8*n.  Bit 7 of every field
                            is a guard bit, so an exponent is at most
                            MAX_EXPONENT = 127.  Multiplying monomials is one
                            int addition: two fields of at most 127 sum to at
                            most 254, so no carry crosses into the next
                            field, and a guard bit left set in a stored
                            product raises MonomialOverflowError instead of
                            aliasing another monomial.  Because the degree is
                            the most significant part and symbol 0 the next,
                            plain int order is the graded lexicographic order
                            (total degree, then exponents from symbol 0 on).
  MultiPoly.terms         = dict mapping packed monomials to nonzero
                            coefficients.  The zero polynomial is the empty
                            dict.  Exponents are read back only through
                            `MultiPoly.exponents`, `MultiPoly.split_exponent`
                            and `MultiPoly.degree_in`.
  FactoredFn              = num over a product of powers of the monic
                            irreducible factors of a FactorBase, the powers
                            kept as an exponent tuple; no operation needs a
                            polynomial gcd.
  RatFn                   = num / den in normal form, as emitted by
                            `FactoredFn.to_ratfn`: every base factor that
                            divides num has been cancelled and den is the
                            expanded product of the remaining factors.  The
                            factors are monic and irreducible, so num and den
                            are coprime, den is monic under the graded lex
                            order, and two equal rational functions are
                            structurally equal.

Index conventions for the curvature problem are handled at symbol-interning
time: second-derivative symbols h_ijk are fully symmetric, so `SymbolTable.h`
sorts the indices before building the name.  No rewrite rules are needed
downstream.
"""

from __future__ import annotations

import functools
import heapq
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

MAX_EXPONENT = 0x7F
_FIELD_BITS = 8
_FIELD_MASK = 0xFF
_GUARD_BIT = 0x80


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a zero of its denominator."""

    def __init__(self, factor: str):
        super().__init__(f"pole: denominator {factor} vanishes at the given point")
        self.factor = factor


class SymbolMismatchError(ValueError):
    """Raised when operands were built over different symbol tables."""


class MonomialOverflowError(ArithmeticError):
    """Raised when a monomial would need an exponent above MAX_EXPONENT."""

    def __init__(self):
        super().__init__(f"monomial overflow: a product has an exponent above {MAX_EXPONENT}")


class SymbolTable:
    """Ordered, immutable set of symbol names.

    The position of a name in the table fixes its field in every packed
    monomial, so all values built over one table are interoperable and
    values from different tables never mix silently.

    Layout: `shifts[i]` is the bit offset of symbol i's exponent field,
    `units[i]` the packed monomial of symbol i to the first power (field
    plus one unit of total degree), `guard` has bit 7 of every field set and
    `fields` masks all exponent fields (everything below the degree).
    """

    __slots__ = ("names", "_index", "shifts", "units", "guard", "fields")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        n = len(names)
        self.shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        degree_unit = 1 << (_FIELD_BITS * n)
        self.units = tuple(degree_unit | (1 << s) for s in self.shifts)
        self.guard = sum(_GUARD_BIT << s for s in self.shifts)
        self.fields = degree_unit - 1

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"SymbolTable({', '.join(self.names)})"

    @staticmethod
    def h_name(i: int, j: int, k: int) -> str:
        """Canonical name of the symmetric second-derivative symbol h_ijk."""
        a, b, c = sorted((i, j, k))
        return f"h{a}{b}{c}"

    @staticmethod
    def r_name(i: int, j: int) -> str:
        """Canonical name of the sectional-curvature symbol R_ijij, i < j."""
        a, b = sorted((i, j))
        return f"R{a}{b}{a}{b}"

    @classmethod
    def geometry(cls, extra: Sequence[str] = ()) -> "SymbolTable":
        """Standard table: l1..l4, the 20 h_ijk, the 6 R_ijij, then extras."""
        names = [f"l{i}" for i in range(1, 5)]
        names += [
            cls.h_name(i, j, k)
            for i in range(1, 5)
            for j in range(i, 5)
            for k in range(j, 5)
        ]
        names += [cls.r_name(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        names += list(extra)
        return cls(names)


def _as_fraction(x: Scalar) -> Scalar:
    """Validate an exact scalar; ints stay ints, Fractions stay Fractions."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("table", "terms")

    def __init__(self, table: SymbolTable, terms: Mapping[int, Scalar] | None = None):
        self.table = table
        self.terms = dict(terms) if terms else {}

    @classmethod
    def _own(cls, table: SymbolTable, terms: dict[int, Scalar]) -> "MultiPoly":
        """Wrap a freshly built term dict without copying it."""
        p = object.__new__(cls)
        p.table = table
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, table: SymbolTable) -> "MultiPoly":
        return cls(table)

    @classmethod
    def const(cls, table: SymbolTable, value: Scalar) -> "MultiPoly":
        value = _as_fraction(value)
        if value == 0:
            return cls(table)
        return cls._own(table, {0: value})

    @classmethod
    def var(cls, table: SymbolTable, name: str) -> "MultiPoly":
        return cls._own(table, {table.units[table.index(name)]: 1})

    # -- bookkeeping ---------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise SymbolMismatchError("operands use different symbol tables")

    def is_zero(self) -> bool:
        return not self.terms

    def exponents(self, m: int) -> tuple[int, ...]:
        """Exponent of every symbol in the packed monomial m, in table order."""
        # One byte per field, symbol 0 most significant: big-endian bytes.
        return tuple((m & self.table.fields).to_bytes(len(self.table.names), "big"))

    def split_exponent(self, m: int, i: int) -> tuple[int, int]:
        """(e, rest): the exponent of symbol index i in m, and m with it set to 0."""
        e = (m >> self.table.shifts[i]) & _FIELD_MASK
        return e, m - e * self.table.units[i]

    def degree_in(self, name: str) -> int:
        shift = self.table.shifts[self.table.index(name)]
        return max(((m >> shift) & _FIELD_MASK for m in self.terms), default=0)

    def symbols_used(self) -> set[str]:
        # Field i of the OR of all monomials is nonzero iff symbol i occurs.
        support = functools.reduce(operator.or_, self.terms, 0)
        return {n for n, s in zip(self.table.names, self.table.shifts) if (support >> s) & _FIELD_MASK}

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.table, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MultiPoly._own(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._own(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.table, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                return MultiPoly(self.table)
            return MultiPoly._own(self.table, {m: c * q for m, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        # Iterate the smaller operand outside.  A monomial product is one int
        # add; zero sums are dropped and guard bits checked once per output.
        a_terms, b_terms = self.terms, other.terms
        if len(a_terms) > len(b_terms):
            a_terms, b_terms = b_terms, a_terms
        b_items = list(b_terms.items())
        out = {}
        get = out.get
        for m1, c1 in a_terms.items():
            for m2, c2 in b_items:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        out = {m: c for m, c in out.items() if c}
        guard = self.table.guard
        for m in out:
            if m & guard:
                raise MonomialOverflowError()
        return MultiPoly._own(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / q)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.table, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.table, tuple(sorted(self.terms.items()))))

    # -- canonical order ------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, Scalar]]:
        """Terms in descending graded lexicographic order (int order of monomials)."""
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, reverse=True)]

    def leading(self) -> tuple[int, Scalar]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    # -- calculus / evaluation -------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        i = self.table.index(name)
        shift, unit = self.table.shifts[i], self.table.units[i]
        out: dict[int, Scalar] = {}
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD_MASK
            if e:
                # Distinct monomials stay distinct after lowering one field.
                out[m - unit] = c * e
        return MultiPoly._own(self.table, out)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a fully bound rational point."""
        for name in self.symbols_used():
            if name not in point:
                raise KeyError(f"unbound symbol {name!r}")
        by_index = {self.table.index(n): _as_fraction(v) for n, v in point.items() if n in self.table}
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(self.exponents(m)):
                if e:
                    v *= by_index[i] ** e
            total += v
        return total

    # -- display ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.table.names
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(self.exponents(m)):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def divexact(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Exact quotient a / b, or None when b does not divide a.

    Leading monomials of the shrinking remainder come from a lazy max-heap
    of packed monomials, so each elimination step costs O(|b| log n)
    instead of a full scan.  The remainder's lead m is divisible by b's
    lead iff every field of d = (m | guard) - lead keeps its guard bit:
    with the guards set no field can borrow from its neighbour.

    A product q_m * b_m with an exponent above MAX_EXPONENT proves that b
    does not divide a: every q_m taken so far is a term of the quotient if
    one exists, and deg_x(q) + deg_x(b) = deg_x(a) <= MAX_EXPONENT for every
    symbol x.  Such a division returns None before the product is stored.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return MultiPoly(a.table)
    a._check(b)
    lead_b, lc_b = b.leading()
    other_b = [(m, c) for m, c in b.terms.items() if m != lead_b]
    guard = a.table.guard
    rem = dict(a.terms)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    q: dict[int, Scalar] = {}
    while heap:
        m = -heapq.heappop(heap)
        c = rem.pop(m, None)
        if c is None:
            continue
        if ((m | guard) - lead_b) & guard != guard:
            return None
        qm = m - lead_b
        if lc_b == 1:
            coeff = c
        elif lc_b == -1:
            coeff = -c
        else:
            coeff = Fraction(c) / lc_b
        q[qm] = coeff
        for mb, cb in other_b:
            key = qm + mb
            if key & guard:
                return None
            prev = rem.get(key)
            new = (prev if prev is not None else 0) - coeff * cb
            if new:
                rem[key] = new
                if prev is None:
                    heapq.heappush(heap, -key)
            elif prev is not None:
                del rem[key]
    return MultiPoly._own(a.table, q) if not rem else None


# -- rational functions ------------------------------------------------------

class RatFn:
    """Rational function in normal form: coprime parts, monic denominator.

    Built only by `FactoredFn.to_ratfn`, `from_poly` and `zero`, which all
    emit the normal form, so structural equality decides equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RatFn":
        return cls(p, MultiPoly.const(p.table, 1))

    @classmethod
    def zero(cls, table: SymbolTable) -> "RatFn":
        return cls.from_poly(MultiPoly.zero(table))

    @property
    def table(self) -> SymbolTable:
        return self.num.table

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den == MultiPoly.const(self.table, 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value; raises PoleError when the denominator vanishes."""
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleError(str(self.den))
        return self.num.evaluate(point) / dv

    def symbols_used(self) -> set[str]:
        return self.num.symbols_used() | self.den.symbols_used()

    def __repr__(self) -> str:
        return f"RatFn({self})"

    def __str__(self) -> str:
        if self.is_poly():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


class FactoredFn:
    """num / product-of-known-factors, for pipelines with a fixed factor base.

    Denominators are tracked as exponent tuples over a shared ordered base of
    monic irreducible polynomials (the curvature-gap differences, in this
    package).  Addition and multiplication then never need a polynomial gcd:
    common denominators are exponent-wise maxima and cancellation is trial
    division by the base factors.  `to_ratfn` emits the usual normal form;
    it is exact because the base factors are irreducible and monic.
    """

    __slots__ = ("base", "num", "den")

    def __init__(self, base: "FactorBase", num: MultiPoly, den: tuple[int, ...]):
        self.base = base
        self.num = num
        self.den = den if not num.is_zero() else base.zero_den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "FactoredFn") -> "FactoredFn":
        den = tuple(max(a, b) for a, b in zip(self.den, other.den))
        n1 = self.num * self.base.factor_power(tuple(c - a for a, c in zip(self.den, den)))
        n2 = other.num * self.base.factor_power(tuple(c - b for b, c in zip(other.den, den)))
        return FactoredFn(self.base, n1 + n2, den)

    def __neg__(self) -> "FactoredFn":
        return FactoredFn(self.base, -self.num, self.den)

    def __sub__(self, other: "FactoredFn") -> "FactoredFn":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FactoredFn):
            return FactoredFn(
                self.base, self.num * other.num, tuple(a + b for a, b in zip(self.den, other.den))
            )
        return FactoredFn(self.base, self.num * other, self.den)

    __rmul__ = __mul__

    def normalize(self) -> "FactoredFn":
        """Cancel every base factor dividing the numerator."""
        num = self.num
        den = list(self.den)
        if num.is_zero():
            return FactoredFn(self.base, num, self.base.zero_den)
        for i, e in enumerate(den):
            f = self.base.factors[i]
            while den[i] > 0:
                q = divexact(num, f)
                if q is None:
                    break
                num = q
                den[i] -= 1
        return FactoredFn(self.base, num, tuple(den))

    def to_ratfn(self) -> RatFn:
        """Exact normal-form RatFn (no gcd search needed)."""
        r = self.normalize()
        den_poly = self.base.factor_power(r.den)
        return RatFn(r.num, den_poly)

    def __repr__(self) -> str:
        return f"FactoredFn(({self.num}) / {self.den})"


class FactorBase:
    """Shared ordered base of monic irreducible denominators for FactoredFn."""

    __slots__ = ("table", "factors", "zero_den", "_power_cache")

    def __init__(self, factors: Sequence[MultiPoly]):
        if not factors:
            raise ValueError("empty factor base")
        self.table = factors[0].table
        for f in factors:
            lead_m, lead_c = f.leading()
            if lead_c != 1:
                raise ValueError("factor base entries must be monic")
        self.factors = tuple(factors)
        self.zero_den = (0,) * len(factors)
        self._power_cache: dict[tuple[int, ...], MultiPoly] = {}

    def factor_power(self, exps: tuple[int, ...]) -> MultiPoly:
        """The expanded product of base factors with the given exponents."""
        cached = self._power_cache.get(exps)
        if cached is not None:
            return cached
        out = MultiPoly.const(self.table, 1)
        for f, e in zip(self.factors, exps):
            for _ in range(e):
                out = out * f
        self._power_cache[exps] = out
        return out

    def one(self) -> FactoredFn:
        return FactoredFn(self, MultiPoly.const(self.table, 1), self.zero_den)

    def zero(self) -> FactoredFn:
        return FactoredFn(self, MultiPoly.zero(self.table), self.zero_den)

    def from_poly(self, p: MultiPoly) -> FactoredFn:
        return FactoredFn(self, p, self.zero_den)
