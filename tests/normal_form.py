"""Exact value of a normal-form `FactoredFn` at a rational point.

The tests' oracle for rational functions: the numerator's value over the
expanded denominator's value, both by `MultiPoly.evaluate`.
"""

from __future__ import annotations

from fractions import Fraction


def value(fn, point) -> Fraction:
    """num(point) / den_poly(point); ZeroDivisionError naming the denominator at a pole."""
    den = fn.den_poly()
    dv = den.evaluate(point)
    if dv == 0:
        raise ZeroDivisionError(f"pole: denominator {den} vanishes at the given point")
    return fn.num.evaluate(point) / dv
