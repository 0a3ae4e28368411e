"""Closed-form cover contributions of a rigid rational (-1,-1) curve.

The degree-d, genus-g contribution of an isolated rational curve with
normal bundle O(-1) + O(-1) is known in closed form:

    g = 0:   1 / d^3
    g = 1:   1 / (12 d)
    g >= 2:  |B_{2g}| d^(2g-3) / (2g (2g-2)!)

Feeding these into the inverse transform must collapse everything to a
single unit at (genus 0, degree 1); that collapse is the strongest
end-to-end exercise of the genus-filtered inverse this package has.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction

from .transform import KIND_GW, InvariantTable, gw_to_gv

__all__ = ["bernoulli", "conifold_gw", "conifold_gv_table", "conifold_gw_table"]

_cache_lock = threading.Lock()
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), exact and cached.

    Uses the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    with _cache_lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            s = Fraction(0)
            for k in range(m):
                s += math.comb(m + 1, k) * _bernoulli_cache[k]
            _bernoulli_cache.append(-s / (m + 1))
        return _bernoulli_cache[n]


def conifold_gw(g: int, d: int) -> Fraction:
    """Degree-d cover contribution at genus g, by the three closed forms."""
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return Fraction(1, d**3)
    if g == 1:
        return Fraction(1, 12 * d)
    b = bernoulli(2 * g)
    return abs(b) * d ** (2 * g - 3) / (2 * g * math.factorial(2 * g - 2))


def conifold_gw_table(g_max: int, d_max: int) -> InvariantTable:
    """Rank-1 table of the closed-form cover contributions up to the bounds.

    Each genus g >= 2 computes its constant |B_2g| / (2g (2g-2)!) once;
    a cell is then that constant times d^(2g-3).
    """
    g_max, d_max = operator.index(g_max), operator.index(d_max)
    if d_max < 1:
        raise ValueError("degree bound must be at least 1")
    if g_max < 0:
        raise ValueError("genus bound must be nonnegative")
    degrees = range(1, d_max + 1)
    entries = {}
    for g in range(g_max + 1):
        if g == 0:
            entries.update({(0, (d,)): Fraction(1, d**3) for d in degrees})
        elif g == 1:
            entries.update({(1, (d,)): Fraction(1, 12 * d) for d in degrees})
        else:
            c = abs(bernoulli(2 * g)) / (2 * g * math.factorial(2 * g - 2))
            num, den, e = c.numerator, c.denominator, 2 * g - 3
            entries.update({(g, (d,)): Fraction(num * d**e, den) for d in degrees})
    # every cell is in bounds and nonzero (B_2g != 0 for g >= 1)
    return InvariantTable._from_valid(KIND_GW, 1, g_max, (d_max,), entries)


def conifold_gv_table(g_max: int, d_max: int) -> InvariantTable:
    """Transform of the closed-form table; expected: a lone 1 at (0, 1)."""
    return gw_to_gv(conifold_gw_table(g_max, d_max))
