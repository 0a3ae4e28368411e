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

__all__ = ["bernoulli", "conifold_gv_table", "conifold_gw_table"]

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


def conifold_gw_table(g_max: int, d_max: int) -> InvariantTable:
    """Rank-1 table of the closed-form cover contributions up to the bounds.

    Each genus is built as one integer layer: genus 0 over lcm(d^3),
    genus 1 over 12 lcm(d), and each genus g >= 2 over the denominator of
    its constant |B_2g| / (2g (2g-2)!), computed once, with the cell of
    degree d that constant's numerator times d^(2g-3).  These are in
    lowest terms, as ``_of_layers`` needs: at genus 0 and 1 the cell at
    the largest p^a <= d_max is prime to p, and the cell at d = 1 of a
    genus g >= 2 is the constant's numerator, prime to its denominator.
    """
    g_max, d_max = operator.index(g_max), operator.index(d_max)
    if d_max < 1:
        raise ValueError("degree bound must be at least 1")
    if g_max < 0:
        raise ValueError("genus bound must be nonnegative")
    degrees = range(1, d_max + 1)
    top = math.lcm(*degrees)
    # lcm(d^3) = top^3 and lcm(12 d) = 12 top
    layers = [
        (top**3, {(d,): (top // d) ** 3 for d in degrees}),
        (12 * top, {(d,): top // d for d in degrees}),
    ]
    for g in range(2, g_max + 1):
        c = abs(bernoulli(2 * g)) / (2 * g * math.factorial(2 * g - 2))
        num, e = c.numerator, 2 * g - 3
        layers.append((c.denominator, {(d,): num * d**e for d in degrees}))
    # every cell is in bounds and nonzero (B_2g != 0 for g >= 1)
    return InvariantTable._of_layers(KIND_GW, 1, g_max, (d_max,), layers[: g_max + 1])


def conifold_gv_table(g_max: int, d_max: int) -> InvariantTable:
    """Transform of the closed-form table; expected: a lone 1 at (0, 1)."""
    return gw_to_gv(conifold_gw_table(g_max, d_max))
