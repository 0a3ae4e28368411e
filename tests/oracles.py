"""Independent brute-force oracles used to derive expected test values.

Everything here is deliberately written against the obvious definition
(dict convolutions, long division by ascending terms, divisor sums,
binomial formulas) and shares no code with the library, so agreement
between the two is a real check rather than a tautology.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

Fr = Fraction


# --- dict-based Laurent arithmetic ------------------------------------------


def dict_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, Fr(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def dict_pow(a: dict[int, Fraction], n: int) -> dict[int, Fraction]:
    out = {0: Fr(1)}
    for _ in range(n):
        out = dict_mul(out, a)
    return out


def laurent_add_naive(a, b):
    """Sum of two library LaurentSeries in one variable, term by term.

    The dict-based addition the library used before its dense one: every
    nonzero term below the common truncation order goes into a dict, and
    the result is rebuilt from it.
    """
    from bps_kit.series import LaurentSeries

    assert a.var == b.var
    trunc = min(a.trunc_order, b.trunc_order)
    terms: dict[int, Fraction] = {}
    for e, c in a.terms():
        if e < trunc:
            terms[e] = terms.get(e, Fr(0)) + c
    for e, c in b.terms():
        if e < trunc:
            terms[e] = terms.get(e, Fr(0)) + c
    return LaurentSeries.from_terms(a.var, terms, trunc)


def long_division_inverse(a: dict[int, Fraction], n_terms: int) -> dict[int, Fraction]:
    """1/a by classic long division on ascending terms.

    Returns the first n_terms coefficients starting at exponent -v where
    v is the valuation of a.
    """
    v = min(e for e, c in a.items() if c != 0)
    out: dict[int, Fraction] = {}
    remainder = {0: Fr(1)}
    for step in range(n_terms):
        e_r = min(remainder) if remainder else None
        target = -v + step
        if e_r is None or e_r - v > target:
            out[target] = Fr(0)
            continue
        c = remainder[e_r] / a[v]
        out[e_r - v] = c
        for e, ca in a.items():
            k = e_r - v + e
            remainder[k] = remainder.get(k, Fr(0)) - c * ca
        remainder = {e: cc for e, cc in remainder.items() if cc != 0}
    return out


def two_sin_half(k: int, n_terms: int) -> dict[int, Fraction]:
    """Taylor coefficients of 2*sin(k*x/2) up to exponent n_terms - 1."""
    out: dict[int, Fraction] = {}
    for j in range(1, n_terms, 2):
        sign = -1 if (j // 2) % 2 else 1
        out[j] = Fr(2) * Fr(sign * k**j, 2**j * math.factorial(j))
    return out


def sin_power_coeffs(k: int, genus: int, max_exp: int) -> dict[int, Fraction]:
    """Coefficients of (2 sin(k x/2))**(2g-2) for exponents <= max_exp."""
    s = two_sin_half(k, max_exp + 2 * genus + 8)
    sq = dict_mul(s, s)
    if genus == 0:
        inv = long_division_inverse(sq, max_exp + 3)
        return {e: c for e, c in inv.items() if e <= max_exp and c != 0}
    if genus == 1:
        return {0: Fr(1)}
    p = dict_pow(sq, genus - 1)
    return {e: c for e, c in p.items() if e <= max_exp and c != 0}


# --- arithmetic functions -----------------------------------------------------


def mobius_bruteforce(n: int) -> int:
    """Mobius function straight from the definition via full factorization."""
    if n == 1:
        return 1
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            count = 0
            while m % p == 0:
                m //= p
                count += 1
            factors.append(count)
        p += 1
    if m > 1:
        factors.append(1)
    if any(c > 1 for c in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius_transform_genus0(gw: dict[int, Fraction], d: int) -> Fraction:
    """Direct divisor sum: sum over e | d of mu(e)/e^3 * gw[d/e]."""
    total = Fr(0)
    for e in divisors(d):
        total += Fr(mobius_bruteforce(e), e**3) * gw.get(d // e, Fr(0))
    return total


@functools.cache
def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """B_0..B_n by Akiyama-Tanigawa; yields the B1 = +1/2 convention."""
    a = [Fr(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fr(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out[n]


def conifold_gw(g: int, d: int) -> Fraction:
    """Degree-d cover contribution of a rigid (-1,-1) curve at genus g, per cell.

    1/d^3 at genus 0, 1/(12 d) at genus 1, and |B_2g| d^(2g-3) / (2g (2g-2)!)
    above, with B_2g from the Akiyama-Tanigawa oracle.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return Fr(1, d**3)
    if g == 1:
        return Fr(1, 12 * d)
    b = bernoulli_akiyama_tanigawa(2 * g)
    return abs(b) * d ** (2 * g - 3) / (2 * g * math.factorial(2 * g - 2))


# --- the GV -> GW multiple-cover sum ------------------------------------------


@functools.cache
def cover_coefficient_naive(k: int, g: int, h: int) -> Fraction:
    """[x^(2h-2)] of (1/k)(2 sin(k x/2))^(2g-2), expanded for this k."""
    return sin_power_coeffs(k, g, 2 * h - 2).get(2 * h - 2, Fr(0)) / k


def gv_to_gw_naive(table):
    """The forward cover sum, dense over every cell and every (k, g, h).

    GW_h(gamma) = sum over k dividing gamma and over g of
    GV_g(gamma / k) * [x^(2h-2)] (1/k)(2 sin(k x/2))^(2g-2), with each
    sine power expanded for its own k.  Only the table container comes
    from the library.
    """
    from bps_kit.transform import KIND_GW, InvariantTable

    genera = range(table.genus_max + 1)
    entries = {}
    for gamma in itertools.product(*[range(m + 1) for m in table.degree_max]):
        if not any(gamma):
            continue
        for h in genera:
            total = Fr(0)
            for k in range(1, max(gamma) + 1):
                if any(d % k for d in gamma):
                    continue
                beta = tuple(d // k for d in gamma)
                for g in genera:
                    total += table.entries.get((g, beta), Fr(0)) * cover_coefficient_naive(k, g, h)
            entries[(h, gamma)] = total
    return InvariantTable(
        KIND_GW, table.lattice_rank, table.genus_max, table.degree_max, entries
    )


def genus_zero_slice(table):
    """Restrict a table to its genus-zero entries (genus_max becomes 0)."""
    entries = {(g, deg): v for (g, deg), v in table.entries.items() if g == 0}
    return type(table)(table.kind, table.lattice_rank, 0, table.degree_max, entries)


# --- binomial / geometric series ----------------------------------------------


def inv_power_series_coeff(m: int, n: int) -> Fraction:
    """Coefficient of q^n in 1/(1-q)^m."""
    return Fr(math.comb(n + m - 1, m - 1))


def poly_long_division(num: list[Fraction], den: list[Fraction]):
    """Quotient and remainder of num/den (ascending coefficient lists)."""
    num = list(num)
    quo = [Fr(0)] * max(len(num) - len(den) + 1, 0)
    while num and num[-1] == 0:
        num.pop()
    d = list(den)
    while d and d[-1] == 0:
        d.pop()
    while len(num) >= len(d) and num:
        if num[-1] == 0:
            num.pop()
            continue
        k = len(num) - len(d)
        c = num[-1] / d[-1]
        quo[k] = c
        for i, cb in enumerate(d):
            num[k + i] -= c * cb
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return quo, num


# --- the polar split over the rationals ------------------------------------------


def _ptrim(p):
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(
        (a[i] if i < len(a) else Fr(0)) + (b[i] if i < len(b) else Fr(0)) for i in range(n)
    )


def poly_mul(a, b):
    """Product of ascending coefficient sequences, as a trimmed tuple."""
    if not a or not b:
        return ()
    out = [Fr(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _taylor(num, den, order: int) -> list[Fraction]:
    out: list[Fraction] = []
    for m in range(order):
        s = num[m] if m < len(num) else Fr(0)
        for k in range(1, min(m, len(den) - 1) + 1):
            s -= den[k] * out[m - k]
        out.append(s / den[0])
    return out


def _totient(d: int) -> int:
    """Euler's phi from the product formula over the primes dividing d."""
    out, p = d, 2
    while p * p <= d:
        if d % p == 0:
            out -= out // p
            while d % p == 0:
                d //= p
        p += 1
    return out - out // d if d > 1 else out


@functools.cache
def cyclotomic_fraction(d: int) -> tuple[Fraction, ...]:
    """Phi_d over the rationals: q^d - 1 divided by Phi_e for each proper divisor e."""
    p = [Fr(-1)] + [Fr(0)] * (d - 1) + [Fr(1)]
    for e in divisors(d)[:-1]:
        p, rem = poly_long_division(p, cyclotomic_fraction(e))
        assert not rem
    return tuple(p)


def polar_split_fraction(num, den):
    """The split of num/den into a Laurent polynomial plus a proper part, over Q.

    num/den is in canonical form (Fraction tuples, coprime, den monic).
    This is the Fraction-arithmetic split the library ran before its
    integer one: strip q^k from den, check that every other root of den
    is a root of unity by dividing out each Phi_d with phi(d) <= deg den,
    take the first k Taylor coefficients p of num/den, and divide
    (num - p den)/q^k by den with remainder.  Returns (laurent, (proper
    numerator, proper denominator)) and raises the library's
    PoleLocationError for any other pole.
    """
    from bps_kit.series import PoleLocationError

    k = next(i for i, c in enumerate(den) if c)
    den = tuple(den[k:])
    rest, deg0 = den, len(den) - 1
    d = 1
    while len(rest) > 1 and d <= 2 * deg0 * deg0 + 1:
        if _totient(d) <= len(rest) - 1:
            while len(rest) > 1:
                quo, rem = poly_long_division(list(rest), list(cyclotomic_fraction(d)))
                if rem:
                    break
                rest = _ptrim(quo)
        d += 1
    if len(rest) > 1:
        raise PoleLocationError("pole away from q = 0 and roots of unity")
    laurent: dict[int, Fraction] = {}
    n = tuple(num)
    if k:
        principal = _taylor(n, den, k)
        laurent.update({i - k: c for i, c in enumerate(principal) if c})
        n = _padd(n, tuple([-c for c in poly_mul(tuple(principal), den)]))[k:]
    quo, rem = poly_long_division(list(n), list(den))
    laurent.update({e: c for e, c in enumerate(quo) if c})
    rem = _ptrim(rem)
    return laurent, ((rem, den) if rem else ((), (Fr(1),)))


# --- substitution x = q^r -------------------------------------------------------


def substitute(f, r: int):
    """f(q^r) for a rational function f, or f itself for a constant.

    Each coefficient of the numerator and of the denominator moves from
    exponent e to exponent r*e.
    """
    from bps_kit.series import QRationalFunction

    if not isinstance(f, QRationalFunction):
        return f

    def spread(p):
        out = [Fraction(0)] * (r * (len(p) - 1) + 1) if p else []
        for e, c in enumerate(p):
            out[r * e] = c
        return out

    return QRationalFunction(spread(f.num), spread(f.den))


# --- the cover series and the I/J coefficients built directly in q -------------


def _one_minus_q_to(r: int):
    from bps_kit.series import QRationalFunction

    return QRationalFunction([1] + [0] * (r - 1) + [-1])


def _repeated_product(x, n: int):
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def a_series_in_q(r: int, power: int | None = None):
    """a(r, q^r) = (r-1)/(1-q^r) + 1/(1-q^r)^2, from the formula in q.

    Here and below, ``power`` puts q^power where q^r stands; power 1
    builds in x = q^r.
    """
    u = _one_minus_q_to(r if power is None else power)
    return (r - 1) / u + 1 / (u * u)


def b_series_in_q(r: int, power: int | None = None):
    """b(r, q^r) = (r^2-1)/(1-q^r) + 3/(1-q^r)^2 - 2/(1-q^r)^3."""
    u = _one_minus_q_to(r if power is None else power)
    return (r * r - 1) / u + 3 / (u * u) - 2 / (u * u * u)


def i_coefficient_in_q(r: int, power: int | None = None):
    """(1-Pt)^2 / ((Pt)^{2r} q^{r(r-1)} (1 - P q^r)^2), built in q.

    Powers of ring elements are repeated products, so the oracle does not
    go through the ring's own power.
    """
    from bps_kit.kring import Y_RING, gen_p, gen_t, ring_one
    from bps_kit.series import q_power

    power = r if power is None else power
    one, p, t = ring_one(Y_RING), gen_p(Y_RING), gen_t(Y_RING)
    n2 = (one - p * t) * (one - p * t)
    factor_inv = (one - p * q_power(power)).inverse()
    pt_inv_power = _repeated_product((p * t).inverse(), 2 * r)
    return n2 * pt_inv_power * factor_inv * factor_inv * q_power(-power * (r - 1))


def j_y_coefficient_in_q(r: int, power: int | None = None):
    """(1-Pt)^2 ((1 + (1-P)) a(r, q^r) + (1-P) b(r, q^r)), built in q."""
    from bps_kit.kring import Y_RING, gen_p, gen_t, ring_one

    one, p, t = ring_one(Y_RING), gen_p(Y_RING), gen_t(Y_RING)
    n2 = (one - p * t) * (one - p * t)
    a, b = a_series_in_q(r, power), b_series_in_q(r, power)
    return n2 * (one + (one - p)) * a + n2 * (one - p) * b


def rank6_factors_generic():
    """The rank-6 numerators of I and J, by generic arithmetic over Q(x).

    The library's ``_rank6_factors`` takes (1 - P x)^-2 from a closed form;
    this inverts 1 - P x by the ring's linear solve over rational functions
    in x, squares it, lifts it by (x - 1)^pole and reads off the integer
    numerators of M^(k+2) times the lift, M = 1 - Pt, padded to one width.
    Same return shape: (pole, parts, constants).
    """
    from bps_kit.kring import Y_RING, gen_p, gen_t, ring_one
    from bps_kit.series import QRationalFunction, q_power

    one, p, rank = ring_one(Y_RING), gen_p(Y_RING), Y_RING.rank
    m = one - p * gen_t(Y_RING)
    factor_inv2 = (one - p * q_power(1)).inverse() ** 2
    pole = max(QRationalFunction._coerce(c).den_degree for c in factor_inv2.coords)
    lifted = factor_inv2 * (q_power(1) - 1) ** pole
    width = max(len(QRationalFunction._coerce(c).num) for c in lifted.coords)
    nums, power = [], m * m
    while not power.is_zero:
        for f in map(QRationalFunction._coerce, (power * lifted).coords):
            assert f.is_polynomial and all(c.denominator == 1 for c in f.num)
            nums.append(tuple(map(int, f.num)) + (0,) * (width - len(f.num)))
        power = power * m
    parts = tuple([tuple(nums[k : k + rank]) for k in range(0, len(nums), rank)])
    constants = zip((m * m * (one + (one - p))).coords, (m * m * (one - p)).coords)
    return pole, parts, tuple([(int(cd), int(cs)) for cd, cs in constants])


def laurent_polynomial_to_qrf(terms):
    """Rebuild a rational function from Laurent-polynomial coefficients {e: c}."""
    from bps_kit.series import QRationalFunction, q_power

    out = QRationalFunction.constant(0)
    for e, c in terms.items():
        out = out + q_power(e) * Fr(c)
    return out


# --- quotient-ring normal forms ------------------------------------------------


def groebner_normal_forms(a_max: int, b_max: int) -> dict:
    """Remainders of P^a t^b, a <= a_max and b <= b_max, in Z[P, t] / I.

    I is generated by (1-P)^2 and (1-Pt)^2 (1-t); the remainders come from
    sympy's lex Groebner basis with t > P.  Each maps (a, b) to a dict
    {(exponent of P, exponent of t): Fraction}.  Needs sympy.
    """
    import sympy

    p, t = sympy.symbols("P t")
    basis = sympy.groebner([(1 - p) ** 2, (1 - p * t) ** 2 * (1 - t)], t, p, order="lex")
    out = {}
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            _, rem = basis.reduce(p**a * t**b)
            terms = sympy.Poly(rem, p, t).terms()
            out[(a, b)] = {m: Fr(int(c.p), int(c.q)) for m, c in terms if c}
    return out


# --- GV-weighted sums of rational functions --------------------------------------


def weighted_sum_naive(pairs):
    """Sum of w * f over (w, f) pairs, one library addition per pair.

    The pairwise loop the library used before it added over one common
    denominator: each addition cross-multiplies and takes a gcd.
    """
    from bps_kit.series import QRationalFunction

    exact = QRationalFunction.constant(0)
    for w, f in pairs:
        if w:
            exact = f * w if exact.is_zero else exact + f * w
    return exact


# --- the JMGS right-hand side, one (degree, r) pair at a time -------------------


def jmgs_rhs_naive(gv, pairing, r_max: int, q_order: int) -> dict:
    """The terms of the GV-weighted double cover sum, built term by term.

    Unlike the rest of this module it uses the library's rational
    functions: it is the direct per-(degree, r) loop, which rebuilds
    a(r) and b(r) for every pair and expands each sum at the end, kept
    as a reference for the terms of ``jmgs_rhs``, in the same order.
    Table and argument validation is left to the library.
    """
    from bps_kit.jfunctions import JmgsTerm, a_series, b_series
    from bps_kit.series import QRationalFunction

    n_div = len(pairing.vectors)
    buckets: dict[tuple[int, ...], list] = {}
    for (g, d), value in sorted(gv.entries.items(), key=lambda kv: kv[0]):
        for r in range(1, r_max + 1):
            total = tuple(r * x for x in d)
            slot = buckets.setdefault(
                total,
                [[QRationalFunction.constant(0)] * n_div, QRationalFunction.constant(0)],
            )
            a_r = a_series(r)
            b_r = b_series(r)
            for j, vec in enumerate(pairing.vectors):
                weight = sum(x * y for x, y in zip(vec, d))
                if weight:
                    slot[0][j] = slot[0][j] + a_r * (value * weight)
            slot[1] = slot[1] + b_r * value
    terms = {}
    for total, (div_parts, structure) in buckets.items():
        terms[total] = JmgsTerm(
            divisor_exact=tuple(div_parts),
            divisor_expansion=tuple(p.expand(q_order) for p in div_parts),
            structure_exact=structure,
            structure_expansion=structure.expand(q_order),
        )
    return terms


# --- documents: each library value as a plain dict for json.dumps -------------------


def table_to_dict(table, description: str | None = None) -> dict:
    """The table file document of an InvariantTable."""
    doc = {
        "kind": table.kind,
        "lattice_rank": table.lattice_rank,
        "genus_max": table.genus_max,
        "degree_max": list(table.degree_max),
        "entries": [
            {"genus": g, "degree": list(deg), "value": str(v)}
            for (g, deg), v in sorted(table.entries.items())
        ],
    }
    if description is not None:
        doc["description"] = description
    return doc


def laurent_to_dict(s) -> dict:
    """The "laurent_series" document of a LaurentSeries."""
    return {
        "type": "laurent_series",
        "variable": s.var,
        "min_exp": s.min_exp,
        "trunc_order": s.trunc_order,
        "coefficients": list(map(str, s.coeffs)),
    }


def qseries_to_dict(s) -> dict:
    """The "q_series" document: coefficients of q^0 up to q^(trunc_order - 1).

    Only a power series in q fits it; anything else would lose terms.
    """
    from bps_kit.series import QVAR

    if s.var != QVAR or s.min_exp < 0:
        raise ValueError(
            f"a q_series document needs a power series in q, "
            f"got a series in {s.var} from exponent {s.min_exp}"
        )
    return {
        "type": "q_series",
        "trunc_order": s.trunc_order,
        "coefficients": ["0"] * s.min_exp + list(map(str, s.coeffs)),
    }


def qrf_to_dict(f) -> dict:
    """The "q_rational" document of a QRationalFunction."""
    return {
        "type": "q_rational",
        "numerator": list(map(str, f.num)),
        "denominator": list(map(str, f.den)),
    }


def kelem_to_dict(e) -> dict:
    """The "ring_element" document of a KElem."""
    from bps_kit.series import QRationalFunction

    coords = [qrf_to_dict(c) if isinstance(c, QRationalFunction) else str(c) for c in e.coords]
    return {
        "type": "ring_element",
        "ring": e.ring.name,
        "basis": list(e.ring.basis_names),
        "coords": coords,
    }


def integrality_to_dict(report) -> dict:
    """The document of an IntegralityReport."""
    return {
        "is_integral": report.is_integral,
        "violations": [
            {"genus": g, "degree": list(d), "value": str(v)}
            for g, d, v in report.violations
        ],
    }


def jmgs_to_dict(terms, lattice_rank: int, r_max: int, q_order: int) -> dict:
    """The jmgs document of a right-hand side with these terms and bounds."""
    return {
        "constant": "1",
        "lattice_rank": lattice_rank,
        "r_max": r_max,
        "q_order": q_order,
        "terms": [
            {
                "total_degree": list(deg),
                "divisor": [qrf_to_dict(f) for f in terms[deg].divisor_exact],
                "divisor_expansion": [qseries_to_dict(s) for s in terms[deg].divisor_expansion],
                "structure": qrf_to_dict(terms[deg].structure_exact),
                "structure_expansion": qseries_to_dict(terms[deg].structure_expansion),
            }
            for deg in sorted(terms, key=lambda d: (sum(d), d))
        ],
    }
