"""Tests for cover series, I/J coefficients, the split identity, and the RHS builder."""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bps_kit import jfunctions
from bps_kit.jfunctions import (
    DivisorPairing,
    a_series,
    b_series,
    i_coefficient,
    j_x_coefficient,
    j_y_coefficient,
    jmgs_rhs,
    split_check,
)
from bps_kit.kring import X_RING, Y_RING, gen_p, gen_t, ring_one
from bps_kit.series import QVAR, LaurentSeries, QRationalFunction
from bps_kit.serialize import dumps, table_from_dict
from bps_kit.datasets import quintic_gw_table
from bps_kit.transform import KIND_GV, InvariantTable, TableBoundError, TableKindError, gw_to_gv

from oracles import (
    QRF,
    PoleLocationError,
    a_series_in_q,
    b_series_in_q,
    i_coefficient_in_q,
    inv_power_series_coeff,
    j_y_coefficient_in_q,
    jmgs_rhs_naive,
    laurent_polynomial_to_qrf,
    lift,
    polar_split_fraction,
    q_power,
    rank6_factors_generic,
    substitute,
    weighted_sum_naive,
)

Fr = Fraction

ONE = ring_one(Y_RING)
P = gen_p(Y_RING)
T = gen_t(Y_RING)


def qrf(num, den=(1,)):
    return QRF(num, den)


def polar_split(f):
    """(laurent, proper) of a rational function or a constant, by the oracles' Fraction split."""
    f = coord_qrf(f)
    laurent, (num, den) = polar_split_fraction(f.num, f.den)
    return laurent, QRF(num, den)


# --- a and b ------------------------------------------------------------------


def test_a_series_r1_is_inverse_square():
    assert a_series(1) == qrf([1], [1, -2, 1])
    assert a_series(1).expand(4) == LaurentSeries(QVAR, 0, [1, 2, 3, 4], 4)


def test_a_series_value_at_zero_is_r():
    for r in range(1, 8):
        assert lift(a_series(r)).evaluate(0) == r


def test_b_series_value_at_zero_is_r_squared():
    for r in range(1, 8):
        assert lift(b_series(r)).evaluate(0) == r * r


def test_b_series_r1_expansion():
    # coefficient of q^n in 3/(1-q)^2 - 2/(1-q)^3 is (n+1)(1-n)
    s = b_series(1).expand(6)
    for n in range(6):
        expected = 3 * inv_power_series_coeff(2, n) - 2 * inv_power_series_coeff(3, n)
        assert s.coefficient(n) == expected
        assert s.coefficient(n) == (n + 1) * (1 - n)
    assert s.coefficient(0) == 1 and s.coefficient(1) == 0 and s.coefficient(2) == -3


def test_b_series_r2_constant_term():
    assert b_series(2).expand(1).coefficient(0) == 4


def test_ab_series_are_proper_and_regular():
    for r in range(1, 7):
        for f in (lift(a_series(r)), lift(b_series(r))):
            assert f.is_proper
            assert f.regular_at_zero
            assert polar_split(f) == ({}, f)


def test_ab_series_reject_nonpositive_degree():
    with pytest.raises(ValueError):
        a_series(0)
    with pytest.raises(ValueError):
        b_series(-1)


# --- i_coefficient -------------------------------------------------------------


def test_i_coefficient_r1_closed_form():
    # after the telescoping cancellation: (1-Pt)^2 / ((Pt)^2 (1-Pq)^2)
    n2 = (ONE - P * T) ** 2
    pt_inv = (P * T).inverse()
    fct = (ONE - P * q_power(1)).inverse()
    assert i_coefficient(1) == n2 * pt_inv**2 * fct**2


def test_i_coefficient_defining_equation():
    # multiplying back by (Pt)^{2r} q^{r(r-1)} prod (1-Pq^m)^2 recovers
    # (1-Pt)^2 prod_{m<r} (1-Pt q^m)^2
    for r in (1, 2, 3):
        lhs = i_coefficient(r) * q_power(r * (r - 1)) * (P * T) ** (2 * r)
        for m in range(1, r + 1):
            lhs = lhs * (ONE - P * q_power(m)) ** 2
        rhs = (ONE - P * T) ** 2
        for m in range(1, r):
            rhs = rhs * (ONE - P * T * q_power(m)) ** 2
        assert lhs == rhs


def test_i_coefficient_equals_uncancelled_product():
    # build the raw quotient with the full telescoping products and
    # compare with the cancelled form the library uses
    for r in (1, 2, 3):
        num = (ONE - P * T) ** 2
        for m in range(1, r):
            num = num * (ONE - P * T * q_power(m)) ** 2
        den = (P * T) ** (2 * r)
        for m in range(1, r + 1):
            den = den * (ONE - P * q_power(m)) ** 2
        raw = num * den.inverse() * q_power(-r * (r - 1))
        assert raw == i_coefficient(r)


def test_i_coefficient_identity_component_expands():
    # the coordinate on the basis monomial 1, made regular by splitting
    # off the Laurent part, expands with finite exact coefficients
    coord = i_coefficient(1).coords[0]
    laurent, proper = polar_split(coord)
    series = proper.expand(5)
    rebuilt = laurent_polynomial_to_qrf(laurent) + proper
    assert rebuilt == coord
    assert series.trunc_order == 5


def test_i_coefficient_vanishes_at_infinity_after_one_minus_q():
    # every coordinate, multiplied by (1-q), has num degree < den degree
    one_minus_q = qrf([1, -1])
    for r in range(1, 7):
        for c in i_coefficient(r).coords:
            f = one_minus_q * c
            assert f.is_zero or f.is_proper


# --- j coefficients -------------------------------------------------------------


def test_j_y_coefficient_r1_structure():
    expected = (ONE - P * T) ** 2 * (
        (2 * ONE - P) * qrf([1], [1, -2, 1])
        + (ONE - P) * (qrf([3], [1, -2, 1]) - qrf([2], [1, -3, 3, -1]))
    )
    assert j_y_coefficient(1) == expected


def test_j_y_coefficient_at_zero():
    # evaluating q -> 0 gives (1-Pt)^2 [(2-P) r + (1-P) r^2]
    n2 = (ONE - P * T) ** 2
    for r in (1, 2, 3):
        j = j_y_coefficient(r)
        coords = tuple(lift(c).evaluate(0) for c in j.coords)
        expected = n2 * ((2 * ONE - P) * Fr(r) + (ONE - P) * Fr(r * r))
        assert coords == expected.coords


def test_j_y_without_nilpotent_reduces_to_a():
    # dropping (1-P) terms leaves (1-Pt)^2 a(r, q^r)
    n2 = (ONE - P * T) ** 2
    for r in (1, 2):
        stripped = n2 * lift(a_series(r))
        full = lift(j_y_coefficient(r))
        diff = full - stripped
        # the remainder is (1-Pt)^2 (1-P) (a + b)
        assert diff == n2 * (ONE - P) * (lift(a_series(r)) + b_series(r))


def test_j_x_coefficient_at_zero():
    jx = j_x_coefficient(1)
    assert [lift(c).evaluate(0) for c in jx.coords] == [3, -2]


def test_j_x_change_of_basis():
    # on the basis {1, (1-P)} the coordinates are exactly a and a+b
    one = ring_one(X_RING)
    p = gen_p(X_RING)
    for r in (1, 2, 3):
        jx = j_x_coefficient(r)
        a_r, b_r = lift(a_series(r)), lift(b_series(r))
        assert jx == one * a_r + (one - p) * (a_r + b_r)


def test_j_x_r2_matches_series_oracle():
    jx = j_x_coefficient(2)
    a2 = lift(a_series(2))
    b2 = lift(b_series(2))
    one = ring_one(X_RING)
    p = gen_p(X_RING)
    direct = (one + (one - p)) * a2 + (one - p) * b2
    assert jx == direct
    for c, d in zip(jx.coords, direct.coords):
        assert c.expand(4) == d.expand(4)


def test_j_x_is_j_y_with_normal_factor_removed():
    # multiplying the rank-2 combination back by (1-Pt)^2 in the big
    # ring reproduces j_y, coordinate for coordinate
    n2 = (ONE - P * T) ** 2
    for r in (1, 2, 3):
        lifted = n2 * ((2 * ONE - P) * lift(a_series(r)) + (ONE - P) * lift(b_series(r)))
        assert lifted == j_y_coefficient(r)


# --- the split check -------------------------------------------------------------


def test_split_check_r1():
    report = split_check(1)
    assert report.all_passed
    assert report.results[0].r == 1


def test_split_check_r6():
    report = split_check(6)
    assert report.all_passed
    assert [res.r for res in report.results] == [1, 2, 3, 4, 5, 6]
    for res in report.results:
        assert all(x.is_zero for x in res.residuals)


def test_split_check_sensitivity_control():
    # replacing b by a in the expected value must fail at r = 1: the
    # residual is (1-Pt)^2 (1-P) (b - a) != 0
    i_el = i_coefficient(1)
    one = ring_one(Y_RING)
    p = gen_p(Y_RING)
    t = gen_t(Y_RING)
    n2 = (one - p * t) ** 2
    a1 = lift(a_series(1))
    wrong = n2 * (one + (one - p)) * a1 + n2 * (one - p) * a1
    mismatch = False
    for idx in range(Y_RING.rank):
        if polar_split(i_el.coords[idx])[1] != coord_qrf(wrong.coords[idx]):
            mismatch = True
    assert mismatch


def test_split_plus_part_is_laurent_only():
    for r in (2, 3):
        for c in i_coefficient(r).coords:
            _, proper = polar_split(c)
            assert proper.is_zero or proper.is_proper
            assert proper.regular_at_zero


def test_split_plus_part_closed_form():
    # the Laurent-polynomial part has a closed form too:
    #   sum_i i q^{-r(r-i)} (1-Pt)^2 + sum_i i(2r-i+1) q^{-r(r-i)} (1-Pt)^3
    # with i running over 1..r-1 (empty at r = 1), so the whole
    # decomposition of the I-coefficient is pinned, not just the proper
    # half.
    n2 = (ONE - P * T) ** 2
    n3 = n2 * (ONE - P * T)
    for r in range(1, 6):
        plus = n2 * QRF.constant(0)
        for i in range(1, r):
            mono = q_power(-r * (r - i))
            plus = plus + n2 * (mono * i) + n3 * (mono * (i * (2 * r - i + 1)))
        expected = plus + j_y_coefficient(r)
        assert expected == i_coefficient(r)
        # and the split recovers exactly that Laurent part, coordinatewise
        for idx in range(Y_RING.rank):
            laurent, _ = polar_split(i_coefficient(r).coords[idx])
            assert laurent_polynomial_to_qrf(laurent) == coord_qrf(plus.coords[idx])


# --- jmgs_rhs ---------------------------------------------------------------------


def delta_gv(dmax=1):
    return InvariantTable(KIND_GV, 1, 0, (dmax,), {(0, (1,)): Fr(1)})


def test_jmgs_rhs_zero_table():
    rhs = jmgs_rhs(
        InvariantTable(KIND_GV, 1, 0, (2,), {}), DivisorPairing(((1,),)), 3, 4
    )
    assert rhs.constant == 1
    assert rhs.terms == {}


def test_jmgs_rhs_delta_matches_cover_coefficients():
    rhs = jmgs_rhs(delta_gv(), DivisorPairing(((1,),)), 6, 5)
    for r in range(1, 7):
        term = rhs.terms[(r,)]
        assert term.divisor_exact == (a_series(r),)
        assert term.structure_exact == b_series(r)
        assert term.divisor_expansion[0] == a_series(r).expand(5)


def test_jmgs_rhs_delta_reproduces_rank2_j(checks_script):
    rhs = jmgs_rhs(delta_gv(), DivisorPairing(((1,),)), 6, 4)
    for r in range(1, 7):
        term = rhs.terms[(r,)]
        assert checks_script.x_element_matches(
            term.divisor_exact[0], term.structure_exact, j_x_coefficient(r)
        )


def test_jmgs_rhs_quintic_first_term():
    gv = InvariantTable(
        KIND_GV,
        1,
        0,
        (4,),
        {(0, (d,)): v for d, v in {1: 2875, 2: 609250, 3: 317206375, 4: 242467530000}.items()},
    )
    rhs = jmgs_rhs(gv, DivisorPairing(((1,),)), 3, 4)
    # total degree 1 comes only from (d=1, r=1)
    term = rhs.terms[(1,)]
    assert term.divisor_exact[0] == lift(a_series(1)) * 2875
    assert term.structure_exact == lift(b_series(1)) * 2875


def test_jmgs_rhs_degree_grouping_bruteforce():
    gv_vals = {1: Fr(3), 2: Fr(-5), 3: Fr(7), 4: Fr(11)}
    gv = InvariantTable(
        KIND_GV, 1, 0, (4,), {(0, (d,)): v for d, v in gv_vals.items()}
    )
    r_max = 5
    rhs = jmgs_rhs(gv, DivisorPairing(((2,),)), r_max, 3)
    # brute-force enumeration of (d, r) pairs with r*d = n
    for n in range(1, 4 * r_max + 1):
        div_expected = QRF.constant(0)
        struct_expected = QRF.constant(0)
        hit = False
        for d, v in gv_vals.items():
            for r in range(1, r_max + 1):
                if r * d == n:
                    hit = True
                    div_expected = div_expected + lift(a_series(r)) * (v * 2 * d)
                    struct_expected = struct_expected + lift(b_series(r)) * v
        if hit:
            term = rhs.terms[(n,)]
            assert term.divisor_exact[0] == div_expected
            assert term.structure_exact == struct_expected
        else:
            assert (n,) not in rhs.terms


def test_jmgs_rhs_rank2_pairing():
    gv = InvariantTable(
        KIND_GV, 2, 0, (2, 2), {(0, (1, 0)): Fr(2), (0, (0, 1)): Fr(3), (0, (1, 1)): Fr(5)}
    )
    pairing = DivisorPairing(((1, 0), (0, 1)))
    rhs = jmgs_rhs(gv, pairing, 2, 3)
    term = rhs.terms[(1, 1)]
    # only (d=(1,1), r=1) lands on total degree (1,1)
    a1, b1 = lift(a_series(1)), lift(b_series(1))
    assert term.divisor_exact == (a1 * 5, a1 * 5)
    assert term.structure_exact == b1 * 5
    # (2, 0) gets d=(1,0) doubled via r=2
    term20 = rhs.terms[(2, 0)]
    assert term20.divisor_exact == (lift(a_series(2)) * 2, QRF.constant(0))
    assert term20.structure_exact == lift(b_series(2)) * 2


def test_jmgs_rhs_validation():
    with pytest.raises(TableKindError):
        jmgs_rhs(
            InvariantTable("GW", 1, 0, (1,), {(0, (1,)): Fr(1)}),
            DivisorPairing(((1,),)),
            2,
            2,
        )
    with pytest.raises(TableBoundError):
        jmgs_rhs(
            InvariantTable(KIND_GV, 1, 1, (1,), {(1, (1,)): Fr(1)}),
            DivisorPairing(((1,),)),
            2,
            2,
        )
    with pytest.raises(TableBoundError):
        jmgs_rhs(delta_gv(), DivisorPairing(((1, 0),)), 2, 2)


@pytest.mark.parametrize(
    "vectors",
    [
        ((Fr(17, 10), 0), (1,)),  # a non-integer entry
        ((1.0, 0),),  # a float, even an integral one
        ((1, 0), (1,)),  # vectors of two lengths
        (),  # no vector
        ((),),  # an empty vector
    ],
    ids=["fraction", "float", "two-lengths", "no-vector", "empty-vector"],
)
def test_divisor_pairing_rejects_bad_vectors(vectors):
    with pytest.raises(ValueError):
        DivisorPairing(vectors)


def test_divisor_pairing_keeps_integer_vectors():
    assert DivisorPairing([[1, 0], (0, 2)]).vectors == ((1, 0), (0, 2))
    assert DivisorPairing(((1, 0), (0, 1))).rank == 2


# --- jmgs_rhs against the term-by-term oracle -------------------------------------


def assert_same_rhs(gv, pairing, r_max, q_order):
    fast = jmgs_rhs(gv, pairing, r_max, q_order)
    naive = jmgs_rhs_naive(gv, pairing, r_max, q_order)
    assert (fast.lattice_rank, fast.r_max, fast.q_order, fast.constant) == (
        gv.lattice_rank,
        r_max,
        q_order,
        1,
    )
    # same degrees in the same order, and every exact part and expansion equal
    assert list(fast.terms) == list(naive)
    for deg, term in fast.terms.items():
        expected = naive[deg]
        assert term.divisor_exact == expected.divisor_exact
        assert term.structure_exact == expected.structure_exact
        assert term.divisor_expansion == expected.divisor_expansion
        assert term.structure_expansion == expected.structure_expansion


@st.composite
def gv_tables(draw):
    rank = draw(st.integers(1, 2))
    dmax = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    cells = [
        d
        for d in itertools.product(*(range(m + 1) for m in dmax))
        if any(d)
    ]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    values = st.fractions(min_value=-50, max_value=50, max_denominator=4).filter(bool)
    entries = {(0, d): draw(values) for d in chosen}
    vectors = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * rank), min_size=1, max_size=3
        )
    )
    return InvariantTable(KIND_GV, rank, 0, dmax, entries), DivisorPairing(tuple(vectors))


@given(table=gv_tables(), r_max=st.integers(1, 8), q_order=st.integers(0, 16))
@settings(max_examples=40, deadline=None)
def test_jmgs_rhs_matches_term_by_term_oracle(table, r_max, q_order):
    gv, pairing = table
    assert_same_rhs(gv, pairing, r_max, q_order)


@given(table=gv_tables(), r_max=st.integers(1, 8), q_order=st.integers(0, 16))
@settings(max_examples=40, deadline=None)
def test_jmgs_rhs_expansions_expand_the_exact_parts(table, r_max, q_order):
    # the expansions are summed apart from the exact parts; Taylor expansion
    # is linear, so each must be the expansion of its exact part
    gv, pairing = table
    for term in jmgs_rhs(gv, pairing, r_max, q_order).terms.values():
        for f, s in zip(term.divisor_exact, term.divisor_expansion):
            assert f.expand(q_order) == s
        assert term.structure_exact.expand(q_order) == term.structure_expansion


@pytest.mark.parametrize("q_order", [0, 5])
def test_jmgs_rhs_opposite_values_meeting_at_one_degree(q_order):
    # d=(1,0) at r=2 and d=(2,0) at r=1 both land on total degree (2,0),
    # and their GV values sum to 0; the first pairing vector pairs (1,0)
    # and (2,0) to zero too
    gv = InvariantTable(
        KIND_GV, 2, 0, (2, 1), {(0, (1, 0)): Fr(4), (0, (2, 0)): Fr(-4), (0, (0, 1)): Fr(3)}
    )
    pairing = DivisorPairing(((0, 1), (1, -1)))
    assert_same_rhs(gv, pairing, 2, q_order)
    term = jmgs_rhs(gv, pairing, 2, q_order).terms[(2, 0)]
    assert term.divisor_exact[0] == QRF.constant(0)
    assert term.structure_exact == lift(b_series(2)) * 4 - lift(b_series(1)) * 4


def test_jmgs_rhs_builds_no_cover_series(monkeypatch):
    def fail(*args):
        raise AssertionError("jmgs_rhs must use the closed forms")

    monkeypatch.setattr(jfunctions, "a_series", fail)
    monkeypatch.setattr(jfunctions, "b_series", fail)
    monkeypatch.setattr(QRationalFunction, "expand", fail)
    gv = InvariantTable(
        KIND_GV, 2, 0, (2, 2), {(0, d): Fr(1) for d in [(1, 0), (0, 1), (1, 1), (2, 2)]}
    )
    rhs = jmgs_rhs(gv, DivisorPairing(((1, 0), (0, 1))), 4, 3)
    assert len(rhs.terms) == 14


def test_jmgs_rhs_builds_each_term_on_first_read(monkeypatch):
    gv = InvariantTable(KIND_GV, 1, 0, (2,), {(0, (1,)): Fr(3), (0, (2,)): Fr(-1, 2)})
    pairing = DivisorPairing(((1,),))
    built = []
    real = jfunctions._cover_objects
    monkeypatch.setattr(
        jfunctions, "_cover_objects", lambda part, scale: built.append(part) or real(part, scale)
    )
    rhs = jmgs_rhs(gv, pairing, 3, 4)
    # the parts, sorted by total degree, build no term
    assert [total for total, _ in rhs.parts] == [(1,), (2,), (3,), (4,), (6,)]
    assert built == []
    # a read of terms builds every term, one divisor direction and the
    # structure direction each
    terms = rhs.terms
    assert len(built) == 2 * 5
    assert terms == jmgs_rhs_naive(gv, pairing, 3, 4)


def _rank1_genus0_doc(values):
    return {
        "kind": "GV", "lattice_rank": 1, "genus_max": 0, "degree_max": [len(values)],
        "entries": [{"genus": 0, "degree": [d], "value": v} for d, v in enumerate(values, 1)],
    }


def _loaded_pair(first, second):
    return table_from_dict(_rank1_genus0_doc(first)), table_from_dict(_rank1_genus0_doc(second))


def _quintic_gv_and_its_document():
    gv = gw_to_gv(quintic_gw_table())  # a genus-0 layer over 373248, values integral
    return gv, table_from_dict(json.loads(dumps(gv)))


@pytest.mark.parametrize(
    "tables",
    [
        lambda: _loaded_pair(["1/2", "0"], ["1/2", "0/3"]),
        lambda: _loaded_pair(["1/2"], ["2/4"]),
        _quintic_gv_and_its_document,
    ],
    ids=["0 against 0/3", "1/2 against 2/4", "gw_to_gv output against its document"],
)
def test_equal_tables_give_equal_right_hand_sides(tables):
    # the tables' genus-0 layers have different denominators; S is the
    # least common denominator of the values, so the right-hand sides agree
    # field by field
    a, b = tables()
    assert a == b and a._layers[0][0] != b._layers[0][0]
    pairing = DivisorPairing(((1,),))
    ra, rb = jmgs_rhs(a, pairing, 3, 5), jmgs_rhs(b, pairing, 3, 5)
    assert ra == rb and hash(ra) == hash(rb)
    assert ra.scale == math.lcm(*[v.denominator for (g, _), v in a.entries.items() if g == 0])
    assert dumps(ra) == dumps(rb)


def test_jmgs_rhs_rejects_a_negative_order_for_a_nonempty_table():
    pairing = DivisorPairing(((1,),))
    with pytest.raises(ValueError, match="nonnegative"):
        jmgs_rhs(InvariantTable(KIND_GV, 1, 0, (1,), {(0, (1,)): Fr(1)}), pairing, 2, -1)
    # the check does not depend on the table having a genus-zero cell
    with pytest.raises(ValueError, match="nonnegative"):
        jmgs_rhs(InvariantTable(KIND_GV, 1, 0, (1,), {}), pairing, 2, -1)


# --- the cover sum from closed forms ------------------------------------------------

BIG = 2**300 + 1
WEIGHTS = st.sampled_from([0, 1, -1, Fr(3, 7), Fr(-3, 7), BIG, -BIG])
COVER = {2: a_series, 3: b_series}


def cover_sum_ints(weights, pole, q_order, counts=None):
    """(S, N, D, E): _cover_sum of {r: w_r}, the w_r written as integers over their lcm S."""
    fractions = {r: Fr(w) for r, w in sorted(weights.items())}
    scale = math.lcm(*[w.denominator for w in fractions.values()])
    setup = jfunctions._CoverSetup(q_order)
    if counts is not None:
        setup.counts = counts
    ints = [(r, w.numerator * (scale // w.denominator)) for r, w in fractions.items() if w]
    return (scale, *jfunctions._cover_sum(ints, pole, setup))


def cover_sum(weights, pole, q_order, counts=None):
    """The cover sum as (QRationalFunction, LaurentSeries), by the conversion the terms use."""
    scale, *part = cover_sum_ints(weights, pole, q_order, counts)
    return jfunctions._cover_objects(tuple(part), scale)


def assert_canonical(f):
    """Monic denominator, zero as 0/1, and numerator coprime to denominator."""
    assert f.den[-1] == 1
    if not f.num:
        assert f.den == (Fr(1),)
        return
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    n = sympy.Poly(list(reversed(f.num)), q, domain="QQ")
    d = sympy.Poly(list(reversed(f.den)), q, domain="QQ")
    assert sympy.gcd(n, d).degree() == 0


@pytest.mark.parametrize("r", range(1, 21))
def test_closed_forms_match_the_cover_series(r):
    for pole, series in COVER.items():
        numerator, coeff = jfunctions._COVER_FORMS[pole]
        # numerator / (x - 1)^pole at x = q^r
        f = QRF(
            numerator(r), [(-1) ** (pole - k) * math.comb(pole, k) for k in range(pole + 1)]
        )
        assert substitute(f, r) == series(r)
        expected = series(r).expand(40)
        assert expected.coeffs == tuple(
            Fr(coeff(r, n // r)) if n % r == 0 else 0 for n in range(40)
        )
        assert cover_sum({r: 1}, pole, 40) == (series(r), expected)


@given(
    weights=st.dictionaries(st.integers(1, 8), WEIGHTS, max_size=4),
    pole=st.sampled_from([2, 3]),
    q_order=st.integers(0, 16),
    cancel=st.sampled_from([None, 1, 2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_cover_sum_matches_pairwise_oracle(weights, pole, q_order, cancel):
    multiples = sorted(r for r in weights if cancel and r % cancel == 0)
    if len(multiples) > 1:
        # near a primitive d-th root of unity z, 1 - q^r ~ r (unit) (q - z) for
        # d | r: weights with sum over d | r of w_r / r^pole = 0 cancel one Phi_d
        *rest, last = multiples
        weights[last] = -sum(Fr(weights[r], r**pole) for r in rest) * last**pole
    exact, expansion = cover_sum(weights, pole, q_order)
    expected = weighted_sum_naive([(w, COVER[pole](r)) for r, w in weights.items()])
    assert (exact.num, exact.den) == (expected.num, expected.den)
    assert_canonical(exact)
    assert expansion == expected.expand(q_order)


def test_cover_sum_returns_integers_over_one_scale():
    # 1/2 a(1, q) - 1/3 a(2, q^2): scale 6, and q^0 coefficient 1/2 * 1 - 1/3 * 2
    scale, num, den, sums = cover_sum_ints({1: Fr(1, 2), 2: Fr(-1, 3)}, 2, 4)
    assert scale == 6
    assert all(type(c) is int for c in num + den + tuple(sums))
    assert den[-1] == 1 and len(sums) == 4
    assert Fr(sums[0], scale) == Fr(1, 2) * 1 - Fr(1, 3) * 2
    exact, expansion = jfunctions._cover_objects((num, den, sums), scale)
    assert exact == lift(a_series(1)) * Fr(1, 2) - lift(a_series(2)) * Fr(1, 3)
    assert expansion == exact.expand(4)
    # zero is () over (1,), with one zero coefficient per order
    assert cover_sum_ints({3: 0}, 3, 2) == (1, (), (1,), (0, 0))


def test_cover_sum_of_zero_weights_is_zero():
    zero = (QRF.constant(0), LaurentSeries(QVAR, 0, [], 5))
    for pole in COVER:
        assert cover_sum({}, pole, 5) == zero
        assert cover_sum({1: 0, 2: 0, 6: 0}, pole, 5) == zero


def test_cover_sum_of_one_degree_is_the_scaled_series():
    for pole, series in COVER.items():
        for w in (1, -1, Fr(3, 7), BIG):
            # a zero weight beside it drops out
            exact, expansion = cover_sum({3: 0, 4: w}, pole, 9)
            scaled = lift(series(4)) * w
            assert (exact.num, exact.den) == (scaled.num, scaled.den)
            assert expansion == scaled.expand(9)


def test_cover_sum_of_opposite_weights_cancels_to_zero():
    for pole in COVER:
        for weights in ({4: Fr(3, 7)}, {1: -BIG, 2: 5, 6: Fr(1, 3)}):
            f, s = cover_sum(weights, pole, 7)
            g, t = cover_sum({r: -w for r, w in weights.items()}, pole, 7)
            assert g == -lift(f) and (lift(f) + g).is_zero
            assert t == LaurentSeries(QVAR, s.min_exp, [-c for c in s.coeffs], s.trunc_order)


def test_cover_sum_divides_out_a_common_cyclotomic_factor():
    # a(1, q) - 4 a(2, q^2) = (5q + 7) (q - 1) / ((q - 1)^2 (q + 1)^2)
    exact, _ = cover_sum({1: 1, 2: -4}, 2, 0)
    assert (exact.num, exact.den) == ((7, 5), (-1, -1, 1, 1))
    assert exact == lift(a_series(1)) - 4 * lift(a_series(2))


def test_cover_sum_divides_out_phi_2_only_where_it_cancels():
    # -1/2^2 + 4/4^2 = 0 on the multiples of 2, so one Phi_2 = 1 + q cancels;
    # Phi_1 does not (-6 - 1/4 - 6/9 + 4/16 != 0), and Phi_3 and Phi_4 have
    # one weighted multiple each, so they cannot divide
    counts = jfunctions._DivisionCounts()
    weights = {1: -6, 2: -1, 3: -6, 4: 4}
    exact, expansion = cover_sum(weights, 2, 8, counts)
    expected = weighted_sum_naive([(w, a_series(r)) for r, w in weights.items()])
    assert (exact.num, exact.den) == (expected.num, expected.den)
    den = qrf([-1, 1]) ** 2 * qrf([1, 1]) * qrf([1, 1, 1]) ** 2 * qrf([1, 0, 1]) ** 2
    assert exact.den == den.num and len(exact.den) - 1 == 11
    assert expansion == expected.expand(8)
    # Phi_3 and Phi_4 skipped; Phi_1 and the second Phi_2 rejected mod q^d - 1
    assert (counts.sums, counts.skipped, counts.rejected, counts.tried, counts.divided) == (
        1, 2, 2, 1, 1
    )


def test_jmgs_rhs_logs_its_trial_divisions(caplog):
    golden = Path(__file__).resolve().parent / "golden"
    with open(golden / "jmgs_rank1_phi2_gv.json", encoding="utf-8") as fh:
        gv = table_from_dict(json.load(fh))
    caplog.set_level(logging.DEBUG, logger="bps_kit.jfunctions")
    rhs = jmgs_rhs(gv, DivisorPairing(((1,),)), 4, 12)
    # the divisor sum at degree 12 loses one Phi_2, the structure sum two
    term = rhs.terms[(12,)]
    assert (len(term.divisor_exact[0].den), len(term.structure_exact.den)) == (12, 17)
    assert [rec.getMessage() for rec in caplog.records] == [
        "jmgs_rhs: 26 sums; Phi_d skipped by multiplicity 44, rejected mod q^d - 1 22; "
        "divisions tried 3, succeeded 3"
    ]


def seeded_genus0_table(seed, degree_max, denominators):
    """A dense rank-2 genus-0 GV table, each value about two digits longer per degree."""
    rng = random.Random(seed)
    entries = {}
    for d in itertools.product(*[range(m + 1) for m in degree_max]):
        if any(d):
            top = 10 ** (3 + 2 * sum(d))
            n = rng.choice((-1, 1)) * rng.randint(top // 10, top)
            entries[(0, d)] = Fr(n, rng.choice(denominators))
    return InvariantTable(KIND_GV, 2, 0, degree_max, entries)


# sha256 of dumps(jmgs_rhs(...)), recorded from the writer and builder that
# summed each cover sum over its own lcm scale; shapes past the hypothesis
# tables (dmax <= 3), with multi-r keys up to r = 6 and (second case) a layer
# denominator of 12 and a pairing vector with zero dot products on (k, k)
JMGS_PINS = [
    (
        (6, (6, 6), (1,)), ((1, 0), (0, 1)), 6, 12,
        "fc437034ffd31fde2c1037475771af5c43106dde743d9d5b45ffe0ba6c72ebb7",
    ),
    (
        (10, (10, 10), (1, 2, 3, 4, 6)), ((1, 0), (0, 1), (1, -1)), 5, 16,
        "60b89abdd0af00dd483d230bdb531f2e31493c0c6de1e802278204a848694d7b",
    ),
]


@pytest.mark.parametrize("table, vectors, r_max, q_order, digest", JMGS_PINS, ids=["6x6", "10x10"])
def test_jmgs_document_is_byte_identical_on_large_tables(table, vectors, r_max, q_order, digest):
    gv = seeded_genus0_table(*table)
    text = dumps(jmgs_rhs(gv, DivisorPairing(vectors), r_max, q_order))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_jmgs_rhs_keeps_no_setup_between_calls(monkeypatch):
    # the setup (Phi_d powers, templates, denominators) is built per call:
    # each call on this input does the 175 products of its own setup, as a
    # one-shot CLI process would; a cache kept between calls, warmed here
    # or by an earlier test, would leave a call fewer
    gv = seeded_genus0_table(6, (6, 6), (1,))
    pairing = DivisorPairing(((1, 0), (0, 1)))
    products = []
    real = jfunctions._int_mul
    monkeypatch.setattr(jfunctions, "_int_mul", lambda a, b: products.append(1) or real(a, b))
    first = jmgs_rhs(gv, pairing, 6, 12)
    count = len(products)
    second = jmgs_rhs(gv, pairing, 6, 12)
    assert (count, len(products) - count) == (175, 175)
    assert first.parts == second.parts


# --- split_check: residuals in x, mapped to q ---------------------------------------


def coord_qrf(c):
    """A ring coordinate as a QRF: a rational function lifted, a constant as its QRF."""
    return lift(c) if isinstance(c, QRationalFunction) else QRF.constant(c)


def i_in_x(r):
    return jfunctions._element(Y_RING, jfunctions._i_numerators(r), r - 1, 1)


def j_y_in_x(r):
    constants = jfunctions._rank6_factors()[1]
    return jfunctions._element(Y_RING, jfunctions._j_numerators(constants, r), 0, 1)


def perturb_j_numerators(monkeypatch, extra):
    # add e(x) = extra / (x-1)^3 to J: e times the ring's 1, whose only
    # nonzero coordinate is the first
    real = jfunctions._j_numerators

    def perturbed(constants, r):
        first, *rest = real(constants, r)
        return [[a + b for a, b in itertools.zip_longest(first, extra, fillvalue=0)], *rest]

    monkeypatch.setattr(jfunctions, "_j_numerators", perturbed)


@pytest.mark.parametrize(
    "extra, e",
    [
        ((-1, 3, -3, 1), QRF.constant(1)),  # (x-1)^3 / (x-1)^3: not proper
        # -(x-1)^2 / (x-1)^3 = 1/(1-x) is 1/(1-q^r) in q: the residuals depend
        # on r from r = 2 on
        ((-1, 2, -1), QRF([1], [1, -1])),
    ],
    ids=["constant", "cover-pole"],
)
def test_split_check_failure_residuals_come_from_polar_split(monkeypatch, extra, e):
    # J's numerator is perturbed by e(x) (x-1)^3 in the builder; the residuals
    # must be those of the split of the independent q build against
    # J(q^r) + e(q^r)
    perturb_j_numerators(monkeypatch, extra)
    report = split_check(3)
    assert not report.all_passed
    for res in report.results:
        j_q = j_y_coefficient_in_q(res.r) + substitute(e, res.r)
        expected = tuple(
            polar_split(i)[1] - coord_qrf(j)
            for i, j in zip(i_coefficient_in_q(res.r).coords, j_q.coords)
        )
        assert not res.passed
        assert res.residuals == expected


@pytest.mark.parametrize("shift", [0, 1, -1])
def test_split_check_runs_no_rational_function_arithmetic(monkeypatch, shift):
    # split_check decides each coordinate on integer numerators, passing or
    # failing: QRationalFunction has no operator, and no comparison runs
    def forbidden(*args):
        raise AssertionError("rational-function arithmetic in split_check")

    operators = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
    assert not [name for name in operators if hasattr(QRationalFunction, name)]

    monkeypatch.setattr(
        jfunctions,
        "_nilpotent_weights",
        lambda r, count: [math.comb(2 * r + k - 1 + shift, k) for k in range(count)],
    )
    with monkeypatch.context() as m:
        m.setattr(QRationalFunction, "__eq__", forbidden)
        report = split_check(8)
    assert [res.passed for res in report.results] == [shift == 0] * 8


def test_split_check_logs_where_each_degree_was_decided(monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="bps_kit.jfunctions")
    split_check(2)
    assert [rec.getMessage() for rec in caplog.records] == [
        "split_check r=1 in x = q^r: passed",
        "split_check r=2 in x = q^r: passed",
    ]
    caplog.clear()
    perturb_j_numerators(monkeypatch, (-1, 3, -3, 1))  # J + 1
    split_check(1)
    assert [rec.getMessage() for rec in caplog.records] == [
        "split_check r=1 in x = q^r: failed",
    ]


# --- the substitution lemma: building in x = q^r ----------------------------------------


def test_x_builds_substitute_to_the_q_builds():
    for r in range(1, 13):
        assert a_series(r) == a_series_in_q(r)
        assert b_series(r) == b_series_in_q(r)
        for built, oracle in (
            (i_coefficient(r), i_coefficient_in_q(r)),
            (j_y_coefficient(r), j_y_coefficient_in_q(r)),
        ):
            # the same values, and Fractions where the q build has Fractions
            assert built == oracle
            assert [isinstance(c, QRationalFunction) for c in built.coords] == [
                isinstance(c, QRationalFunction) for c in oracle.coords
            ]


FOREIGN_POLE = QRF([1], [1, -2])

# perturbations e(x) of I: with a pole at 1 or away from the roots of
# unity, a constant, and a double and a shared pole
PERTURBATIONS = [
    QRF([1], [1, -1]),
    FOREIGN_POLE,
    QRF.constant(1),
    QRF([0, 1], [1, -2, 1]),
    QRF([1], [1, 0, -1]),
]


def test_proper_part_commutes_with_substitution():
    zero = QRF.constant(0)
    for r in range(1, 13):
        i_x, i_q = i_in_x(r), i_coefficient_in_q(r)
        for e in [zero] + PERTURBATIONS:
            e_q = substitute(e, r)
            for ix, iq in zip(i_x.coords, i_q.coords):
                f_x, f_q = coord_qrf(ix) + e, coord_qrf(iq) + e_q
                if e is FOREIGN_POLE:  # it raises on both sides
                    with pytest.raises(PoleLocationError):
                        polar_split(f_x)
                    with pytest.raises(PoleLocationError):
                        polar_split(f_q)
                    continue
                assert substitute(polar_split(f_x)[1], r) == polar_split(f_q)[1]


# --- the closed-form builders of I and J in x -------------------------------------------


@pytest.mark.parametrize("r", range(1, 31))
def test_i_builder_matches_the_ring_product_oracle(r):
    built, oracle = i_in_x(r), i_coefficient_in_q(r, 1)
    assert built == oracle
    assert all(isinstance(c, QRationalFunction) for c in built.coords)


@pytest.mark.parametrize("r", range(1, 31))
def test_j_builder_matches_the_ring_product_oracle(r):
    n2 = (ONE - P * T) * (ONE - P * T)
    divisor, structure = n2 * (ONE + (ONE - P)), n2 * (ONE - P)
    built = j_y_in_x(r)
    assert built == divisor * lift(jfunctions._cover_at(r, 2, 1)) + structure * lift(
        jfunctions._cover_at(r, 3, 1)
    )
    assert built == j_y_coefficient_in_q(r, 1)
    assert all(isinstance(c, QRationalFunction) for c in built.coords)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 13, 30])
def test_builders_return_canonical_coordinates(r):
    for el in (i_in_x(r), j_y_in_x(r)):
        for c in el.coords:
            assert_canonical(c)


def test_one_minus_pt_is_nilpotent_of_order_four():
    m = ONE - P * T
    assert not (m * m * m).is_zero
    assert (m * m * m * m).is_zero
    parts, constants = jfunctions._rank6_factors()
    assert len(parts) == 2  # M^2 and M^3
    assert jfunctions._POLE == 3
    assert len(constants) == Y_RING.rank
    assert all(len(part) == Y_RING.rank for part in parts)


@pytest.mark.parametrize("shift", [1, -1])
def test_off_by_one_nilpotent_weights_fail_the_split_check(monkeypatch, shift):
    monkeypatch.setattr(
        jfunctions,
        "_nilpotent_weights",
        lambda r, count: [math.comb(2 * r + k - 1 + shift, k) for k in range(count)],
    )
    report = split_check(3)
    assert not report.all_passed
    for res in report.results:
        assert not res.passed
        assert any(not x.is_zero for x in res.residuals)


@pytest.fixture
def fresh_rank6_factors():
    jfunctions._rank6_factors.cache_clear()
    yield
    jfunctions._rank6_factors.cache_clear()


def test_one_minus_pt_that_is_not_nilpotent_is_a_hard_error(monkeypatch, fresh_rank6_factors):
    # with t = 0, M = 1 - Pt is 1, and no power of it vanishes
    monkeypatch.setattr(jfunctions, "gen_t", lambda ring: ring_one(ring) - ring_one(ring))
    with pytest.raises(ArithmeticError, match="not nilpotent"):
        jfunctions._rank6_factors()


def test_one_minus_p_whose_square_is_not_zero_is_a_hard_error(monkeypatch, fresh_rank6_factors):
    # with P replaced by 2P, (1 - 2P)^2 = 4P - 3, and the closed form of
    # (1 - P x)^-2 does not hold
    monkeypatch.setattr(jfunctions, "gen_p", lambda ring: gen_p(ring) * 2)
    with pytest.raises(ArithmeticError, match=r"\(1 - P\)\^2 is not zero"):
        jfunctions._rank6_factors()


def test_rank6_factors_closed_form_matches_the_generic_inverse(fresh_rank6_factors):
    assert (jfunctions._POLE, *jfunctions._rank6_factors()) == rank6_factors_generic()


@pytest.mark.parametrize("r", range(1, 31))
def test_j_x_builder_is_independent_of_the_cover_data_assembly(checks_script, r):
    built = j_x_coefficient(r)
    assert checks_script.x_element_matches(a_series(r), b_series(r), built)
    assert all(isinstance(c, QRationalFunction) for c in built.coords)
