"""Tests for the finite-rank quotient rings."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bps_kit import kring
from bps_kit.kring import (
    KElem,
    NotInvertibleError,
    RingMismatchError,
    X_RING,
    Y_RING,
    _build_ring,
    element,
    gen_p,
    gen_t,
    ring_one,
)
from oracles import QRF, groebner_normal_forms, q_power

Fr = Fraction

ONE = ring_one(Y_RING)
P = gen_p(Y_RING)
T = gen_t(Y_RING)
ZERO = KElem(Y_RING, (0,) * 6)


def test_defining_relations_vanish():
    assert ((ONE - P) * (ONE - P)).is_zero
    n = ONE - P * T
    assert (n * n * (ONE - T)).is_zero


def test_relation_in_small_ring():
    one = ring_one(X_RING)
    p = gen_p(X_RING)
    assert ((one - p) * (one - p)).is_zero


def test_relation_times_t_is_absorbed():
    n2 = (ONE - P * T) ** 2
    assert n2 * T == n2  # immediate from n2 * (1 - t) = 0


def test_monomial_constructor_reduces():
    assert element(Y_RING, {(2, 0): 1}) == 2 * P - ONE
    assert element(Y_RING, {(0, 3): 1}) == element(Y_RING, {(0, 3): Fr(1)})
    # t^3 normal form has no monomial of t-degree >= 3
    cube = element(Y_RING, {(0, 3): 1})
    assert len(cube.coords) == 6


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        P * gen_p(X_RING)
    with pytest.raises(RingMismatchError):
        gen_t(X_RING)
    with pytest.raises(RingMismatchError):
        element(X_RING, {(0, 1): 1})


def random_elem(rng, ring=Y_RING):
    return KElem(
        ring,
        tuple(Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(ring.rank)),
    )


def test_ring_axioms_on_random_elements():
    rng = random.Random(42)
    for ring in (Y_RING, X_RING):
        one = ring_one(ring)
        for _ in range(250):
            a, b, c = (random_elem(rng, ring) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a
    # roughly a thousand triples checked across both rings


def test_ideal_membership_under_multiplication():
    rng = random.Random(7)
    rel1 = (ONE - P) ** 2
    rel2 = (ONE - P * T) ** 2 * (ONE - T)
    for _ in range(100):
        x = random_elem(rng)
        assert (rel1 * x).is_zero
        assert (rel2 * x).is_zero


# The rings as the earlier rewrite-system code built them; the tower
# builder must reproduce them exactly.
PINNED_Y_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))
PINNED_Y_NAMES = ("1", "P", "t", "P·t", "t^2", "P·t^2")
PINNED_Y_TABLE = (
    (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
    ),
    (
        (0, 1, 0, 0, 0, 0), (-1, 2, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
        (0, 0, -1, 2, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, -1, 2),
    ),
    (
        (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1), (3, -2, -7, 4, 5, -2), (2, -1, -4, 1, 2, 1),
    ),
    (
        (0, 0, 0, 1, 0, 0), (0, 0, -1, 2, 0, 0), (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, -1, 2), (2, -1, -4, 1, 2, 1), (1, 0, -1, -2, -1, 4),
    ),
    (
        (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (3, -2, -7, 4, 5, -2),
        (2, -1, -4, 1, 2, 1), (11, -8, -24, 16, 14, -8), (8, -5, -16, 8, 8, -2),
    ),
    (
        (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, -1, 2), (2, -1, -4, 1, 2, 1),
        (1, 0, -1, -2, -1, 4), (8, -5, -16, 8, 8, -2), (5, -2, -8, 0, 2, 4),
    ),
)


def test_rings_match_pinned_tables():
    assert Y_RING.basis == PINNED_Y_BASIS
    assert Y_RING.basis_names == PINNED_Y_NAMES
    assert Y_RING.table == PINNED_Y_TABLE
    assert X_RING.basis == ((0, 0), (1, 0))
    assert X_RING.basis_names == ("1", "P")
    assert X_RING.table == (((1, 0), (0, 1)), ((0, 1), (-1, 2)))


def test_normal_forms_match_groebner_remainders():
    pytest.importorskip("sympy")
    expected = groebner_normal_forms(4, 6)
    assert len(expected) == 35
    for (a, b), remainder in expected.items():
        assert set(remainder) <= set(Y_RING.basis), (a, b)
        coords = tuple(remainder.get(m, Fr(0)) for m in Y_RING.basis)
        assert element(Y_RING, {(a, b): 1}).coords == coords, (a, b)


def test_builder_makes_the_quintic_ring_from_one_relation():
    # K(P^4) = Z[P] / ((1-P)^5): built by the same call, not a public ring
    relation = {(k, 0): math.comb(5, k) * (-1) ** k for k in range(6)}
    ring = _build_ring("P4", ("P",), (relation,))
    assert ring.rank == 5
    assert ring.basis_names == ("1", "P", "P^2", "P^3", "P^4")
    n = ring_one(ring) - gen_p(ring)
    assert (n**5).is_zero
    assert not (n**4).is_zero
    with pytest.raises(RingMismatchError):
        gen_t(ring)


def test_rings_compare_by_identity():
    # a second ring built from the same relation, under the same name, is another ring
    twin = _build_ring("X", ("P",), (kring._LINE_RELATION,))
    assert twin.table == X_RING.table and twin.basis == X_RING.basis
    assert twin != X_RING and twin == twin
    x, y = gen_p(X_RING), gen_p(twin)
    assert x.coords == y.coords and x != y
    assert x == gen_p(X_RING) and hash(x) == hash(gen_p(X_RING))
    assert len({x, gen_p(X_RING), y}) == 2


@pytest.mark.parametrize(
    "gens, relations",
    [
        # 2P - 1: leading coefficient 2 is not a unit in Z
        (("P",), ({(0, 0): -1, (1, 0): 2},)),
        # (P - 1) t + 1 over Z[P]/((1-P)^2): P - 1 is nilpotent
        (("P", "t"), ({(0, 0): 1, (1, 0): -2, (2, 0): 1}, {(0, 0): 1, (0, 1): -1, (1, 1): 1})),
    ],
)
def test_builder_rejects_a_non_unit_leading_coefficient(gens, relations):
    with pytest.raises(ValueError, match="not a unit"):
        _build_ring("bad", gens, relations)


def test_nilpotency_structure():
    # degree of nilpotency of (1 - Pt) is four; its cube picks up (1 - P)
    n = ONE - P * T
    assert not (n ** 3).is_zero
    assert (n ** 4).is_zero
    assert n ** 3 == n ** 2 * (ONE - P)


def test_pt_inverse_is_geometric_sum():
    # Pt = 1 - n with n nilpotent, so the inverse is 1 + n + n^2 + n^3
    n = ONE - P * T
    pt = P * T
    inv = pt.inverse()
    assert inv == ONE + n + n ** 2 + n ** 3
    assert pt * inv == ONE


def test_p_inverse():
    inv = P.inverse()
    assert P * inv == ONE
    assert inv == 2 * ONE - P  # P^-1 = 2 - P since (1-P)^2 = 0


def test_non_invertible_element_raises():
    with pytest.raises(NotInvertibleError):
        (ONE - P).inverse()
    with pytest.raises(NotInvertibleError):
        ZERO.inverse()


def test_inverse_with_rational_function_coefficients():
    one = ring_one(Y_RING)
    f = one - P * q_power(2)
    inv = f.inverse()
    assert f * inv == one
    # matches the nilpotent closed form (1 + (P-1) u/(1-u)) / (1-u), u = q^2
    u = q_power(2)
    base = QRF([1], [1, 0, -1])  # 1/(1-q^2)
    closed = (one + (P - one) * (u * base)) * base
    assert inv == closed


small_coords = st.tuples(
    *[st.fractions(min_value=-5, max_value=5, max_denominator=4) for _ in range(6)]
)


@given(a=small_coords, b=small_coords)
@settings(max_examples=60)
def test_commutativity_property(a, b):
    x = KElem(Y_RING, a)
    y = KElem(Y_RING, b)
    assert x * y == y * x


@given(a=small_coords)
@settings(max_examples=60)
def test_unit_and_zero_property(a):
    x = KElem(Y_RING, a)
    assert x * ONE == x
    assert (x * ZERO).is_zero
    assert x - x == ZERO


def test_power_is_the_repeated_product():
    rng = random.Random(11)
    fraction_elements = [
        KElem(Y_RING, tuple(Fr(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)))
        for _ in range(2)
    ]
    function_elements = [ONE - P * T * q_power(1), (ONE - P * q_power(1)).inverse()]
    for x in fraction_elements + function_elements:
        assert x**0 == ONE
        product = ONE
        for n in range(1, 10):
            product = product * x
            assert x**n == product


def test_absorption_identity(checks_script):
    assert checks_script.absorption_check(1)
    assert checks_script.absorption_check(10)
    with pytest.raises(ValueError):
        checks_script.absorption_check(0)


def absorption_by_powers_of_q(ring, m_max):
    """The m-by-m check: n2 (1 - P t q^m) == n2 (1 - P q^m) for m <= m_max."""
    one, p, t = ring_one(ring), gen_p(ring), gen_t(ring)
    n2 = (one - p * t) ** 2
    return all(
        n2 * (one - p * t * q_power(m)) == n2 * (one - p * q_power(m))
        for m in range(1, m_max + 1)
    )


@pytest.mark.parametrize("m_max", [1, 4])
def test_absorption_as_one_identity_matches_the_loop_over_m(monkeypatch, checks_script, m_max):
    absorption_check = checks_script.absorption_check
    assert absorption_check(m_max) and absorption_by_powers_of_q(Y_RING, m_max)
    # t^2 = 0 in place of (1-Pt)^2 (1-t) = 0: a rank-4 ring with no absorption
    mutated = _build_ring("Y", ("P", "t"), (kring._LINE_RELATION, {(0, 2): 1}))
    monkeypatch.setattr(checks_script, "Y_RING", mutated)
    assert not absorption_check(m_max)
    assert not absorption_by_powers_of_q(mutated, m_max)


def test_absorption_absorbs_all_powers_of_t():
    # (1-Pt)^2 (1-t) = 0 forces (1-Pt)^2 t^k = (1-Pt)^2 for every k, so
    # even the t^2 variant of the identity holds; absorption is not an
    # accident of the first power.
    one = ring_one(Y_RING)
    n2 = (one - P * T) ** 2
    q1 = q_power(1)
    assert n2 * (one - P * T * T * q1) == n2 * (one - P * q1)


def test_absorption_fails_without_the_square():
    # sensitivity control: a single factor of (1-Pt) does not absorb t,
    # because only (1-Pt)^2 (1-t) lies in the ideal.
    one = ring_one(Y_RING)
    n1 = one - P * T
    q1 = q_power(1)
    assert n1 * (one - P * T * q1) != n1 * (one - P * q1)
    assert not (n1 * (one - T)).is_zero


def test_scalar_mixing_fraction_and_qrf_coords():
    e = P * q_power(1) + T * Fr(1, 2)
    f = e * 2
    assert f == P * (q_power(1) * 2) + T
