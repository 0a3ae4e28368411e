"""Tests for the genus-filtered invariant transform."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bps_kit import transform
from bps_kit.covers import bernoulli, conifold_gw_table
from bps_kit.transform import (
    KIND_GV,
    KIND_GW,
    InvariantTable,
    TableBoundError,
    TableKindError,
    _inverse_lambda_coefficients,
    _lambda_coefficients,
    check_integrality,
    degree_vectors,
    gv_to_gw,
    gw_to_gv,
    mobius,
    sin_power_series,
)

from oracles import (
    cover_coefficient_naive,
    divisors,
    genus_zero_slice,
    gv_to_gw_naive,
    mobius_bruteforce,
    mobius_transform_genus0,
    sin_power_coeffs,
)

Fr = Fraction

QUINTIC_GW = {
    1: Fr(2875),
    2: Fr(4876875, 8),
    3: Fr(8564575000, 27),
    4: Fr(15517926796875, 64),
}
QUINTIC_GV = {1: Fr(2875), 2: Fr(609250), 3: Fr(317206375), 4: Fr(242467530000)}


def rank1_table(kind, values, genus_max=0, dmax=None):
    dmax = dmax if dmax is not None else max(values, default=1)
    return InvariantTable(
        kind,
        1,
        genus_max,
        (dmax,),
        {(0, (d,)): v for d, v in values.items()},
    )


# --- sin_power_series ---------------------------------------------------------


def test_sin_series_genus_one_is_constant():
    s = sin_power_series(1, 1, 4)
    assert s.coefficient(0) == 1
    assert all(s.coefficient(e) == 0 for e in range(-2, 4) if e != 0)


def test_sin_series_genus_zero_anchors():
    s = sin_power_series(1, 0, 4)
    assert s.coefficient(-2) == 1
    assert s.coefficient(0) == Fr(1, 12)
    assert s.coefficient(2) == Fr(1, 240)


def test_sin_series_genus_two():
    s = sin_power_series(1, 2, 8)
    assert s.coefficient(2) == 1
    assert s.coefficient(4) == Fr(-1, 12)
    assert s.coefficient(6) == Fr(1, 360)


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("genus", range(7))
def test_sin_series_matches_bruteforce_oracle(k, genus):
    # every order from -1 up, so orders at or below the lowest term 2g - 2,
    # where the series is zero, are covered too
    oracle = sin_power_coeffs(k, genus, 15)
    for order in range(-1, 17):
        s = sin_power_series(k, genus, order)
        assert s.trunc_order == order
        for e in range(-2, order):
            assert s.coefficient(e) == oracle.get(e, Fr(0)), (k, genus, order, e)


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("genus", [0, 1, 2, 4])
def test_sin_series_parity_and_leading(k, genus):
    order = 2 * genus + 4
    s = sin_power_series(k, genus, order)
    lead = 2 * genus - 2
    assert s.coefficient(lead) == Fr(k) ** lead
    for e in range(s.min_exp, s.trunc_order):
        if e % 2:
            assert s.coefficient(e) == 0
        if e < lead:
            assert s.coefficient(e) == 0


# --- mobius -------------------------------------------------------------------


def test_mobius_small_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1


def test_mobius_against_bruteforce():
    for n in range(1, 200):
        assert mobius(n) == mobius_bruteforce(n)


# --- quintic golden data --------------------------------------------------------


def test_quintic_mobius_path():
    # at genus zero and rank one, gw_to_gv is the Mobius divisor sum
    gw = rank1_table(KIND_GW, QUINTIC_GW)
    gv = gw_to_gv(gw)
    assert {d[0]: v for (_, d), v in gv.entries.items()} == QUINTIC_GV
    assert all(mobius_transform_genus0(QUINTIC_GW, d) == v for d, v in QUINTIC_GV.items())


def test_quintic_full_transform():
    gw = rank1_table(KIND_GW, QUINTIC_GW)
    gv = gw_to_gv(gw)
    assert {d[0]: v for (_, d), v in gv.entries.items()} == QUINTIC_GV
    assert gv_to_gw(gv) == gw


def test_quintic_forward_from_gv():
    gv = rank1_table(KIND_GV, QUINTIC_GV)
    gw = gv_to_gw(gv)
    assert {d[0]: v for (_, d), v in gw.entries.items()} == QUINTIC_GW


def test_single_seed_forward():
    gv = rank1_table(KIND_GV, {1: Fr(2875)}, dmax=3)
    gw = gv_to_gw(gv)
    assert gw.value(0, (1,)) == 2875
    assert gw.value(0, (2,)) == Fr(2875, 8)
    assert gw.value(0, (3,)) == Fr(2875, 27)


def test_single_seed_inverse():
    gw = rank1_table(KIND_GW, {1: Fr(1)}, dmax=3)
    gv = gw_to_gv(gw)
    assert gv.value(0, (1,)) == 1
    assert gv.value(0, (2,)) == Fr(-1, 8)
    assert gv.value(0, (3,)) == Fr(-1, 27)
    assert all(gv.value(0, (d,)) == mobius_transform_genus0({1: Fr(1)}, d) for d in (1, 2, 3))


def test_genus_filtered_hand_solve():
    # seed GW_{0,1} = 1 with bounds g <= 1, d <= 2; triangular solve by hand
    # using the lam^-2 and lam^0 coefficients 1/k^3 and 1/(12k).
    gw = InvariantTable(KIND_GW, 1, 1, (2,), {(0, (1,)): Fr(1)})
    gv = gw_to_gv(gw)
    assert gv.value(0, (1,)) == 1
    assert gv.value(0, (2,)) == Fr(-1, 8)
    assert gv.value(1, (1,)) == Fr(-1, 12)


def test_zero_table_maps_to_zero():
    zero = InvariantTable(KIND_GW, 2, 2, (2, 2), {})
    assert gw_to_gv(zero).entries == {}
    zero_gv = InvariantTable(KIND_GV, 2, 2, (2, 2), {})
    assert gv_to_gw(zero_gv).entries == {}


def test_mobius_identity_pushforward():
    # GW_d = sum_{e|d} e^-3 corresponds to GV identically 1
    dmax = 8
    gw_vals = {d: sum(Fr(1, e**3) for e in divisors(d)) for d in range(1, dmax + 1)}
    gv = gw_to_gv(rank1_table(KIND_GW, gw_vals))
    assert all(gv.value(0, (d,)) == 1 for d in range(1, dmax + 1))
    # and agrees with the brute-force divisor convolution
    for d in range(1, dmax + 1):
        assert gv.value(0, (d,)) == mobius_transform_genus0(gw_vals, d)


# --- table validation ----------------------------------------------------------


def test_table_rejects_out_of_bound_entries():
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GW, 1, 0, (2,), {(0, (3,)): Fr(1)})
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GW, 1, 0, (2,), {(1, (1,)): Fr(1)})
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GW, 1, 0, (2,), {(0, (0,)): Fr(1)})


def test_table_value_reads_are_bound_checked():
    t = rank1_table(KIND_GW, {1: Fr(1)}, dmax=2)
    assert t.value(0, (2,)) == 0
    with pytest.raises(TableBoundError):
        t.value(0, (3,))
    with pytest.raises(TableBoundError):
        t.value(1, (1,))
    # the zero degree vector is no cell, as in the constructor
    with pytest.raises(TableBoundError, match="degree vector must be nonzero"):
        t.value(0, (0,))
    # malformed keys fail as the constructor fails, never read as zero
    for genus, degree in [(0.5, (2,)), (0, (2.5,)), ("1", (2,)), (0, ("1",)), (0, 2)]:
        with pytest.raises(TableBoundError):
            t.value(genus, degree)
    assert t.value(0, range(1, 2)) == 1


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius(0)


def test_cover_weights_are_sized_by_the_cells_not_the_box(monkeypatch):
    # mu(k) is computed only up to the largest multiple k that a cell has
    calls = []
    monkeypatch.setattr(transform, "mobius", lambda k: calls.append(k) or mobius(k))
    box = 10**5
    gw_to_gv(InvariantTable(KIND_GW, 1, 0, (box,), {}))
    assert calls == []
    gv = gw_to_gv(InvariantTable(KIND_GW, 1, 1, (box,), {(0, (30_000,)): Fr(1)}))
    assert calls == [1, 2, 3]
    assert [gv.value(0, (d,)) for d in (30_000, 60_000, 90_000)] == [1, -Fr(1, 8), -Fr(1, 27)]
    calls.clear()
    gw_to_gv(InvariantTable(KIND_GW, 2, 0, (box, 4), {(0, (1, 1)): Fr(1), (0, (2, 1)): Fr(1)}))
    assert calls == [1, 2, 3, 4]


def test_sin_series_argument_validation():
    with pytest.raises(ValueError):
        sin_power_series(0, 0, 4)
    with pytest.raises(ValueError):
        sin_power_series(1, -1, 4)
    with pytest.raises(ValueError):
        sin_power_series(1, 0, -2)


def test_kind_mismatch_rejected():
    gv = rank1_table(KIND_GV, {1: Fr(1)})
    with pytest.raises(TableKindError):
        gw_to_gv(gv)
    gw = rank1_table(KIND_GW, {1: Fr(1)})
    with pytest.raises(TableKindError):
        gv_to_gw(gw)
    with pytest.raises(TableKindError):
        check_integrality(gw)


# --- integrality ----------------------------------------------------------------


def test_integrality_pass_and_fail():
    gv = rank1_table(KIND_GV, QUINTIC_GV)
    assert check_integrality(gv).is_integral
    bad = rank1_table(KIND_GV, {1: Fr(1), 2: Fr(-1, 8)})
    report = check_integrality(bad)
    assert not report.is_integral
    assert report.violations == ((0, (2,), Fr(-1, 8)),)
    empty = InvariantTable(KIND_GV, 1, 0, (4,), {})
    assert check_integrality(empty).is_integral


# --- round trips and filtration --------------------------------------------------


def random_table(rng, rank, genus_max, degree_max):
    entries = {}
    for deg in degree_vectors(degree_max):
        for g in range(genus_max + 1):
            if rng.random() < 0.6:
                entries[(g, deg)] = Fr(rng.randint(-50, 50), rng.randint(1, 12))
    return InvariantTable(KIND_GW, rank, genus_max, degree_max, entries)


def test_round_trip_seeded_sample():
    rng = random.Random(20260808)
    for _ in range(30):
        rank = rng.choice([1, 2])
        genus_max = rng.randint(0, 6)
        if rank == 1:
            degree_max = (rng.randint(1, 12),)
        else:
            a = rng.randint(1, 3)
            degree_max = (a, rng.randint(1, 6 - a))
        gw = random_table(rng, rank, genus_max, degree_max)
        gv = gw_to_gv(gw)
        assert gv_to_gw(gv) == gw
        assert gw_to_gv(gv_to_gw(gv)) == gv


fraction_values = st.fractions(min_value=-30, max_value=30, max_denominator=8)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(data):
    rank = data.draw(st.integers(1, 3))
    genus_max = data.draw(st.integers(0, 2))
    degree_max = tuple(
        data.draw(st.integers(1, 3)) for _ in range(rank)
    )
    cells = [
        (g, deg)
        for deg in degree_vectors(degree_max)
        for g in range(genus_max + 1)
    ]
    values = data.draw(
        st.lists(fraction_values, min_size=len(cells), max_size=len(cells))
    )
    gw = InvariantTable(
        KIND_GW, rank, genus_max, degree_max, dict(zip(cells, values))
    )
    assert gv_to_gw(gw_to_gv(gw)) == gw


def test_genus_zero_slice_agrees_with_mobius_path():
    rng = random.Random(7)
    for _ in range(10):
        dmax = rng.randint(2, 6)
        gmax = rng.randint(0, 3)
        gw = random_table(rng, 1, gmax, (dmax,))
        full = gw_to_gv(gw)
        sliced = gw_to_gv(genus_zero_slice(gw))
        assert genus_zero_slice(full) == sliced
        gw0 = {d: v for (g, (d,)), v in gw.entries.items() if g == 0}
        for d in range(1, dmax + 1):
            assert sliced.value(0, (d,)) == mobius_transform_genus0(gw0, d)


def test_transform_is_genus_filtered():
    rng = random.Random(99)
    gw = random_table(rng, 1, 3, (4,))
    bumped_entries = dict(gw.entries)
    key = (3, (2,))
    bumped_entries[key] = bumped_entries.get(key, Fr(0)) + 7
    bumped = InvariantTable(KIND_GW, 1, 3, (4,), bumped_entries)
    gv_a = gw_to_gv(gw)
    gv_b = gw_to_gv(bumped)
    for (g, deg), v in gv_a.entries.items():
        if g < 3:
            assert gv_b.value(g, deg) == v
    assert gv_a != gv_b


def test_solve_order_independence():
    # independent re-solve iterating genus in the outer loop, with cover
    # coefficients from the oracle; the filtration makes any such order
    # give the same unique answer.
    rng = random.Random(5)
    gw = random_table(rng, 2, 2, (2, 2))
    solved = {}
    for h in range(gw.genus_max + 1):
        for gamma in degree_vectors(gw.degree_max):
            acc = gw.entries.get((h, gamma), Fr(0))
            for k in divisors(math.gcd(*gamma)):
                beta = tuple(d // k for d in gamma)
                for g in range(gw.genus_max + 1):
                    if k == 1 and g == h:
                        continue
                    v = solved.get((g, beta), Fr(0))
                    if v:
                        acc -= v * cover_coefficient_naive(k, g, h)
            if acc:
                solved[(h, gamma)] = acc
    assert solved == dict(gw_to_gv(gw).entries)


@st.composite
def sparse_tables(draw, kind):
    """Tables of ranks 1-3 and genus 0-6 with a few cells, denominators <= 12.

    Rank-1 degrees reach 12, so covers of degree k with mu(k) = 0 (4, 8, 9,
    12) and with two prime factors (6, 10) occur.
    """
    rank = draw(st.integers(1, 3))
    genus_max = draw(st.integers(0, 6))
    degree_max = tuple(draw(st.integers(1, 12 if rank == 1 else 3)) for _ in range(rank))
    cells = [(g, deg) for deg in degree_vectors(degree_max) for g in range(genus_max + 1)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=6))
    values = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    entries = {cell: draw(values) for cell in chosen}
    return InvariantTable(kind, rank, genus_max, degree_max, entries)


@given(sparse_tables(KIND_GV))
@settings(max_examples=60, deadline=None)
def test_forward_map_matches_dense_oracle(gv):
    assert gv_to_gw(gv) == gv_to_gw_naive(gv)


@given(sparse_tables(KIND_GW))
@settings(max_examples=60, deadline=None)
def test_solve_inverts_dense_oracle(gw):
    assert gv_to_gw_naive(gw_to_gv(gw)) == gw


def test_solve_inverts_dense_oracle_through_degree_12():
    # a dense rank-1 table meets every cover degree k <= 12 at once: k with a
    # square factor (mu(k) = 0) and k with two prime factors included
    gw = random_table(random.Random(12), 1, 6, (12,))
    assert gv_to_gw_naive(gw_to_gv(gw)) == gw


def test_round_trip_with_pairwise_coprime_denominators():
    # each genus layer runs over the lcm of its denominators; distinct primes
    # make that lcm as large as it can be for the table's size
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    cells = [(g, deg) for deg in degree_vectors((3, 3)) for g in range(3)]
    entries = {cell: Fr((-1) ** i * (i + 1), p) for i, (cell, p) in enumerate(zip(cells, primes))}
    assert len(entries) == len(cells) == 45
    gw = InvariantTable(KIND_GW, 2, 2, (3, 3), entries)
    assert gv_to_gw_naive(gw_to_gv(gw)) == gw


def test_inverse_lambda_coefficients_invert_the_sine_matrix():
    # B^-1 comes from the arcsine-square series, B from the sine powers
    for genus_max in range(21):
        b, b_inv = _lambda_coefficients(genus_max), _inverse_lambda_coefficients(genus_max)
        n = range(genus_max + 1)
        for i in n:
            for j in n:
                assert sum(b_inv[i][m] * b[m][j] for m in n) == (i == j), (genus_max, i, j)
                assert sum(b[i][m] * b_inv[m][j] for m in n) == (i == j), (genus_max, i, j)


def test_table_value_rejects_wrong_rank():
    t = rank1_table(KIND_GW, {1: Fr(1)}, dmax=2)
    with pytest.raises(TableBoundError):
        t.value(0, (1, 2))
    with pytest.raises(TableBoundError):
        t.value(0, ())


def test_table_rejects_non_integral_components():
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GW, 1, 0, (2,), {(0, (1.7,)): Fr(1)})
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GW, 1, 1, (2,), {(0.5, (1,)): Fr(1)})
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GW, 1, 0, (2.5,), {})


def test_table_rejects_keys_that_name_one_cell():
    # a dict already merges (1,) and (1.0,); keys that stay distinct in the
    # mapping but normalise to one cell must not collapse either
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GW, 1, 0, (2,), {(0, (1,)): Fr(1), (0, range(1, 2)): Fr(2)})
    # also when one of the two values is zero and would not be stored
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GW, 1, 0, (2,), {(0, (1,)): Fr(0), (0, range(1, 2)): Fr(2)})


class _Index:
    """An integer-like key part equal only to itself, so a dict keeps it apart from n."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def test_table_checks_each_cell_of_a_degree_vector_seen_before():
    # the rank and bound checks run once per degree vector; every later cell
    # of that vector must still pass its own genus and duplicate checks
    ok = {(0, (1, 0)): Fr(1), (1, (1, 0)): Fr(2)}
    bad_cells = [
        ((2, (1, 0)), "entry genus 2 outside"),
        ((-1, (1, 0)), "entry genus -1 outside"),
        ((_Index(2), (_Index(1), 0)), "entry genus 2 outside"),
        ((0, (_Index(1), 0)), "two entries for the cell"),
        ((_Index(1), (1, _Index(0))), "two entries for the cell"),
    ]
    for cell, message in bad_cells:
        with pytest.raises(TableBoundError, match=message):
            InvariantTable(KIND_GW, 2, 1, (2, 2), {**ok, cell: Fr(3)})
    # the same normalised vector in a fresh cell is accepted
    table = InvariantTable(KIND_GW, 2, 2, (2, 2), {**ok, (2, (_Index(1), 0)): Fr(3)})
    assert dict(table.entries) == {**ok, (2, (1, 0)): Fr(3)}


def _library_tables():
    """Tables the library builds without re-running the constructor's checks."""
    rng = random.Random(1414)
    gw = random_table(rng, 2, 2, (3, 2))
    gv = gw_to_gv(gw)
    rank1 = random_table(rng, 1, 0, (6,))
    return [
        gv,
        gv_to_gw(gv),
        gw_to_gv(InvariantTable(KIND_GW, 2, 1, (2, 2), {})),
        gw_to_gv(rank1),
        genus_zero_slice(gw),
        conifold_gw_table(3, 5),
    ]


def test_table_entries_are_read_only():
    # every cell passed the bound checks on construction; no later write may
    # add one that would not
    table = InvariantTable(KIND_GV, 1, 0, (2,), {(0, (1,)): Fr(1)})
    for t in [table, *_library_tables()]:
        with pytest.raises(TypeError):
            t.entries[(7, (99,))] = Fr(3)
        with pytest.raises(TypeError):
            del t.entries[next(iter(t.entries), (0, (1,)))]
    assert dict(table.entries) == {(0, (1,)): Fr(1)}


def test_library_tables_pass_the_constructor_checks():
    # the transforms build their outputs without re-validating them; the same
    # bounds and cells must pass the public constructor unchanged
    for t in _library_tables():
        checked = InvariantTable(t.kind, t.lattice_rank, t.genus_max, t.degree_max, dict(t.entries))
        assert t == checked
        assert dict(t.entries) == dict(checked.entries)
        assert type(t.degree_max) is tuple
        assert all(type(d) is int for d in (t.lattice_rank, t.genus_max, *t.degree_max))


@pytest.mark.parametrize("bad", [2.5, 1.0, "1", None])
def test_table_rejects_non_integer_rank_and_genus_bound(bad):
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GV, bad, 2, (3,), {(0, (1,)): Fr(1)})
    with pytest.raises(TableBoundError):
        InvariantTable(KIND_GV, 1, bad, (3,), {(0, (1,)): Fr(1)})


def test_table_normalises_integer_like_bounds():
    # a bool or an __index__ object is an integer bound, stored as an int
    table = InvariantTable(KIND_GV, True, _Index(2), (3,), {(0, (1,)): Fr(1)})
    assert (table.lattice_rank, table.genus_max) == (1, 2)
    assert type(table.lattice_rank) is int and type(table.genus_max) is int
    assert gv_to_gw(table) == gv_to_gw(InvariantTable(KIND_GV, 1, 2, (3,), {(0, (1,)): Fr(1)}))


def test_integrality_violations_are_listed_by_genus_then_degree():
    entries = {
        (2, (1, 0)): Fr(1, 2),
        (0, (2, 1)): Fr(-1, 3),
        (1, (0, 1)): Fr(5),
        (0, (1, 2)): Fr(7, 4),
        (1, (1, 1)): Fr(2, 9),
        (0, (0, 1)): Fr(-3),
        (2, (0, 2)): Fr(-5, 6),
    }
    report = check_integrality(InvariantTable(KIND_GV, 2, 2, (2, 2), entries))
    assert not report.is_integral
    assert report.violations == (
        (0, (1, 2), Fr(7, 4)),
        (0, (2, 1), Fr(-1, 3)),
        (1, (1, 1), Fr(2, 9)),
        (2, (0, 2), Fr(-5, 6)),
        (2, (1, 0), Fr(1, 2)),
    )


def test_lambda_coefficients_match_sine_power_series():
    # B[g][h] against the brute-force expansion of (2 sin(lam/2))^(2g-2)
    top = 8
    oracle = [sin_power_coeffs(1, g, 2 * top - 2) for g in range(top + 1)]
    for genus_max in range(top + 1):
        assert _lambda_coefficients(genus_max) == tuple(
            tuple(oracle[g].get(2 * h - 2, Fr(0)) for h in range(genus_max + 1))
            for g in range(genus_max + 1)
        )


def test_lambda_coefficients_row_zero_is_the_conifold_constant():
    # [lam^(2g-2)] (2 sin(lam/2))^-2 = |B_2g| / (2g (2g-2)!) for g >= 1
    row = _lambda_coefficients(20)[0]
    assert row[0] == 1
    for g in range(1, 21):
        assert row[g] == abs(bernoulli(2 * g)) / (2 * g * math.factorial(2 * g - 2)), g
