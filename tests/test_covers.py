"""Tests for Bernoulli numbers and the rigid-curve cover formulas."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bps_kit.covers import bernoulli, conifold_gv_table, conifold_gw_table
from bps_kit.transform import sin_power_series

from oracles import bernoulli_akiyama_tanigawa, conifold_gw

Fr = Fraction


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fr(-1, 2)


def test_bernoulli_recurrence_values():
    # frozen from the Akiyama-Tanigawa oracle
    assert bernoulli(2) == Fr(1, 6)
    assert bernoulli(4) == Fr(-1, 30)
    assert bernoulli(12) == Fr(-691, 2730)


def test_bernoulli_against_akiyama_tanigawa():
    for n in range(0, 30):
        expected = bernoulli_akiyama_tanigawa(n)
        if n == 1:
            # AT produces the +1/2 convention; ours is -1/2
            assert bernoulli(1) == -expected
        else:
            assert bernoulli(n) == expected


def test_bernoulli_odd_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 25, 2))


def test_conifold_gw_case_split():
    assert conifold_gw(0, 2) == Fr(1, 8)
    assert conifold_gw(1, 3) == Fr(1, 36)
    assert conifold_gw(2, 1) == Fr(1, 240)  # |B_4| / (4 * 2!) = (1/30)/8


def test_conifold_gw_genus_one_self_check():
    assert all(conifold_gw(1, d) * 12 * d == 1 for d in range(1, 20))


def test_conifold_gw_rejects_bad_input():
    with pytest.raises(ValueError):
        conifold_gw(0, 0)
    with pytest.raises(ValueError):
        conifold_gw(-1, 1)


def test_lambda_zero_coefficient_ties_to_genus_one_value():
    # [lam^0] of (1/d)(2 sin(d lam/2))^-2 equals 1/(12d)
    for d in (1, 2, 5):
        series = sin_power_series(d, 0, 2)
        assert series.coefficient(0) / d == conifold_gw(1, d)


def test_higher_genus_closed_form_matches_lambda_expansion():
    # [lam^(2g-2)] of (1/d)(2 sin(d lam/2))^-2 equals the genus-g closed form
    for d in (1, 2, 3):
        series = sin_power_series(d, 0, 9)
        for g in (2, 3, 4):
            assert series.coefficient(2 * g - 2) / d == conifold_gw(g, d)


@pytest.mark.parametrize("bounds", [(0, 1), (2, 4), (5, 8)])
def test_conifold_gv_is_a_delta(bounds):
    g_max, d_max = bounds
    gv = conifold_gv_table(g_max, d_max)
    assert dict(gv.entries) == {(0, (1,)): Fr(1)}


def test_conifold_gw_table_contents():
    t = conifold_gw_table(1, 2)
    assert t.value(0, (1,)) == 1
    assert t.value(0, (2,)) == Fr(1, 8)
    assert t.value(1, (2,)) == Fr(1, 24)


def test_conifold_gw_table_matches_closed_forms_cell_by_cell():
    # the table scales one constant per genus by d^(2g-3); each cell must
    # equal the per-cell closed form
    t = conifold_gw_table(20, 80)
    assert (t.lattice_rank, t.genus_max, t.degree_max) == (1, 20, (80,))
    assert dict(t.entries) == {
        (g, (d,)): conifold_gw(g, d) for g in range(21) for d in range(1, 81)
    }


def test_conifold_gw_table_rejects_bad_bounds():
    for g_max, d_max in [(-1, 3), (2, 0)]:
        with pytest.raises(ValueError):
            conifold_gw_table(g_max, d_max)
    for g_max, d_max in [(2.0, 3), (2, 3.0), ("2", 3)]:
        with pytest.raises(TypeError):
            conifold_gw_table(g_max, d_max)
