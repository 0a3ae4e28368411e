"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line after its assertions so `pytest -s`
gives a one-line-per-criterion summary.  All comparisons are exact
(integer/rational equality); the time budgets are asserted too.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from bps_kit.cli import main
from bps_kit.covers import conifold_gv_table
from bps_kit.datasets import quintic_gw_path, quintic_gw_table
from bps_kit.jfunctions import (
    DivisorPairing,
    j_x_coefficient,
    jmgs_rhs,
    split_check,
)
from bps_kit.kring import (
    KElem,
    X_RING,
    Y_RING,
    element,
    gen_p,
    gen_t,
    ring_one,
)
from bps_kit.serialize import table_from_dict
from bps_kit.transform import (
    KIND_GV,
    KIND_GW,
    InvariantTable,
    check_integrality,
    degree_vectors,
    gv_to_gw,
    gw_to_gv,
    sin_power_series,
)

from oracles import (
    genus_zero_slice,
    groebner_normal_forms,
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


def timed(budget_seconds):
    """Context manager asserting the block finished inside its budget."""

    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            if exc == (None, None, None):
                assert self.elapsed < budget_seconds, (
                    f"budget {budget_seconds}s exceeded: {self.elapsed:.2f}s"
                )
            return False

    return _Timer()


def test_criterion_1_quintic_golden(tmp_path):
    with timed(1.0):
        gv_path = tmp_path / "gv.json"
        gw_path = tmp_path / "gw.json"
        assert main(["gw2gv", str(quintic_gw_path()), "--output", str(gv_path)]) == 0
        gv = table_from_dict(json.loads(gv_path.read_text()))
        assert {d[0]: v for (_, d), v in gv.entries.items()} == QUINTIC_GV
        assert main(["gv2gw", str(gv_path), "--output", str(gw_path)]) == 0
        back = table_from_dict(json.loads(gw_path.read_text()))
        assert back == quintic_gw_table()
        assert {d[0]: v for (_, d), v in back.entries.items()} == QUINTIC_GW
    print("\nACCEPTANCE 1 quintic golden transform: PASS")


def test_criterion_2_conifold_delta():
    with timed(5.0):
        gv = conifold_gv_table(20, 80)
        assert dict(gv.entries) == {(0, (1,)): Fr(1)}
        for g in range(21):
            for d in range(1, 81):
                expected = Fr(1) if (g, d) == (0, 1) else Fr(0)
                assert gv.value(g, (d,)) == expected
    print("\nACCEPTANCE 2 rigid-curve delta collapse (g<=20, d<=80): PASS")


def test_criterion_3_round_trip_100_tables():
    rng = random.Random(20260808)
    with timed(30.0):
        n_tables = 0
        while n_tables < 100:
            rank = 1 if n_tables % 2 == 0 else 2
            genus_max = rng.randint(0, 3)
            if rank == 1:
                degree_max = (rng.randint(1, 6),)
            else:
                a = rng.randint(1, 5)
                degree_max = (a, rng.randint(1, 6 - a))
            entries = {}
            for deg in degree_vectors(degree_max):
                for g in range(genus_max + 1):
                    if rng.random() < 0.7:
                        entries[(g, deg)] = Fr(
                            rng.randint(-99, 99), rng.randint(1, 16)
                        )
            gw = InvariantTable(KIND_GW, rank, genus_max, degree_max, entries)
            gv = gw_to_gv(gw)
            assert gv_to_gw(gv) == gw, "round trip failed"
            if rank == 1:
                slice0 = genus_zero_slice(gw)
                gv0 = gw_to_gv(slice0)
                assert genus_zero_slice(gv) == gv0
                gw0 = {d: v for (_, (d,)), v in slice0.entries.items()}
                for d in range(1, degree_max[0] + 1):
                    assert gv0.value(0, (d,)) == mobius_transform_genus0(gw0, d)
            n_tables += 1
    print("\nACCEPTANCE 3 round trip on 100 random tables + Mobius slice: PASS")


def test_criterion_4_series_anchors():
    with timed(1.0):
        s = sin_power_series(1, 0, 4)
        assert s.coefficient(-2) == 1
        assert s.coefficient(0) == Fr(1, 12)
        assert s.coefficient(2) == Fr(1, 240)
        # independent brute-force Taylor/long-division oracle
        oracle = sin_power_coeffs(1, 0, 3)
        assert oracle[-2] == 1 and oracle[0] == Fr(1, 12) and oracle[2] == Fr(1, 240)
        for k in (1, 2, 3):
            for g in (0, 1, 2, 3):
                series = sin_power_series(k, g, 2 * g + 3)
                lead = 2 * g - 2
                assert series.coefficient(lead) == Fr(k) ** lead
                for e in range(series.min_exp, series.trunc_order):
                    if e % 2:
                        assert series.coefficient(e) == 0
                ora = sin_power_coeffs(k, g, 2 * g + 2)
                for e in range(-2, 2 * g + 3):
                    assert series.coefficient(e) == ora.get(e, Fr(0))
    print("\nACCEPTANCE 4 series anchors vs brute-force oracle: PASS")


def test_criterion_5_kring_soundness(checks_script):
    with timed(5.0):
        one = ring_one(Y_RING)
        p = gen_p(Y_RING)
        t = gen_t(Y_RING)
        assert ((one - p) * (one - p)).is_zero
        assert ((one - p * t) ** 2 * (one - t)).is_zero
        rng = random.Random(1234)

        def rand_elem(ring):
            return KElem(
                ring,
                tuple(
                    Fr(rng.randint(-9, 9), rng.randint(1, 5))
                    for _ in range(ring.rank)
                ),
            )

        checked = 0
        while checked < 1000:
            ring = Y_RING if checked % 3 else X_RING
            a, b, c = rand_elem(ring), rand_elem(ring), rand_elem(ring)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * ring_one(ring) == a
            checked += 1
        assert checks_script.absorption_check(10)
    # normal forms of all monomials P^a t^b with a <= 4, b <= 6 against
    # Groebner-basis remainders, outside the budget since sympy is slow
    pytest.importorskip("sympy")
    for (a_exp, b_exp), rem in groebner_normal_forms(4, 6).items():
        assert set(rem) <= set(Y_RING.basis)
        lib = element(Y_RING, {(a_exp, b_exp): 1}).coords
        assert lib == tuple(rem.get(m, Fr(0)) for m in Y_RING.basis)
    print("\nACCEPTANCE 5 ring soundness, absorption m<=10, Groebner normal forms: PASS")


def test_criterion_6_split_identity_r20():
    with timed(10.0):
        report = split_check(20)
        assert report.all_passed
        assert [res.r for res in report.results] == list(range(1, 21))
        for res in report.results:
            assert all(x.is_zero for x in res.residuals)
    print("\nACCEPTANCE 6 proper-part identity for all r <= 20: PASS")


def test_criterion_7_delta_rhs_matches_rank2_j(checks_script):
    with timed(5.0):
        delta = InvariantTable(KIND_GV, 1, 0, (1,), {(0, (1,)): Fr(1)})
        rhs = jmgs_rhs(delta, DivisorPairing(((1,),)), 6, 6)
        for r in range(1, 7):
            term = rhs.terms[(r,)]
            assert checks_script.x_element_matches(
                term.divisor_exact[0], term.structure_exact, j_x_coefficient(r)
            )
    print("\nACCEPTANCE 7 delta-table RHS equals rank-2 J-coefficients: PASS")


def test_criterion_8_integrality_detects_perturbations():
    with timed(1.0):
        eps = Fr(1, 1000)
        for perturbed_degree in (1, 2, 3, 4):
            entries = {
                (0, (d,)): v + (eps if d == perturbed_degree else 0)
                for d, v in QUINTIC_GW.items()
            }
            gw = InvariantTable(KIND_GW, 1, 0, (4,), entries)
            report = check_integrality(gw_to_gv(gw))
            assert not report.is_integral
            assert len(report.violations) >= 1
        clean = InvariantTable(
            KIND_GW, 1, 0, (4,), {(0, (d,)): v for d, v in QUINTIC_GW.items()}
        )
        assert check_integrality(gw_to_gv(clean)).is_integral
    print("\nACCEPTANCE 8 integrality detects 1/1000 perturbations: PASS")
