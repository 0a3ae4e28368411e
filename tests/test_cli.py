"""Tests for the JSON schemas and the command-line driver."""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from bps_kit import cli, jfunctions, series
from bps_kit.cli import build_parser, main
from bps_kit.datasets import quintic_gw_table
from bps_kit.serialize import SchemaError, table_from_dict
from bps_kit.series import LaurentSeries, QRationalFunction
from bps_kit.transform import InvariantTable, KIND_GV, KIND_GW

from oracles import QRF, qrf_to_dict, table_to_dict

Fr = Fraction

QUINTIC_GV = {1: 2875, 2: 609250, 3: 317206375, 4: 242467530000}
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def quintic_doc():
    return table_to_dict(quintic_gw_table())


# --- serialization round trips --------------------------------------------------


def test_table_round_trip():
    table = InvariantTable(
        KIND_GW, 2, 1, (3, 2), {(0, (1, 0)): Fr(5, 3), (1, (3, 2)): Fr(-7)}
    )
    assert table_from_dict(table_to_dict(table)) == table


def test_table_description_preserved():
    doc = table_to_dict(quintic_gw_table(), description="golden data")
    assert doc["description"] == "golden data"
    assert table_from_dict(doc) == quintic_gw_table()


def test_table_schema_rejects_unknown_fields():
    doc = quintic_doc()
    doc["surprise"] = 1
    with pytest.raises(SchemaError):
        table_from_dict(doc)


def test_table_schema_rejects_bad_values():
    doc = quintic_doc()
    doc["entries"][0]["value"] = 2875  # number, not string
    with pytest.raises(SchemaError):
        table_from_dict(doc)
    doc = quintic_doc()
    doc["entries"][0]["genus"] = -1
    with pytest.raises(SchemaError):
        table_from_dict(doc)


def test_table_schema_rejects_duplicate_cells():
    doc = quintic_doc()
    doc["entries"].append(dict(doc["entries"][0]))
    with pytest.raises(SchemaError):
        table_from_dict(doc)


def test_jfunction_json_coords_parse_back(capsys):
    assert main(["jfunction", "--which", "X", "--rmax", "1", "--qorder", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    coord0 = doc[0]["coefficient"]["coords"][0]
    from bps_kit.jfunctions import j_x_coefficient

    assert coord0 == qrf_to_dict(j_x_coefficient(1).coords[0])


def test_emit_writes_a_large_document_without_copying_it(tmp_path):
    # the text and its newline are written apart: text + "\n" would be one
    # more copy of the text, next to the encoded bytes that the file write makes
    text = "x" * 10_000_000
    args = argparse.Namespace(output=str(tmp_path / "out"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._emit(args, text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text)
    assert (tmp_path / "out").read_text(encoding="utf-8") == text + "\n"


# --- CLI ------------------------------------------------------------------------


def test_cli_gw2gv_quintic(tmp_path, capsys):
    out = tmp_path / "gv.json"
    code = main(["gw2gv", str(quintic_path()), "--output", str(out), "--check-integrality"])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    doc = json.loads(out.read_text())
    table = table_from_dict(doc)
    assert table.kind == KIND_GV
    assert {d[0]: int(v) for (_, d), v in table.entries.items()} == QUINTIC_GV


def quintic_path():
    from bps_kit.datasets import quintic_gw_path

    return quintic_gw_path()


def test_cli_gw2gv_has_no_genus0_mobius_flag(capsys):
    # gw2gv runs one transform; the genus-zero Mobius option, which ran the
    # same transform after three checks, is gone and is rejected as unknown
    with pytest.raises(SystemExit) as exc:
        main(["gw2gv", str(quintic_path()), "--genus0-mobius"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --genus0-mobius" in captured.err
    assert captured.out == ""


def test_cli_round_trip_bit_exact(tmp_path):
    gv = tmp_path / "gv.json"
    back = tmp_path / "gw.json"
    assert main(["gw2gv", str(quintic_path()), "--output", str(gv)]) == 0
    assert main(["gv2gw", str(gv), "--output", str(back)]) == 0
    assert table_from_dict(json.loads(back.read_text())) == quintic_gw_table()


def test_cli_empty_entries(tmp_path, capsys):
    src = tmp_path / "empty.json"
    write_json(
        src,
        {
            "kind": "GW",
            "lattice_rank": 1,
            "genus_max": 0,
            "degree_max": [3],
            "entries": [],
        },
    )
    out = tmp_path / "out.json"
    assert main(["gw2gv", str(src), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["entries"] == []


def test_cli_malformed_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["gw2gv", str(bad)]) == 1
    doc = quintic_doc()
    doc["entries"][0]["genus"] = -1
    schema_bad = tmp_path / "schema.json"
    write_json(schema_bad, doc)
    assert main(["gw2gv", str(schema_bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["gw2gv", str(missing)]) == 1


def test_cli_non_utf8_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["gv2gw", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("input error:")
    gv = tmp_path / "gv.json"
    write_json(gv, {"kind": "GV", "lattice_rank": 1, "genus_max": 0, "degree_max": [1], "entries": []})
    assert main(["jmgs", "--gv", str(gv), "--pairing", str(bad), "--rmax", "1"]) == 1
    assert capsys.readouterr().err.startswith("input error:")


def test_cli_bound_violation_exits_2(tmp_path, capsys):
    doc = quintic_doc()
    doc["entries"][0]["degree"] = [9]  # beyond degree_max = [4]
    bad = tmp_path / "bounds.json"
    write_json(bad, doc)
    assert main(["gw2gv", str(bad)]) == 2
    # kind mismatch is a domain error too
    gv_doc = quintic_doc()
    gv_doc["kind"] = "GV"
    wrong = tmp_path / "wrong_kind.json"
    write_json(wrong, gv_doc)
    assert main(["gw2gv", str(wrong)]) == 2
    assert main(["gv2gw", str(quintic_path())]) == 2


def test_cli_integrality_failure_exit_code(tmp_path, capsys):
    doc = quintic_doc()
    doc["entries"][1]["value"] = "4876876/8"  # perturbed
    src = tmp_path / "perturbed.json"
    write_json(src, doc)
    code = main(["gw2gv", str(src), "--output", str(tmp_path / "o.json"), "--check-integrality"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("exists", [True, False])
def test_cli_gw2gv_json_integrality_needs_output(tmp_path, capsys, exists):
    # without --output the table and the report would be two JSON documents
    # on stdout; the combination is refused before the input is read
    src = quintic_path() if exists else tmp_path / "missing.json"
    code = main(["gw2gv", str(src), "--json", "--check-integrality"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--output" in captured.err


def test_cli_check_integrality_command(tmp_path, capsys):
    gv_doc = {
        "kind": "GV",
        "lattice_rank": 1,
        "genus_max": 0,
        "degree_max": [2],
        "entries": [
            {"genus": 0, "degree": [1], "value": "1"},
            {"genus": 0, "degree": [2], "value": "-1/8"},
        ],
    }
    src = tmp_path / "gv.json"
    write_json(src, gv_doc)
    assert main(["check-integrality", str(src)]) == 3
    out = capsys.readouterr().out
    assert "-1/8" in out
    gv_doc["entries"][1]["value"] = "5"
    write_json(src, gv_doc)
    assert main(["check-integrality", str(src)]) == 0


def test_cli_conifold_delta(capsys):
    assert main(["conifold", "--gmax", "2", "--dmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "delta at (genus 0, degree 1): yes" in out
    assert main(["conifold", "--gmax", "0", "--dmax", "1"]) == 0
    assert main(["conifold", "--gmax", "0", "--dmax", "0"]) == 2


def test_cli_sin_series_text(capsys):
    assert main(["sin-series", "--k", "1", "--genus", "0", "--order", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "λ^-2 + 1/12 + 1/240·λ^2"


def test_cli_sin_series_json_round_trip(capsys):
    assert main(["sin-series", "--k", "2", "--genus", "2", "--order", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["type"], doc["variable"], doc["trunc_order"]) == ("laurent_series", "lambda", 6)
    assert doc["coefficients"][2 - doc["min_exp"]] == "4"  # k^(2g-2) = 2^2


@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("order", [-1, 0])
def test_cli_sin_series_truncated_below_the_lowest_term_is_zero(capsys, genus, order):
    # the lowest term is lam^(2g-2), so genus 1 at order <= 0 is the zero
    # series, as genus 2 is
    argv = ["sin-series", "--genus", str(genus), "--order", str(order)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["min_exp"], doc["trunc_order"], doc["coefficients"]) == (order, order, [])


def test_cli_ab_series(capsys):
    assert main(["ab-series", "--r", "1", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert "1 + 2·q + 3·q^2 + 4·q^3" in out


def test_cli_split_check(capsys):
    assert main(["split-check", "--rmax", "6"]) == 0
    out = capsys.readouterr().out
    assert all(f"r={r}: PASS" in out for r in range(1, 7))


def test_cli_split_check_failure_maps_to_exit_3(monkeypatch, capsys):
    import bps_kit.cli as cli_mod
    from bps_kit.jfunctions import SplitCheckReport, SplitCheckResult

    fake = SplitCheckReport((SplitCheckResult(1, False, (QRF([1]),) * 6),))
    monkeypatch.setattr(cli_mod, "split_check", lambda rmax: fake)
    assert main(["split-check", "--rmax", "1"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_cli_jmgs(tmp_path, capsys):
    gv = tmp_path / "gv.json"
    write_json(
        gv,
        {
            "kind": "GV",
            "lattice_rank": 1,
            "genus_max": 0,
            "degree_max": [1],
            "entries": [{"genus": 0, "degree": [1], "value": "1"}],
        },
    )
    pairing = tmp_path / "pairing.json"
    write_json(pairing, {"vectors": [[1]]})
    assert main(["jmgs", "--gv", str(gv), "--pairing", str(pairing), "--rmax", "2", "--qorder", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constant"] == "1"
    assert len(doc["terms"]) == 2
    first = doc["terms"][0]
    assert first["total_degree"] == [1]
    assert first["divisor"][0] == qrf_to_dict(QRF([1], [1, -2, 1]))


def test_cli_jmgs_bad_pairing(tmp_path, capsys):
    gv = tmp_path / "gv.json"
    write_json(
        gv,
        {
            "kind": "GV",
            "lattice_rank": 1,
            "genus_max": 0,
            "degree_max": [1],
            "entries": [],
        },
    )
    pairing = tmp_path / "pairing.json"
    write_json(pairing, {"vectors": "nope"})
    assert main(["jmgs", "--gv", str(gv), "--pairing", str(pairing), "--rmax", "1"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["ifunction"],
        ["jfunction", "--which", "X"],
        ["jfunction", "--which", "Y"],
        ["split-check"],
        ["jmgs", "--gv", str(GOLDEN / "jmgs_gv.json"), "--pairing", str(GOLDEN / "jmgs_pairing.json")],
    ],
    ids=["ifunction", "jfunction X", "jfunction Y", "split-check", "jmgs"],
)
@pytest.mark.parametrize("rmax", ["0", "-3"])
def test_cli_rmax_below_one_exits_2(capsys, argv, rmax):
    for json_flag in ([], ["--json"]):
        assert main(argv + ["--rmax", rmax] + json_flag) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "domain error: --rmax must be at least 1\n")


@pytest.mark.parametrize(
    "entries", [[], [{"genus": 0, "degree": [1], "value": "1"}]], ids=["no cell", "one cell"]
)
def test_cli_jmgs_negative_qorder_exits_2_on_any_table(tmp_path, capsys, entries):
    gv = tmp_path / "gv.json"
    write_json(gv, {"kind": "GV", "lattice_rank": 1, "genus_max": 0, "degree_max": [1], "entries": entries})
    pairing = tmp_path / "pairing.json"
    write_json(pairing, {"vectors": [[1]]})
    argv = ["jmgs", "--gv", str(gv), "--pairing", str(pairing), "--rmax", "2", "--qorder", "-1"]
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "domain error: expansion order must be nonnegative\n")


def test_cli_deterministic_output():
    cmd = [
        sys.executable,
        "-m",
        "bps_kit",
        "jfunction",
        "--which",
        "Y",
        "--rmax",
        "2",
        "--qorder",
        "5",
        "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bps_kit", "conifold", "--gmax", "1", "--dmax", "2", "--json"],
        capture_output=True,
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["is_delta"] is True


# --- golden outputs -------------------------------------------------------------
#
# Byte-exact CLI output, captured once and committed under tests/golden/.  The
# jmgs input is a rank-2 genus-0 table with mixed signs and a pairing with a
# zero and a negative entry, so some divisor slots are exactly zero.  Each case
# runs with --output; what the command prints to stdout besides the --output
# document is pinned by a "<stem>.stdout<suffix>" file, or must be empty.

JMGS_ARGV = [
    "jmgs",
    "--gv", str(GOLDEN / "jmgs_gv.json"),
    "--pairing", str(GOLDEN / "jmgs_pairing.json"),
    "--rmax", "4", "--qorder", "8",
]
# rank 1, degrees 1..3, one fractional value: up to twelve cover degrees r meet
# at one total degree, so the exact parts have many cyclotomic factors
JMGS_RANK1_ARGV = [
    "jmgs",
    "--gv", str(GOLDEN / "jmgs_rank1_gv.json"),
    "--pairing", str(GOLDEN / "jmgs_rank1_pairing.json"),
    "--rmax", "12", "--qorder", "12", "--json",
]
# rank 1: GV_12, GV_6, GV_4 and GV_3 weight the covers r = 1..4 of total degree
# 12 so that both exact parts there lose a factor 1 + q, the one golden case
# where a trial division by Phi_d with d > 1 succeeds
JMGS_PHI2_ARGV = [
    "jmgs",
    "--gv", str(GOLDEN / "jmgs_rank1_phi2_gv.json"),
    "--pairing", str(GOLDEN / "jmgs_rank1_pairing.json"),
    "--rmax", "4", "--qorder", "12", "--json",
]

# (golden file, argv, exit code); a ".txt" golden is the text format of the
# ".json" golden of the same stem
GOLDEN_CASES = [
    ("split_check_rmax6.json", ["split-check", "--rmax", "6", "--json"], 0),
    ("split_check_rmax6.txt", ["split-check", "--rmax", "6"], 0),
    ("jmgs_rmax4_qorder8.json", JMGS_ARGV + ["--json"], 0),
    ("jmgs_rmax4_qorder8.txt", JMGS_ARGV, 0),
    ("jmgs_rank1_rmax12.json", JMGS_RANK1_ARGV, 0),
    ("jmgs_rank1_phi2_rmax4.json", JMGS_PHI2_ARGV, 0),
] + [(f"ab_series_r{r}.json", ["ab-series", "--r", str(r), "--json"], 0) for r in range(1, 5)] + [
    ("ab_series_r2.txt", ["ab-series", "--r", "2"], 0),
]
for stem, argv, code in [
    ("sin_series_k2_g2_o6", ["sin-series", "--k", "2", "--genus", "2", "--order", "6"], 0),
    ("sin_series_g0_o4", ["sin-series", "--genus", "0", "--order", "4"], 0),
    ("jfunction_x_rmax2_qorder4", ["jfunction", "--which", "X", "--rmax", "2", "--qorder", "4"], 0),
    ("jfunction_y_rmax2_qorder4", ["jfunction", "--which", "Y", "--rmax", "2", "--qorder", "4"], 0),
    ("ifunction_rmax2", ["ifunction", "--rmax", "2"], 0),
    ("conifold_g2_d4", ["conifold", "--gmax", "2", "--dmax", "4"], 0),
    ("gw2gv_quintic_integrality", ["gw2gv", str(quintic_path()), "--check-integrality"], 0),
    ("gv2gw_genus1", ["gv2gw", str(GOLDEN / "integrality_pass_gv.json")], 0),
    ("check_integrality_pass", ["check-integrality", str(GOLDEN / "integrality_pass_gv.json")], 0),
    ("check_integrality_fail", ["check-integrality", str(GOLDEN / "integrality_fail_gv.json")], 3),
]:
    GOLDEN_CASES += [(f"{stem}.json", argv + ["--json"], code), (f"{stem}.txt", argv, code)]


@pytest.mark.parametrize("golden, argv, code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_cli_golden_json(tmp_path, capsys, golden, argv, code):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    stem, suffix = golden.rsplit(".", 1)
    stdout = GOLDEN / f"{stem}.stdout.{suffix}"
    expected = stdout.read_bytes() if stdout.exists() else b""
    assert capsys.readouterr().out.encode("utf-8") == expected


# Every q-rational object on these commands is built from integer numerators
# with trial division: the package has no polynomial gcd, and the oracles'
# gcd reduction finds each object they build canonical already.
QRATIONAL_CASES = [
    case
    for case in GOLDEN_CASES
    if case[1][0] in ("ab-series", "ifunction", "jfunction", "split-check", "jmgs")
]


@pytest.mark.parametrize("golden, argv, code", QRATIONAL_CASES, ids=[c[0] for c in QRATIONAL_CASES])
def test_q_rational_commands_run_no_polynomial_gcd(monkeypatch, tmp_path, golden, argv, code):
    built = record_rational_functions(monkeypatch)
    jfunctions._rank6_factors.cache_clear()  # its build runs under the patch too
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    assert_built_canonical(built)


def record_rational_functions(monkeypatch) -> list:
    """The list that each QRationalFunction the library builds is appended to."""
    assert not [m for m in (series, jfunctions) if hasattr(m, "_int_gcd")]
    built = []
    trusted = QRationalFunction._from_canonical.__func__

    def recorded(cls, num, den):
        built.append(trusted(cls, num, den))
        return built[-1]

    monkeypatch.setattr(QRationalFunction, "_from_canonical", classmethod(recorded))
    return built


def assert_built_canonical(built):
    # jmgs --json builds none: it writes the integer parts directly
    for f in built:
        reduced = QRF(f.num, f.den)
        assert (f.num, f.den) == (reduced.num, reduced.den)


# jmgs --json is written from the integer parts of jmgs_rhs: no rational
# function or series is built on the way to the text, and no term is read
# (reading ``terms`` builds every term).
JMGS_JSON_CASES = [case for case in GOLDEN_CASES if case[1][0] == "jmgs" and "--json" in case[1]]


@pytest.mark.parametrize("golden, argv, code", JMGS_JSON_CASES, ids=[c[0] for c in JMGS_JSON_CASES])
def test_jmgs_json_builds_no_rational_function_or_series(monkeypatch, tmp_path, golden, argv, code):
    def fail(*args, **kwargs):
        raise AssertionError("a rational function, a series or a term on the jmgs --json path")

    monkeypatch.setattr(QRationalFunction, "_from_canonical", fail)
    monkeypatch.setattr(LaurentSeries, "_from_fractions", fail)
    monkeypatch.setattr(jfunctions, "_cover_objects", fail)
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# The table commands read, transform, check and write integer genus layers:
# none of them builds the Fraction view ``entries`` of a table.
LAYER_CASES = [
    case
    for case in GOLDEN_CASES
    if case[1][0] in ("gv2gw", "gw2gv", "conifold", "check-integrality") and "--json" in case[1]
]


@pytest.mark.parametrize("golden, argv, code", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
def test_table_commands_build_no_entries_view(monkeypatch, tmp_path, capsys, golden, argv, code):
    def fail(self):
        raise AssertionError("the entries view was built on a table command")

    monkeypatch.setattr(InvariantTable, "entries", property(fail))
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    stdout = GOLDEN / golden.replace(".json", ".stdout.json")
    expected = stdout.read_bytes() if stdout.exists() else b""
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("shift", [1, -1])
def test_failing_split_check_runs_no_polynomial_gcd(monkeypatch, capsys, shift):
    # off-by-one nilpotent weights make every residual nonzero; each one is
    # made canonical by trial division, not by a gcd
    built = record_rational_functions(monkeypatch)
    monkeypatch.setattr(
        jfunctions,
        "_nilpotent_weights",
        lambda r, count: [math.comb(2 * r + k - 1 + shift, k) for k in range(count)],
    )
    jfunctions._rank6_factors.cache_clear()
    assert main(["split-check", "--rmax", "6", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert [res["passed"] for res in doc] == [False] * 6
    assert len(built) >= 6 * 6  # every residual, and the builders' coordinates
    assert_built_canonical(built)


def test_main_builds_the_parser_once(capsys):
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["sin-series", "--genus", "0", "--order", "2"]) == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize(
    "argv",
    [[], ["--bogus"], ["-h"], ["jmgs"], ["split-check", "--rmax", "x"], ["jmgs", "-h"]],
)
def test_reused_parser_prints_what_a_fresh_parser_prints(capsys, argv):
    runs = []
    for _ in range(2):  # the second main call reuses the parser of the first
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            runs.append((exc.value.code, capsys.readouterr()))
    assert runs[0][1].out or runs[0][1].err
    assert runs == [runs[0]] * 4


def test_log_env_var(monkeypatch, capsys):
    monkeypatch.setenv("BPS_KIT_LOG", "DEBUG")
    assert main(["gw2gv", str(quintic_path())]) == 0
    assert '"kind": "GV"' in capsys.readouterr().out
