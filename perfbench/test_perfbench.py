"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads as wl
import worker

HERE = Path(__file__).resolve().parent
SEED = 7


def _real_op(workload: str, index: int, workdir: Path, tag: str = "u") -> dict:
    import bps_kit.cli as cli

    args = argparse.Namespace(workload=workload, seed=SEED, workdir=str(workdir))
    return worker.run_op(cli, args, index, tag)


def _failures(workload: str, ops: list[dict]) -> int:
    args = argparse.Namespace(workload=workload, seed=SEED)
    failed, _ = run.check_ops(args, ops)
    return failed


def _rewrite(op: dict, call: int, edit) -> None:
    path = Path(wl.output_path(op["calls"][call]["argv"]))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def test_split_checker_counts_perturbed_outputs(tmp_path):
    ops = [_real_op("split", i, tmp_path) for i in range(2)]
    assert _failures("split", ops) == 0

    def nonzero_residual(doc):
        doc[3]["residuals"][2]["numerator"] = ["1"]

    _rewrite(ops[1], 0, nonzero_residual)
    assert _failures("split", ops) == 1
    _rewrite(ops[0], 0, nonzero_residual)
    assert _failures("split", ops) == 2  # with no good first op, each op is checked in full


def test_jmgs_checker_counts_perturbed_outputs(tmp_path):
    op = _real_op("jmgs", 0, tmp_path)
    assert _failures("jmgs", [op]) == 0
    path = Path(wl.output_path(op["calls"][0]["argv"]))
    good = path.read_text()

    def bump_numerator(doc):
        num = doc["terms"][5]["structure"]["numerator"]
        num[-1] = str(int(num[-1]) + 1)

    def bump_series(doc):
        coeffs = doc["terms"][0]["divisor_expansion"][1]["coefficients"]
        coeffs[-1] = str(int(coeffs[-1]) + 1)

    def drop_term(doc):
        doc["terms"].pop()

    for edit in (bump_numerator, bump_series, drop_term):
        path.write_text(good)
        _rewrite(op, 0, edit)
        assert _failures("jmgs", [op]) == 1, edit.__name__


def test_tables_checker_counts_perturbed_outputs(tmp_path):
    op = _real_op("tables", 0, tmp_path)
    assert _failures("tables", [op]) == 0
    saved = {k: Path(wl.output_path(c["argv"])).read_text() for k, c in enumerate(op["calls"])}

    def bump(doc, genus):
        entry = next(e for e in doc["entries"] if e["genus"] == genus)
        entry["value"] = str(Fraction(entry["value"]) + 1)

    def extra_conifold_cell(doc):
        doc["gv"]["entries"].append({"genus": 1, "degree": [2], "value": "1"})

    edits = [
        (0, lambda doc: bump(doc, 0)),  # forward transform, genus 0
        (0, lambda doc: bump(doc, 1)),  # forward transform, genus 1
        (1, lambda doc: bump(doc, 3)),  # inverse transform no longer returns the input
        (2, extra_conifold_cell),
    ]

    def restore():
        for k, text in saved.items():
            Path(wl.output_path(op["calls"][k]["argv"])).write_text(text)

    for call, edit in edits:
        restore()
        _rewrite(op, call, edit)
        assert _failures("tables", [op]) == 1
    restore()
    op["calls"][1]["stdout"] = json.dumps({"is_integral": False, "violations": []})
    assert _failures("tables", [op]) == 1


def test_nonzero_exit_counts_as_failure(tmp_path):
    op = _real_op("tables", 0, tmp_path)
    op["calls"][2]["code"] = 3
    assert _failures("tables", [op]) == 1


def test_traced_output_must_match_untraced(tmp_path):
    untraced = _real_op("tables", 0, tmp_path, "u")
    traced = _real_op("tables", 0, tmp_path, "t")
    assert _failures("tables", [untraced, traced]) == 0
    traced["calls"][1]["stdout"] += " "
    assert _failures("tables", [untraced, traced]) == 1


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    return report["metrics"]


def _counts(metrics: dict) -> dict:
    return {
        name: m["value"] for name, m in metrics.items()
        if name.endswith(("calls", "_frac", "bytes_out")) or ".peak_" in name
    }


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert _counts(first) == _counts(second)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first) == {m["name"] for m in declared}
    assert all(m["value"] >= 0 for name, m in first.items() if name != "trace.overhead_s")
    assert 0 <= run.unattributed_share({k: m["value"] for k, m in first.items()}) <= run.UNATTRIBUTED_MAX
    if workload == "tables":
        # the warm-up op fills the lambda-coefficient cache; later ops never refill it
        assert first["transform.sin_power_series.warmup_calls"]["value"] > 0
        assert first["transform.sin_power_series.calls"]["value"] == 0


def test_unattributed_share_sees_a_missing_self_time():
    layers = {"cli.main.total_s": 2.0, "cli.self_s": 0.5, "series.qrf_new.self_s": 1.4}
    assert run.unattributed_share(layers) == pytest.approx(0.05)
    del layers["series.qrf_new.self_s"]
    assert run.unattributed_share(layers) > run.UNATTRIBUTED_MAX


def test_gv_magnitudes_follow_the_quintic_growth():
    assert wl.gv_magnitude(1) == wl.QUINTIC_GV[0]
    assert wl.gv_magnitude(4) == wl.QUINTIC_GV[-1]
    sizes = [wl.gv_magnitude(t) for t in range(1, 33)]
    assert sizes == sorted(sizes) and sizes[-1].bit_length() == 284
    for (_, d), value in wl.gv_table(SEED, "tables", 0).items():
        top = wl.gv_magnitude(sum(d))
        assert top // 10 < abs(value) <= top


def test_tail_value_keeps_ten_ops_beyond():
    times = [float(i) for i in range(1, 101)]
    assert run.tail_value(times) == (90.0, 90.0)
    assert run.tail_value(times[:5]) == (5.0, 100.0)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
