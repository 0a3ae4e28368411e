"""The standalone reproduction script runs clean from a source checkout."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from bps_kit import jfunctions

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_all_checks.py"

# Every check the script reports, in order: a check that is dropped or
# renamed fails here, not silently.
LABELS = [
    "instanton numbers 2875, 609250, ...",
    "forward map inverts exactly",
    "output is integral",
    "closed forms collapse to a lone 1 at (0,1) for g<=20, d<=80",
    "transform and closed-form outputs pass the table constructor unchanged",
    "each reads back equal from the table document dumps writes",
    "(1-P)^2 and (1-Pt)^2 (1-t) vanish in Y, (1-P)^2 in X",
    "(1-Pt)^4 = 0 while (1-Pt)^3 != 0",
    "(1-Pt)^2 absorbs t in (1 - P q^m t) for m <= 10",
    "inverse sine-square starts 1, 1/12, 1/240",
    *[f"degree r = {r}" for r in range(1, 201)],
    "matches the rank-2 J-coefficients for r <= 6",
    "its JSON document, written from integers, reads back as its terms",
    "a table, a right-hand side, a ring element and a split result unpickle equal",
]


def test_run_all_checks_script_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout
    reported = [line.strip() for line in proc.stdout.splitlines() if line.strip().startswith("[")]
    assert reported == [f"[ok] {label}" for label in LABELS]


def test_run_all_checks_script_fails_on_a_wrong_rank2_j_coefficient(monkeypatch, capsys):
    # the rank-2 constants of J, perturbed in its builder: only the script's
    # own cross-check against the cover data can notice
    monkeypatch.setattr(jfunctions, "_X_CONSTANTS", ((2, 1), (-1, -2)))
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert "  [FAIL] matches the rank-2 J-coefficients for r <= 6" in out.splitlines()
    assert out.count("[FAIL]") == 1
