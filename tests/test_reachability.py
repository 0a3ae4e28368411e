"""Every function in src/bps_kit runs on a CLI or script path, or is kept for a stated reason.

A fresh interpreter imports the package, runs every golden CLI case of
test_cli and scripts/run_all_checks.py under ``sys.setprofile``, and
reports each
code object it entered by file and first line.  Each ``def`` in the
package is matched to its code object the same way (a decorated def's
code starts at its first decorator).  A def never entered must be on
KEEP with its reason; a def on KEEP that does run must leave it.

Run this file as a script to print the names of the entered defs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bps_kit"

_PROTOCOL = "protocol method: Python calls it for ==, hash(), repr(), str() or bool()"
_ORACLE_OPERATOR = "operator that the tests' oracles build their independent values with"
_ACCESSOR = "public accessor or constructor that tests call; no CLI path needs it"

KEEP = {
    "kring.KElem.__repr__": _PROTOCOL,
    "kring.KElem.__str__": _PROTOCOL,
    "kring.RingSpec.__repr__": _PROTOCOL,
    "series.LaurentSeries.__repr__": _PROTOCOL,
    "series.QRationalFunction.__bool__": _PROTOCOL,
    "series.QRationalFunction.__hash__": _PROTOCOL,
    "series.QRationalFunction.__repr__": _PROTOCOL,
    "transform.InvariantTable.__repr__": _PROTOCOL,
    "kring.KElem.__rsub__": _ORACLE_OPERATOR,
    "kring.scalar": _ORACLE_OPERATOR + " (a scalar operand of KElem + and -)",
    "transform.InvariantTable.value": _ACCESSOR + " (the table's basic cell read)",
    "transform.degree_vectors": _ACCESSOR,
}


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.Class.name" for every def in the package."""
    out: dict[tuple[str, int], str] = {}

    def visit(node, path: str, qual: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list], default=child.lineno)
                out[(path, first)] = f"{qual}.{child.name}"
                visit(child, path, f"{qual}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{qual}.{child.name}")
            else:
                visit(child, path, qual)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return out


def _entered() -> set[tuple[str, int]]:
    """(file, first line) of each code object entered by the package import and the runs."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    import bps_kit.cli  # the import runs code too, such as building the quotient rings

    sys.setprofile(None)
    # imported untraced: building the case list is not a CLI or script path
    from test_cli import GOLDEN_CASES

    cases = [argv for _, argv, _ in GOLDEN_CASES]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [bps_kit.cli.main(argv + ["--output", os.path.join(tmp, "out")]) for argv in cases]
            try:
                runpy.run_path(str(ROOT / "scripts" / "run_all_checks.py"), run_name="__main__")
            except SystemExit as exc:
                codes.append(exc.code)
        finally:
            sys.setprofile(None)
    # 3 is check-integrality on its failing golden table
    assert set(codes) <= {0, 3} and codes[-1] == 0, codes
    return {(str(Path(f).resolve()), line) for f, line in entered}


def test_every_library_function_is_reached_or_kept():
    defs = _defs()
    names = set(defs.values())
    assert len(names) == len(defs), "two defs share a name"
    assert sorted(set(KEEP) - names) == [], "KEEP names a def that is gone"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    reached = set(json.loads(proc.stdout))
    assert sorted(names - reached - set(KEEP)) == [], "never entered, and not on KEEP"
    assert sorted(set(KEEP) & reached) == [], "entered, so no longer kept for a reason"


if __name__ == "__main__":
    defs = _defs()
    print(json.dumps(sorted({defs[key] for key in _entered() if key in defs})))
