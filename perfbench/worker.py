"""One workload process: import bps_kit, warm up, then run ops in process.

Started by run.py, never by hand.  The process runs no threads.  It
prints ``ready`` once ``import bps_kit`` and the untimed warm-up op are
done, so its parent can time set-up from process start.  Then, by
``--mode``:

* ``setup``: time the reference computation SETUP_REFERENCES times, so
  that set-up can be read against the machine's speed just after it;
* ``run``: run ops back to back (closed loop, one client) until
  ``--seconds`` have passed, timing each op from its first CLI call to
  its last return, with the reference computation timed before each op
  and after the last;
* ``trace``: run each of ``--ops`` ops untraced and then under the
  tracer, and report per-layer numbers.  In this mode the warm-up op
  runs under a tracer of its own, whose cache-filling numbers are
  reported as ``*.warmup_*``.

Results go to ``result.json`` in ``--workdir``; outputs are checked by
the parent after this process has ended, so check time is never op time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402


def call_cli(cli, argv: list[str]) -> dict:
    """One in-process CLI call; an exception counts as a failed call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"raised {exc!r}"
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# Operands of the reference computation: fixed, and independent of bps_kit.
_REF_A = tuple(Fraction(i + 1, 2 * i + 3) for i in range(24))
_REF_B = tuple(Fraction(3 * i - 7, i + 5) for i in range(24))


SETUP_REFERENCES = 2


def reference_seconds() -> float:
    """Wall time of a fixed exact-arithmetic computation that uses no bps_kit.

    It runs between ops, so each op's time can also be read in units of
    what the machine could do at that moment: on a shared host the speed
    of one core drifts by up to 2x within seconds and between minutes.
    """
    t0 = perf_counter()
    for _ in range(24):
        out = [Fraction(0)] * (len(_REF_A) + len(_REF_B) - 1)
        for i, x in enumerate(_REF_A):
            for j, y in enumerate(_REF_B):
                out[i + j] += x * y
    return perf_counter() - t0


def run_op(cli, args, index: int, tag: str, tracer=None) -> dict:
    calls = wl.prepare_op(args.workload, args.seed, index, args.workdir, tag)
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        records = [call_cli(cli, argv) for argv in calls]
        seconds = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"index": index, "tag": tag, "seconds": seconds, "calls": records}


def bytes_out(op: dict) -> int:
    total = 0
    for record in op["calls"]:
        total += len(record["stdout"].encode())
        path = wl.output_path(record["argv"])
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--ops", type=int, default=1)
    args = parser.parse_args(argv)

    import bps_kit.cli as cli  # importing bps_kit builds the ring tables

    warm = None
    if args.mode == "trace":
        from tracer import WARMUP, Tracer, warmup_name

        warm = Tracer()
    run_op(cli, args, wl.WARMUP_INDEX, "w", warm)
    print("ready", flush=True)

    result: dict = {}
    if args.mode == "setup":
        ops = []
        result["reference_s"] = [reference_seconds() for _ in range(SETUP_REFERENCES)]
    elif args.mode == "run":
        ops, refs = [], []
        deadline = perf_counter() + args.seconds
        index = 0
        while True:
            refs.append(reference_seconds())
            ops.append(run_op(cli, args, index, "u"))
            index += 1
            if perf_counter() >= deadline:
                break
        refs.append(reference_seconds())
        result["reference_s"] = refs
    else:
        # each op runs untraced and then traced, so drift in machine speed
        # during the run shifts both sides alike
        ops = []
        tracer = Tracer()
        for i in range(args.ops):
            ops.append(run_op(cli, args, i, "u"))
            ops.append(run_op(cli, args, i, "t", tracer))
            tracer.end_op()
        traced = [op for op in ops if op["tag"] == "t"]
        untraced = [op for op in ops if op["tag"] == "u"]
        layers = tracer.layer_metrics(args.ops)
        layers["serialize.bytes_out"] = sum(bytes_out(op) for op in traced) / args.ops
        layers["trace.overhead_s"] = (
            sum(op["seconds"] for op in traced) - sum(op["seconds"] for op in untraced)
        ) / args.ops
        cold = warm.layer_metrics(1)
        layers.update((warmup_name(name), cold[name]) for name in WARMUP)
        result["layers"] = layers
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
