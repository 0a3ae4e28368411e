#!/usr/bin/env python3
"""bps-kit benchmark: time to a verified result on three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {split,jmgs,tables} --seed N \
        --seconds S --trace {0,1}

Each workload runs in its own process (perfbench/worker.py) that calls
``bps_kit.cli.main(argv)`` in process, one op at a time, with no threads:
a closed loop with a single client.  Before it, SETUP_SAMPLES processes
of the same workload only set up, to sample set-up time.  bps_kit is
imported from ``src/`` of the checkout; nothing is installed.  Every
op's outputs are checked here, after the workload process has ended,
against values computed independently of bps_kit (perfbench/checks.py).

``--trace 0`` prints the end-to-end metrics.  Op times are read in units
of a fixed reference computation (worker.reference_seconds, pure
``fractions`` code, no bps_kit) timed next to each op: the op's cost is
its wall time over the mean of the reference times just before and just
after it.  On a shared host one core's speed drifts by up to 2x within
seconds and between minutes, which moves raw op seconds from run to run
by more than any useful bound; the ratio cancels most of that drift.
Raw op seconds go to stderr.

* op_p50_ref    median op cost, in reference units;
* op_tail_ref   the highest percentile of op cost with at least ten ops
                beyond it (the op count is ``attempted``; the percentile
                goes to stderr);
* work_per_ref  work units per reference unit of op cost
                (see workloads.work_per_op);
* setup_s       median, over SETUP_SAMPLES workload processes, of the
                time from process start through ``import bps_kit`` and
                one untimed warm-up op, which fills the library's caches.
                Like op times it is read against the reference, which
                each of these processes times right after its set-up, and
                it is given in seconds of a nominal machine on which the
                reference takes REFERENCE_NOMINAL_S (raw seconds go to
                stderr);
* peak_rss_mb   peak resident memory of the process that runs the ops.

``--trace 1`` runs a fixed number of ops (TRACE_OPS, so that counts
repeat exactly; ``--seconds`` is not used), each once untraced and once
traced (perfbench/tracer.py), and prints per-layer numbers per op.  The
reported self times (``*.self_s``, ``cli.self_s`` included) must add up
to ``cli.main.total_s`` up to the tracer's own bookkeeping, which may take
at most UNATTRIBUTED_MAX of it.
Failed ops are reported as ``failed`` out of ``attempted``.

The last line of stdout is one JSON object.  Exit status is 0 when a
result was printed, 1 when a workload process failed or overran the time
budget, and 2 when the checkout has no bps_kit sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from checks import CallRecord, Checker  # noqa: E402

SETUP_SAMPLES = 8
REFERENCE_NOMINAL_S = 0.04
UNATTRIBUTED_MAX = 0.1
TRACE_OPS = {"split": 2, "jmgs": 2, "tables": 6}
# The whole run, set-up and checks included, must end within this budget.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("op_p50_ref", "ref"), ("op_tail_ref", "ref"), ("work_per_ref", "work/ref"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("bits"):
        return "bits"
    if name.endswith("degree"):
        return "degree"
    return "count"


class WorkerProcess:
    """A workload process, timed from start until it prints ``ready``."""

    def __init__(self, args, workdir: Path, mode: str, deadline: float, **extra):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir), "--mode", mode,
        ]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            self.setup_s = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> float:
        ready, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        line = self.proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - self.started
        if line.strip() != "ready":
            raise BenchError("workload process did not finish set-up")
        return elapsed

    def _remaining(self) -> float:
        return max(self.deadline - time.monotonic(), 0.0)

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError("workload process ran past the time budget") from exc
        finally:
            self.stop()
        if code != 0:
            raise BenchError(f"workload process exited with {code}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_worker(args, workdir: Path, mode: str, deadline: float, **extra) -> float:
    worker = WorkerProcess(args, workdir, mode, deadline, **extra)
    worker.finish()
    return worker.setup_s


def unattributed_share(layers: dict) -> float:
    """Share of cli.main.total_s that no reported self time accounts for."""
    total = layers["cli.main.total_s"]
    attributed = math.fsum(v for name, v in layers.items() if name.endswith(".self_s"))
    return (total - attributed) / total


def tail_value(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it.

    With ten ops or fewer no percentile qualifies, and the maximum stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n


def check_ops(args, ops: list[dict]) -> tuple[int, list[str]]:
    """Check every op; traced ops must also match their untraced twin byte for byte."""
    checker = Checker(args.workload, args.seed)
    untraced: dict[int, list[CallRecord]] = {}
    failed, reasons = 0, []
    for op in ops:
        records = []
        for call in op["calls"]:
            path = wl.output_path(call["argv"])
            output = Path(path).read_bytes() if os.path.exists(path) else None
            records.append(CallRecord(call["argv"], call["code"], call["stdout"], output))
        reason = checker.check(op["index"], records)
        if reason is None and op["tag"] == "t":
            twin = untraced.get(op["index"])
            if twin is None or [(r.stdout, r.output) for r in twin] != [
                (r.stdout, r.output) for r in records
            ]:
                reason = "traced output differs from the untraced output"
        if op["tag"] == "u":
            untraced[op["index"]] = records
        if reason is not None:
            failed += 1
            reasons.append(f"op {op['tag']}{op['index']}: {reason}")
    return failed, reasons


def read_result(workdir: Path) -> dict:
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def report_checks(args, ops: list[dict]) -> int:
    failed, reasons = check_ops(args, ops)
    for reason in reasons[:10]:
        print(reason, file=sys.stderr)
    return failed


def measure_trace(args, workdir: Path, deadline: float) -> dict:
    run_worker(args, workdir, "trace", deadline, ops=TRACE_OPS[args.workload])
    result = read_result(workdir)
    failed = report_checks(args, result["ops"])
    layers = result["layers"]
    share = unattributed_share(layers)
    print(f"{args.workload}: {share:.4f} of cli.main.total_s is in no self time", file=sys.stderr)
    partitioned = -1e-9 <= share <= UNATTRIBUTED_MAX
    if not partitioned:
        print("reported self times do not partition the traced op time", file=sys.stderr)
    metrics = {name: {"value": value, "unit": layer_units(name)} for name, value in layers.items()}
    return {
        "correct": failed == 0 and partitioned, "attempted": len(result["ops"]),
        "failed": failed, "metrics": metrics,
    }


def measure(args, workdir: Path, deadline: float) -> dict:
    setups, setup_costs = [], []
    for _ in range(SETUP_SAMPLES):
        setups.append(run_worker(args, workdir, "setup", deadline))
        setup_costs.append(setups[-1] / statistics.median(read_result(workdir)["reference_s"]))
    run_worker(args, workdir, "run", deadline, seconds=args.seconds)
    result = read_result(workdir)
    ops, refs = result["ops"], result["reference_s"]
    costs = [op["seconds"] / ((refs[i] + refs[i + 1]) / 2) for i, op in enumerate(ops)]
    failed = report_checks(args, ops)
    times = [op["seconds"] for op in ops]
    tail, pct = tail_value(costs)
    print(
        f"{args.workload}: {len(times)} ops, op_tail_ref is p{pct:.1f}; raw op seconds "
        f"p50 {statistics.median(times):.4f}, p{pct:.1f} {tail_value(times)[0]:.4f}; "
        f"reference p50 {statistics.median(refs):.5f}; raw setup seconds "
        + " ".join(f"{t:.3f}" for t in setups),
        file=sys.stderr,
    )
    values = {
        "op_p50_ref": statistics.median(costs),
        "op_tail_ref": tail,
        "work_per_ref": wl.work_per_op(args.workload) * len(costs) / math.fsum(costs),
        "setup_s": statistics.median(setup_costs) * REFERENCE_NOMINAL_S,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "bps_kit" / "cli.py").is_file():
        print(f"no bps_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = (measure_trace if args.trace else measure)(args, workdir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
