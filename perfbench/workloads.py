"""Workload definitions: seeded inputs and the CLI calls that make one op.

Every op is one or more calls of ``bps_kit.cli.main(argv)`` with
``--json --output <file>``.  Inputs are derived from (seed, workload, op
index) alone, so the workload process that runs an op and the parent
process that checks it rebuild the same tables independently.  Only the
generated files reach the program.

This module uses the standard library only; it never imports bps_kit.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("split", "jmgs", "tables")

# split: identical ops, so every op shares all of its work with the first.
SPLIT_RMAX = 10

# jmgs: ROADMAP's baseline shape; a fresh dense genus-0 table per op.
JMGS_DEGREE_MAX = (6, 6)
JMGS_RMAX = 6
JMGS_QORDER = 12
JMGS_PAIRING = ((1, 0), (0, 1))

# tables: a fresh dense integer GV table per op, then the conifold collapse.
TABLES_GENUS_MAX = 4
TABLES_DEGREE_MAX = (16, 16)
CONIFOLD_GMAX = 20
CONIFOLD_DMAX = 80

# Size of generated GV numbers.  The repository's one real table,
# src/bps_kit/data/quintic_gw.json, yields the quintic's genus-0 numbers
# 2875, 609250, 317206375 and 242467530000 in degrees 1..4: about 2.64
# more decimal digits per degree.  A cell of total degree t gets a
# magnitude of up to QUINTIC_GV[0] * (QUINTIC_GV[-1] / QUINTIC_GV[0]) ** ((t - 1) / 3),
# the geometric growth through the first and last of those numbers, so
# 12 bits in degree 1, 109 bits in degree 12 and 284 bits in degree 32.
# The repository has no higher-genus numbers; the quintic's are smaller
# than the genus-0 number of the same degree, so every genus uses the
# genus-0 size as an upper envelope.  Signs are random: GV numbers of
# other geometries and of higher genus take both signs.
QUINTIC_GV = (2875, 609250, 317206375, 242467530000)

# Op index of the untimed warm-up op that ends set-up.
WARMUP_INDEX = -1


def degree_vectors(degree_max):
    """All nonzero rank-2 degree vectors 0 <= d <= degree_max, row by row."""
    return [
        (a, b)
        for a in range(degree_max[0] + 1)
        for b in range(degree_max[1] + 1)
        if a or b
    ]


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def gv_table(seed: int, workload: str, index: int) -> dict:
    """The GV table of one op as {(genus, degree): int}, every cell nonzero.

    |GV| is drawn from the top decade below gv_magnitude(total degree).
    """
    if workload == "jmgs":
        genus_max, degree_max = 0, JMGS_DEGREE_MAX
    elif workload == "tables":
        genus_max, degree_max = TABLES_GENUS_MAX, TABLES_DEGREE_MAX
    else:
        raise ValueError(f"workload {workload!r} has no input table")
    rng = _rng(seed, workload, index)
    cells = {}
    for g in range(genus_max + 1):
        for d in degree_vectors(degree_max):
            top = gv_magnitude(sum(d))
            cells[(g, d)] = rng.choice((-1, 1)) * rng.randint(top // 10 + 1, top)
    return cells


def gv_magnitude(total_degree: int) -> int:
    """Largest |GV| drawn in a total degree, from the quintic growth rate."""
    first, last = QUINTIC_GV[0], QUINTIC_GV[-1]
    steps, span = total_degree - 1, len(QUINTIC_GV) - 1
    # the span-th root, in integers so that inputs never depend on float rounding
    return _iroot(first**span * last**steps // first**steps, span)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1 / k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def table_document(cells: dict, genus_max: int, degree_max) -> dict:
    return {
        "kind": "GV",
        "lattice_rank": 2,
        "genus_max": genus_max,
        "degree_max": list(degree_max),
        "entries": [
            {"genus": g, "degree": list(d), "value": str(v)}
            for (g, d), v in sorted(cells.items())
        ],
    }


def work_per_op(workload: str) -> int:
    """Work units one op completes; the unit differs per workload.

    split: identity coordinates verified (6 per Novikov degree r);
    jmgs: (degree, r) cover terms assembled;
    tables: table cells produced, counted from the declared bounds of the
    two transform outputs and the two conifold tables.
    """
    if workload == "split":
        return 6 * SPLIT_RMAX
    if workload == "jmgs":
        return len(degree_vectors(JMGS_DEGREE_MAX)) * JMGS_RMAX
    if workload == "tables":
        transform_cells = (TABLES_GENUS_MAX + 1) * len(degree_vectors(TABLES_DEGREE_MAX))
        conifold_cells = (CONIFOLD_GMAX + 1) * CONIFOLD_DMAX
        return 2 * transform_cells + 2 * conifold_cells
    raise ValueError(f"unknown workload {workload!r}")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def prepare_op(workload: str, seed: int, index: int, workdir: str, tag: str) -> list[list[str]]:
    """Write the inputs of one op into workdir and return its CLI calls.

    Output files are named from tag and index, so a traced op and its
    untraced twin never share a file.
    """
    if index == WARMUP_INDEX:
        # the warm-up input is the same in every run, so set-up time does
        # not depend on the seed
        seed = 0
    stem = os.path.join(workdir, f"{tag}{index}")
    if workload == "split":
        return [["split-check", "--rmax", str(SPLIT_RMAX), "--json", "--output", stem + "-out.json"]]
    if workload == "jmgs":
        pairing = os.path.join(workdir, "pairing.json")
        if not os.path.exists(pairing):
            _write_json(pairing, {"vectors": [list(v) for v in JMGS_PAIRING]})
        gv = stem + "-gv.json"
        _write_json(gv, table_document(gv_table(seed, workload, index), 0, JMGS_DEGREE_MAX))
        return [[
            "jmgs", "--gv", gv, "--pairing", pairing,
            "--rmax", str(JMGS_RMAX), "--qorder", str(JMGS_QORDER),
            "--json", "--output", stem + "-out.json",
        ]]
    if workload == "tables":
        gv = stem + "-gv.json"
        gw = stem + "-gw.json"
        _write_json(
            gv, table_document(gv_table(seed, workload, index), TABLES_GENUS_MAX, TABLES_DEGREE_MAX)
        )
        return [
            ["gv2gw", gv, "--json", "--output", gw],
            ["gw2gv", gw, "--check-integrality", "--json", "--output", stem + "-back.json"],
            [
                "conifold", "--gmax", str(CONIFOLD_GMAX), "--dmax", str(CONIFOLD_DMAX),
                "--json", "--output", stem + "-conifold.json",
            ],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def output_path(argv: list[str]) -> str:
    return argv[argv.index("--output") + 1]
