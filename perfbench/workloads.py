"""Workload definitions: CLI calls, seeded inputs, and output checks.

Each workload is a fixed list of ``grouptotient`` CLI invocations run in
one fresh interpreter.  Every report is checked twice: field by field
against the closed forms in ``oracles.py`` or published lattice sizes,
and byte for byte against the SHA-256 digest in ``expected.json``.

An item is one scanned group, one summary or one suite; it fails when
its output is wrong, when its call raised, or when a scan skipped it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracles

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool  # whether --seed changes the inputs
    calls: tuple[tuple[str, ...], ...]  # CLI argv; "{catalogue}" is the generated directory
    jobs_check: bool = False  # also run once, untimed, with --jobs 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "abelian_lattices",
            "many subgroups per group: abelian scan to order 64 plus the rank-7 "
            "elementary abelian group; lattice enumeration dominates",
            False,
            (
                ("scan", "--family", "abelian", "--scan-max-order", "64"),
                ("summarize", "--spec", "abelian:2,2,2,2,2,2,2"),
            ),
            jobs_check=True,
        ),
        Workload(
            "nonabelian_catalogue",
            "ingested .gens/.cayley files: parsing, permutation closure, table "
            "validation and the non-abelian join path",
            True,
            (("scan", "--catalogue", "{catalogue}"),),
        ),
        Workload(
            "theorem_suites",
            "structure queries on existing lattices: maximal, Frattini, "
            "complements, Sylow, decompositions, and summary-cache reuse",
            False,
            (
                ("suite", "thm4"),
                ("suite", "thm5"),
                ("suite", "thm7"),
                ("suite", "remark_d2n"),
                ("suite", "thm8"),
                ("suite", "cor2"),
                ("suite", "prop1"),
                ("suite", "example_pq"),
                ("suite", "closing_equality"),
            ),
        ),
    )
}


def call_key(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# seeded catalogue inputs

def _cycle(degree: int, points) -> list[int]:
    perm = list(range(degree))
    for i, a in enumerate(points):
        perm[a] = points[(i + 1) % len(points)]
    return perm


def _psl2_7() -> list[list[int]]:
    """PSL(2,7) on the projective line over F_7 (point 7 is infinity):
    x -> x + 1 and x -> -1/x."""
    t = [(x + 1) % 7 for x in range(7)] + [7]
    s = [7] + [(-pow(x, 5, 7)) % 7 for x in range(1, 7)] + [0]
    return [t, s]


# id -> (degree, generators); the generated group must have the recorded order
PERMUTATION_GROUPS = {
    "a5": (5, [_cycle(5, [0, 1, 2, 3, 4]), _cycle(5, [0, 1, 2])]),
    "a6": (6, [_cycle(6, [0, 1, 2]), _cycle(6, [1, 2, 3, 4, 5])]),
    "psl2_7": (8, _psl2_7()),
    "s5": (5, [_cycle(5, [0, 1, 2, 3, 4]), _cycle(5, [0, 1])]),
}
CAYLEY_GROUPS = {
    "d15xc4": "product:(dihedral:15)x(cyclic:4)",
    "sdp31_5": "sdp:31,5,2",
}
# id -> fields every catalogue row must have; subgroup counts are the
# published lattice sizes (A5: 59, A6: 501, PSL(2,7): 179, S5: 156) and, for the
# Frobenius group of order 31*5, q + 3 with S = pq
CATALOGUE_EXPECTED = {
    "a5": {"order": 60, "subgroup_count": 59, "nilpotent": False, "cyclic": False},
    "a6": {"order": 360, "subgroup_count": 501, "nilpotent": False, "cyclic": False},
    "d15xc4": {"order": 120, "nilpotent": False, "cyclic": False},
    "psl2_7": {"order": 168, "subgroup_count": 179, "nilpotent": False, "cyclic": False},
    "s5": {"order": 120, "subgroup_count": 156, "nilpotent": False, "cyclic": False},
    "sdp31_5": {"order": 155, "subgroup_count": 34, "s_value": 155, "in_class_c": True,
                "nilpotent": False, "cyclic": False},
}


def write_catalogue(seed: int, directory: Path) -> None:
    """Write the catalogue files, relabelled by `seed`.

    Cayley tables get a random relabelling of the non-identity elements,
    which changes the enumeration order.  Permutation groups get a random
    relabelling of the points; breadth-first closure numbers elements by
    generator words, so their tables do not change.  Every report field
    is an isomorphism invariant, so the checks hold for every seed.
    """
    import numpy as np

    from grouptotient import construct

    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for ident, (degree, gens) in PERMUTATION_GROUPS.items():
        sigma = list(range(degree))
        rng.shuffle(sigma)
        relabelled = []
        for g in gens:
            h = [0] * degree
            for i in range(degree):
                h[sigma[i]] = sigma[g[i]]
            relabelled.append(h)
        lines = [str(degree)] + [" ".join(map(str, g)) for g in relabelled]
        (directory / f"{ident}.gens").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for ident, spec in CAYLEY_GROUPS.items():
        table = construct(spec).table.astype(np.int64)
        n = len(table)
        rest = list(range(1, n))
        rng.shuffle(rest)
        pi = np.array([0] + rest, dtype=np.int64)
        new = np.empty_like(table)
        new[pi[:, None], pi[None, :]] = pi[table]
        lines = [str(n)] + [" ".join(map(str, row)) for row in new.tolist()]
        (directory / f"{ident}.cayley").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks

def _spec_expected(spec: str) -> dict:
    family, _, params = spec.partition(":")
    if family != "abelian":
        raise ValueError(f"no oracle for {spec}")
    return oracles.abelian_expected(tuple(int(x) for x in params.split(",")))


def _mismatches(row: dict, expected: dict) -> list[str]:
    return [
        f"{key}={row.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if row.get(key) != value
    ]


def check_call(argv, exit_code: int, text: str) -> list[tuple[str, list[str]]]:
    """Check one CLI call's report; returns (item id, problems) per item."""
    key = call_key(argv)
    record = EXPECTED["reports"][key]
    report = json.loads(text)
    command = argv[0]
    items: list[tuple[str, list[str]]] = []
    if command == "scan":
        for row in report["rows"]:
            if argv[1] == "--family":
                expected = _spec_expected(row["id"])
            else:
                expected = CATALOGUE_EXPECTED.get(row["id"], {"missing": "catalogue entry"})
            problems = _mismatches(row, expected)
            if row["s_value"] < row["order"]:
                problems.append("S < |G|")
            items.append((row["id"], problems))
        for skip in report["skipped"]:
            items.append((skip["id"], [f"skipped: {skip['reason']}"]))
        if len(items) != record["items"]:
            items.append((key, [f"{len(items)} items, expected {record['items']}"]))
    elif command == "summarize":
        spec = argv[argv.index("--spec") + 1]
        expected = _spec_expected(spec)
        row = dict(report, order=report["group_order"])
        problems = _mismatches(row, expected)
        if report["cyclic_sum"] != expected["order"]:
            problems.append(f"cyclic_sum={report['cyclic_sum']}, expected the order")
        items.append((spec, problems))
    else:
        problems = []
        if not report["all_pass"]:
            failed = [case["case_id"] for case in report["cases"] if not case["pass"]]
            problems.append(f"failing cases {failed[:5]}")
        if len(report["cases"]) != record["cases"]:
            problems.append(f"{len(report['cases'])} cases, expected {record['cases']}")
        items.append((key, problems))
    if exit_code != 0:
        items = [(ident, problems + [f"exit code {exit_code}"]) for ident, problems in items]
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != record["sha256"]:
        note = f"report sha256 {digest}, recorded {record['sha256']}"
        items = [(ident, problems + [note]) for ident, problems in items]
    return items
