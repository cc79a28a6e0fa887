"""Seeded benchmark inputs, the worked fixtures, and table-row digests.

Every random input is one member of a fixed universe: instance i of size
(d, n) is a CP^n projection drawn from an RNG keyed by (d, n, i), so its
reference digest can be stored once in reference.json.  A workload seed
only chooses which instances a run uses and in what order.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Instances per (d, n) in the universe.  A run that needs more wraps
# around and reports the reuse, because a repeated X-ray finds its facet
# polytopes already in the program's global cache.
UNIVERSE = 120


def projection_rows(d: int, n: int, i: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the d x (n+1) projection for instance i of size (d, n).

    Entries are integers 0..40 over denominators 1..5; draws repeat until
    the columns are distinct and the rows have full rank.
    """
    from xraycross.ratmath import rank

    rng = random.Random(f"xraycross-bench/{d}/{n}/{i}")
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(0, 40), rng.randint(1, 5)) for _ in range(n + 1))
            for _ in range(d)
        )
        if len(set(zip(*rows))) == n + 1 and rank(rows) == d:
            return rows


def instance_order(tag: str, seed: int, d: int, n: int) -> list[int]:
    """The seed's permutation of the universe of size (d, n)."""
    return random.Random(f"{tag}/{seed}/{d}/{n}").sample(range(UNIVERSE), UNIVERSE)


def fixtures() -> dict:
    """The worked examples of the README, built by the program's generators."""
    from xraycross.generators import (
        ProjectionMatrix,
        cpn_xray,
        standard_cube_xray,
        standard_simplex_xray,
    )

    F = Fraction
    return {
        "cp3": cpn_xray(3, ProjectionMatrix(((0, 1, 2, 3),))),
        "cp4": cpn_xray(4, ProjectionMatrix(((0, 4, 2, F(8, 5), F(12, 5)), (0, 0, 4, F(3, 4), F(19, 10))))),
        "ncp4": cpn_xray(4, ProjectionMatrix(((0, 4, 0, F(3, 2), F(5, 2)), (0, 0, 4, F(5, 2), F(3, 2))))),
        "simplex2": standard_simplex_xray(2),
        "cube2": standard_cube_xray(2),
    }


def fixture_errors(name: str, rows: list[list]) -> list[str]:
    """Compare a fixture's table rows with the values the README states.

    rows are (stratum, subchamber, rep, signature, poincare, euler).
    """
    top_sigs = [r[3] for r in rows if r[0] == "top"]
    if name == "cp3" and top_sigs != [1, 0, 1]:
        return [f"cp3 chamber signatures {top_sigs}, expected [1, 0, 1]"]
    if name == "cp4" and sorted(top_sigs) != [-1, 0, 0, 0, 1, 1, 1]:
        return [f"cp4 signature multiset {sorted(top_sigs)}, expected [-1, 0, 0, 0, 1, 1, 1]"]
    if name == "ncp4":
        diagonal = [r[3] for r in rows if r[0] == "w2-3-4-5"]
        if diagonal != [1, 0, 1]:
            return [f"ncp4 diagonal wall signatures {diagonal}, expected [1, 0, 1]"]
    if name in ("simplex2", "cube2"):
        bad = [r for r in rows if (r[3], r[4], r[5]) != (1, [1], 1)]
        if bad:
            return [f"{name}: {len(bad)} row(s) differ from the Delzant value 1, first {bad[0]}"]
    return []


def table_rows(sig_rows: list[dict], poin_rows: list[dict], euler_rows: list[dict]) -> list[list]:
    """Join three serialize_table outputs into (stratum, subchamber, rep, sig, P, chi) rows."""
    rows = []
    for s, p, e in zip(sig_rows, poin_rows, euler_rows, strict=True):
        key = (s["stratum"], s["subchamber"], s["rep"])
        if (p["stratum"], p["subchamber"], p["rep"]) != key or (e["stratum"], e["subchamber"], e["rep"]) != key:
            raise ValueError(f"tables disagree on row order at {key}")
        rows.append([*key, s["value"], p["value"], e["value"]])
    return rows


def digest(obj) -> str:
    """Short stable hash of JSON-ready data, or of a string as-is."""
    text = obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def size_key(d: int, n: int) -> str:
    return f"{d},{n}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
