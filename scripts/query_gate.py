"""Digest the re-query path on a fixed gate set: tables, checks, oracle, locate.

    python3 scripts/query_gate.py                 # the full gate set
    python3 scripts/query_gate.py fixtures 2,4    # chosen inputs only

An input is `fixtures` for the five worked examples, `d,n` for the
seeded CP^n projection of that size (seed 1, entries 0..40 over
denominators 1..5) or `d,n,g` for a seeded grid projection with integer
entries 0..g, as in arrangement_gate.py.  The default is the fixtures,
seeded (1,4)...(1,10), (2,3)...(2,7), (3,4)...(3,6), (4,5) and five
grid projections.

Each input is queried twice, once with its caches cold and once warm.
A query is:

- every `serialize_table` row of the signature, Poincare and Euler
  tables, and the outcome (table or error text) of a spec whose
  crossing function is not antisymmetric;
- every line (title, name, pass flag, detail) of `check_seeds`, both
  table checks, `check_dim4_positivity`, `delzant_shortcut`, and
  `cross_check` on each wall it applies to (the top wall at d = 1,
  every wall of positive dimension otherwise);
- the table checks and the rows of a signature table with one entry
  dropped, which are read as that table stands;
- at d >= 2, `restrict_to_line` and both `wall_cross_delta`s on every
  top-wall edge in both orientations;
- the `locate` outcome (chamber, or exception type and text) of every
  chamber rep and of seeded points on every wall of positive dimension.

For each input it prints one `digest` line, a hash of the cold query,
and a `time` line with the seconds the warm query took.  Running it in
two checkouts and comparing the `digest` lines shows whether a change
kept the re-query path's output byte for byte.  It ends with a PASS
line when, on every input, the warm query equals the cold one, every
check line of the intact tables passes, and every chamber rep locates
to its own chamber.
"""

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

from arrangement_gate import inputs
from xraycross.arrangement import crossing_graph, locate, subchambers
from xraycross.circle import cross_check, restrict_to_line, wall_cross_delta
from xraycross.engine import (
    EULER,
    INT_POLYNOMIAL,
    INTEGER,
    POINCARE,
    SIGNATURE,
    RecursiveInvariantSpec,
    check_dim4_positivity,
    check_parity,
    check_seeds,
    check_sig_equals_poincare_at_i,
    delzant_shortcut,
    propagate,
    serialize_table,
)
from xraycross.errors import PropagationError, XrayError

SEEDED = [(1, n) for n in range(4, 11)] + [(2, n) for n in range(3, 8)] + [(3, n) for n in range(4, 7)] + [(4, 5)]
QUERY_GRIDS = [(2, 5, 3), (2, 7, 3), (3, 5, 2), (3, 6, 2), (4, 5, 1)]
LOPSIDED = RecursiveInvariantSpec("lopsided", INTEGER, lambda f, b: f, lambda vd: vd.seed_signature)


def report_lines(report) -> list[str]:
    return [f"report {report.title}"] + [f"  {line.name}|{line.passed}|{line.detail}" for line in report.lines]


def row_lines(x, table) -> list[str]:
    return [json.dumps(row, sort_keys=True) for row in serialize_table(x, table)]


def locate_outcome(x, f, q):
    try:
        return locate(x, f, q).index
    except XrayError as e:
        return type(e).__name__, str(e)


def seeded_points(x, f, rng: random.Random, count: int = 6) -> list:
    """count convex combinations of f's wall vertices with weights 1..9."""
    wall = x.stratum(f).wall
    points = []
    for _ in range(count):
        weights = [Fraction(rng.randint(1, 9)) for _ in wall.vertices]
        total = sum(weights)
        points.append(tuple(sum(w * v[c] for w, v in zip(weights, wall.vertices)) / total for c in range(wall.ambient_dim)))
    return points


def query(x) -> tuple[list[str], bool]:
    """(every output line of one query of x, every intact check passed
    and every chamber rep located to its chamber)."""
    sig, poin, euler = (propagate(x, spec) for spec in (SIGNATURE, POINCARE, EULER))
    lines = [line for table in (sig, poin, euler) for line in row_lines(x, table)]
    try:
        lines += row_lines(x, propagate(x, LOPSIDED))
    except PropagationError as e:
        lines.append(f"lopsided: {e}")
    walls = [x.top_id] if x.torus_rank == 1 else sorted(f for f in x.ids if x.dim(f) > 0)
    reports = [
        check_seeds(x),
        check_parity(x, sig, euler),
        check_sig_equals_poincare_at_i(x, sig, poin),
        check_dim4_positivity(x, poin, sig),
        delzant_shortcut(x, sig, poin, euler),
    ] + [cross_check(x, f, sig, poin) for f in walls]
    ok = all(report.passed for report in reports)
    keys = sorted(sig.values)
    dropped = replace(sig, values={k: v for k, v in sig.values.items() if k != keys[len(keys) // 2]})
    reports += [check_parity(x, dropped, euler), check_sig_equals_poincare_at_i(x, dropped, poin)]
    lines += [line for report in reports for line in report_lines(report)]
    lines += row_lines(x, dropped)
    if x.torus_rank > 1:
        top = x.top_id
        for edge in crossing_graph(x, top).edges:
            for p1, p2 in ((edge.source, edge.dest), (edge.dest, edge.source)):
                data = restrict_to_line(x, top, p1, p2, sig_table=sig, poin_table=poin, facet_rep=edge.facet_rep)
                deltas = [wall_cross_delta(data, 0, ring) for ring in (INTEGER, INT_POLYNOMIAL)]
                lines.append(f"restrict {p1}->{p2} {data!r} {deltas[0]} {deltas[1]}")
    for f in sorted(f for f in x.ids if x.dim(f) > 0):
        chambers = subchambers(x, f)
        located = [locate_outcome(x, f, c.rep) for c in chambers]
        ok &= located == [c.index for c in chambers]
        located += [locate_outcome(x, f, q) for q in seeded_points(x, f, random.Random(f))]
        lines.append(f"locate {f}: {located!r}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sizes", nargs="*", help="fixtures, d,n or d,n,g (default: the full gate set)")
    args = parser.parse_args(argv)
    sizes = args.sizes or ["fixtures"] + [f"{d},{n}" for d, n in SEEDED] + [f"{d},{n},{g}" for d, n, g in QUERY_GRIDS]
    passed = True
    for label, build in inputs(sizes):
        x = build()
        cold, ok = query(x)
        start = time.perf_counter()
        warm, _ = query(x)
        seconds = time.perf_counter() - start
        passed &= ok and warm == cold
        digest = hashlib.sha256("\n".join(cold).encode()).hexdigest()[:32]
        print(f"digest {label}: {digest}")
        print(f"time {label}: {seconds:.3f} s")
        sys.stdout.flush()
    print("query gate: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
