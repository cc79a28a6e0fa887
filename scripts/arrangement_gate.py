"""Digest and time the arrangement layer on a fixed gate set of inputs.

    python3 scripts/arrangement_gate.py                 # the full gate set
    python3 scripts/arrangement_gate.py 2,5 3,4 2,5,3   # chosen sizes only

A size is `d,n` for the seeded CP^n projection of that size (seed 1,
entries 0..40 over denominators 1..5), `d,n,g` for a seeded projection
with integer entries 0..g, whose collinear and coplanar columns make
degenerate walls, or `fixtures` for the five worked examples.  The
default is the fixtures, seeded (2,3)...(2,12), (3,4)...(3,8), (4,5),
(4,6) and seven grid projections.

For each input it prints one `digest` line: a hash of the repr of every
`subchambers` and `crossing_graph` outcome over all strata, and of the
`locate` outcome (chamber, or exception type and text) at seeded probe
points: chamber reps and vertices, edge reps, and affine combinations of
them, some off the wall.  A `time` line gives the seconds `subchambers`
plus `crossing_graph` took over all strata of a fresh X-ray.  Running it
in two checkouts and comparing the `digest` lines shows whether a change
kept the arrangement's output byte for byte.  It ends with a PASS line
when every chamber rep locates to its own chamber.
"""

import argparse
import hashlib
import random
import sys
import time
from fractions import Fraction

from xraycross.arrangement import crossing_graph, locate, subchambers
from xraycross.errors import XrayError
from xraycross.generators import ProjectionMatrix, cpn_xray, standard_cube_xray, standard_simplex_xray
from xraycross.ratmath import rank

SEEDED = [(2, n) for n in range(3, 13)] + [(3, n) for n in range(4, 9)] + [(4, 5), (4, 6)]
GRIDS = [(2, 5, 3), (2, 7, 3), (3, 5, 2), (3, 6, 2), (3, 7, 2), (4, 5, 1), (4, 6, 2)]


def seeded_rows(d: int, n: int, seed: int, grid: int | None = None) -> ProjectionMatrix:
    """Seeded d x (n+1) projection with distinct columns and full rank:
    entries 0..40 over denominators 1..5, or integers 0..grid."""
    if grid is not None and (grid + 1) ** d < n + 1:
        raise ValueError(f"a {grid + 1}^{d} grid holds no {n + 1} distinct columns")
    rng = random.Random(seed)
    while True:
        if grid is None:
            rows = tuple(tuple(Fraction(rng.randint(0, 40), rng.randint(1, 5)) for _ in range(n + 1)) for _ in range(d))
        else:
            rows = tuple(tuple(Fraction(rng.randint(0, grid)) for _ in range(n + 1)) for _ in range(d))
        if len(set(zip(*rows))) == n + 1 and rank(rows) == d:
            return ProjectionMatrix(rows)


def fixtures() -> dict:
    F = Fraction
    return {
        "cp3": lambda: cpn_xray(3, ProjectionMatrix(((0, 1, 2, 3),))),
        "cp4": lambda: cpn_xray(4, ProjectionMatrix(((0, 4, 2, F(8, 5), F(12, 5)), (0, 0, 4, F(3, 4), F(19, 10))))),
        "ncp4": lambda: cpn_xray(4, ProjectionMatrix(((0, 4, 0, F(3, 2), F(5, 2)), (0, 0, 4, F(5, 2), F(3, 2))))),
        "simplex2": lambda: standard_simplex_xray(2),
        "cube2": lambda: standard_cube_xray(2),
    }


def inputs(sizes: list[str]):
    """(label, builder) per input of the named sizes."""
    for size in sizes:
        if size == "fixtures":
            yield from fixtures().items()
            continue
        parts = [int(p) for p in size.split(",")]
        if len(parts) == 2:
            d, n = parts
            yield f"({d},{n})", lambda d=d, n=n: cpn_xray(n, seeded_rows(d, n, 1))
        elif len(parts) == 3:
            d, n, g = parts
            yield f"({d},{n}) grid {g}", lambda d=d, n=n, g=g: cpn_xray(n, seeded_rows(d, n, 1, grid=g))
        else:
            raise SystemExit(f"bad size {size!r}: expected fixtures, d,n or d,n,g")


def probe_points(x, f, rng: random.Random) -> list:
    base = [c.rep for c in subchambers(x, f)] + [v for c in subchambers(x, f) for v in c.cell.vertices]
    base += [e.facet_rep for e in crossing_graph(x, f).edges]
    base = list(dict.fromkeys(base))
    extra = []
    for _ in range(min(30, len(base) ** 2)):
        a, b = rng.choice(base), rng.choice(base)
        t = Fraction(rng.randint(-2, 6), 4)
        extra.append(tuple(ai + t * (bi - ai) for ai, bi in zip(a, b)))
    return base + extra


def locate_outcome(x, f, q):
    try:
        return locate(x, f, q)
    except XrayError as e:
        return type(e).__name__, str(e)


def gate(x) -> tuple[float, str, bool]:
    """(seconds for subchambers plus crossing_graph over all strata,
    digest of every outcome, every chamber rep located to its chamber)."""
    start = time.perf_counter()
    for f in x.ids:
        subchambers(x, f)
        crossing_graph(x, f)
    seconds = time.perf_counter() - start
    h = hashlib.sha256()
    ok = True
    for f in sorted(x.ids):
        chambers = subchambers(x, f)
        h.update(repr(chambers).encode())
        h.update(repr(crossing_graph(x, f)).encode())
        ok &= all(locate_outcome(x, f, c.rep) is c for c in chambers)
        rng = random.Random(f)
        for q in probe_points(x, f, rng):
            h.update(repr(locate_outcome(x, f, q)).encode())
    return seconds, h.hexdigest()[:32], ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sizes", nargs="*", help="fixtures, d,n or d,n,g (default: the full gate set)")
    args = parser.parse_args(argv)
    sizes = args.sizes or ["fixtures"] + [f"{d},{n}" for d, n in SEEDED] + [f"{d},{n},{g}" for d, n, g in GRIDS]
    passed = True
    for label, build in inputs(sizes):
        seconds, digest, ok = gate(build())
        passed &= ok
        print(f"digest {label}: {digest}")
        print(f"time {label}: {seconds:.3f} s")
        sys.stdout.flush()
    print("arrangement gate: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
