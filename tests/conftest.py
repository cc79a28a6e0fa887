"""Shared fixtures: the worked examples every module is tested against.

cp3   : CP^3 with a circle action, moment image [0, 3], interior
        vertices at 1 and 2.
cp4   : CP^4 under a generic rank-2 projection; 5 vertices in general
        position, 10 edge walls, 7 top chambers.
ncp4  : CP^4 under a non-generic projection; vertices t, q, r, s lie
        on the line x + y = 4, producing one non-Delzant diagonal wall
        with subchambers A, B, C and top chambers alpha, beta, gamma.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from xraycross import circle
from xraycross.arrangement import crossing_graph
from xraycross.errors import XrayError
from xraycross.exactgeom import hull
from xraycross.generators import (
    ProjectionMatrix,
    cpn_xray,
    standard_cube_xray,
    standard_simplex_xray,
)
from xraycross.ratmath import as_vec, rank, vdot
from xraycross.xray import Stratum, WeightedXray

CP3_ROWS = ((0, 1, 2, 3),)
CP4_ROWS = (
    (0, 4, 2, Fraction(8, 5), Fraction(12, 5)),
    (0, 0, 4, Fraction(3, 4), Fraction(19, 10)),
)
NCP4_ROWS = (
    (0, 4, 0, Fraction(3, 2), Fraction(5, 2)),
    (0, 0, 4, Fraction(5, 2), Fraction(3, 2)),
)
DIAG = "w2-3-4-5"


def seeded_rows(d, n, seed, grid=None):
    """Seeded d x (n+1) projection with distinct columns and full rank.

    Entries are integers 0..40 over denominators 1..5, or, with grid=g,
    integers 0..g, where small grids give collinear and coplanar columns.
    A grid with fewer than n + 1 points raises ValueError: it cannot hold
    n + 1 distinct columns.
    """
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


def edge_by_scan(x, f, p1, p2, facet_rep=None):
    """The crossing edge restrict_to_line turns into a circle, found by
    scanning f's crossing graph in order: the first edge joining p1 and
    p2, through facet_rep when one is given, oriented from p1 to p2."""
    rep = None if facet_rep is None else tuple(facet_rep)
    for candidate in crossing_graph(x, f).edges:
        pair = (candidate.source, candidate.dest)
        if pair != (p1, p2) and pair != (p2, p1):
            continue
        if rep is not None and candidate.facet_rep != rep:
            continue
        return candidate if pair == (p1, p2) else candidate.reversed()
    raise XrayError(f"subchambers {p1} and {p2} of '{f}' are not adjacent")


def vertices_below(x, sid):
    """The vertex strata at or below sid, in id order."""
    return tuple(v for v in x.vertex_ids if x.leq(v, sid))


def edge_circle(edge, sig_table, poin_table):
    """restrict_to_line for an edge already in hand: the circle of the
    edge's separators, seeded from the tables."""
    return circle._circle(circle._edge_legs(edge, {}), sig_table, poin_table)


def transform(x, matrix, shift):
    """x under an invertible affine map v -> A v + t: walls map through
    the affine map, weights through its linear part."""
    rows = tuple(as_vec(r) for r in matrix)
    t = as_vec(shift)
    d = x.torus_rank
    if len(rows) != d or any(len(r) != d for r in rows) or len(t) != d:
        raise ValueError("affine map has wrong shape")
    if rank(rows) != d:
        raise ValueError("affine map is singular")

    def apply_pt(v):
        return tuple(vdot(r, v) + ti for r, ti in zip(rows, t))

    def apply_vec(v):
        return tuple(vdot(r, v) for r in rows)

    strata = []
    for s in x.strata:
        vd = s.vertex_data
        if vd is not None:
            vd = replace(vd, weights=tuple(sorted(apply_vec(w) for w in vd.weights)))
        strata.append(Stratum(id=s.id, wall=hull([apply_pt(v) for v in s.wall.vertices]), parents=s.parents, vertex_data=vd))
    return WeightedXray(x.torus_rank, x.half_dim, tuple(strata))


@pytest.fixture(scope="session")
def cp3():
    return cpn_xray(3, ProjectionMatrix(CP3_ROWS))


@pytest.fixture(scope="session")
def cp4():
    return cpn_xray(4, ProjectionMatrix(CP4_ROWS))


@pytest.fixture(scope="session")
def ncp4():
    return cpn_xray(4, ProjectionMatrix(NCP4_ROWS))


@pytest.fixture(scope="session")
def toric_triangle():
    return standard_simplex_xray(2)


@pytest.fixture(scope="session")
def unit_square():
    return standard_cube_xray(2)


@pytest.fixture(scope="session")
def segment():
    return standard_simplex_xray(1)
