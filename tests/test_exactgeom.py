import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xraycross.exactgeom import (
    AffineSpan,
    Refinement,
    centroid,
    clip_halfspace,
    clip_to_polytope,
    faces,
    hull,
    side_functional,
    span_hyperplane,
)
from xraycross.ratmath import as_vec, solve_square, vdot, vneg, vsub

coords = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def pts(*rows):
    return [as_vec(r) for r in rows]


def test_hull_single_point():
    p = hull(pts((0, 0)))
    assert p.vertices == (as_vec((0, 0)),)
    assert p.dim == 0


def test_hull_drops_midpoint():
    p = hull(pts((0, 0), (1, 0), ("1/2", 0)))
    assert set(p.vertices) == {as_vec((0, 0)), as_vec((1, 0))}
    assert p.dim == 1


def test_hull_collinear_interior_points_dropped():
    p = hull(pts((0, 0), (4, 0), (0, 4), ("3/2", "5/2"), ("5/2", "3/2")))
    assert set(p.vertices) == {as_vec((0, 0)), as_vec((4, 0)), as_vec((0, 4))}
    assert p.dim == 2


def test_hull_empty_rejected():
    with pytest.raises(ValueError, match="empty point set"):
        hull([])


def test_hull_mixed_dimension_rejected():
    with pytest.raises(ValueError, match="mixed dimension"):
        hull(pts((0, 0), (1, 2, 3)))


def test_hull_all_points_equal():
    p = hull(pts((1, 2), (1, 2), (1, 2)))
    assert p.dim == 0
    assert p.vertices == (as_vec((1, 2)),)


def test_faces_square_corners():
    sq = hull(pts((0, 0), (1, 0), (0, 1), (1, 1)))
    corners = faces(sq, 0)
    assert len(corners) == 4
    assert {f.vertices[0] for f in corners} == set(sq.vertices)


def test_faces_segment_endpoints():
    seg = hull(pts((0, 0), (4, 0)))
    ends = faces(seg, 0)
    assert {f.vertices[0] for f in ends} == {as_vec((0, 0)), as_vec((4, 0))}


def test_faces_triangle_edges():
    tri = hull(pts((0, 0), (4, 0), (0, 4)))
    edges = faces(tri, 1)
    assert len(edges) == 3
    assert all(e.dim == 1 for e in edges)
    assert faces(tri, 2) == [tri]


def test_faces_out_of_range():
    tri = hull(pts((0, 0), (4, 0), (0, 4)))
    with pytest.raises(ValueError):
        faces(tri, 3)
    with pytest.raises(ValueError):
        faces(tri, -1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_simplex_face_counts(d):
    vertices = [as_vec([0] * d)]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        vertices.append(as_vec(e))
    simplex = hull(vertices)
    for k in range(d + 1):
        assert len(faces(simplex, k)) == comb(d + 1, k + 1)


def test_relative_interior_point_examples():
    """The vertex centroid lies in the relative interior."""
    assert centroid(hull(pts((2, 3))).vertices) == as_vec((2, 3))
    assert centroid(hull(pts((0, 0), (4, 0))).vertices) == as_vec((2, 0))
    tri = hull(pts((0, 0), (4, 0), (0, 4)))
    assert centroid(tri.vertices) == as_vec(("4/3", "4/3"))
    assert tri.relative_interior_contains(as_vec(("4/3", "4/3")))


def test_side_functional_diagonal_line():
    plane = AffineSpan.from_points(pts((0, 0), (1, 0), (0, 1)))
    line = AffineSpan.from_points(pts((4, 0), (0, 4)))
    ell = side_functional(plane, line, as_vec((0, 0)))
    assert ell.value(as_vec((0, 0))) > 0
    assert ell.value(as_vec((4, 0))) == 0
    assert ell.value(as_vec((3, 3))) < 0


def test_side_functional_point_on_axis():
    axis = AffineSpan.from_points(pts((0,), (1,)))
    point = AffineSpan.from_points(pts((1,)))
    ell = side_functional(axis, point, as_vec((3,)))
    assert ell.value(as_vec((3,))) > 0
    assert ell.value(as_vec((1,))) == 0
    assert ell.value(as_vec((0,))) < 0


def test_side_functional_rejects_toward_on_separator():
    plane = AffineSpan.from_points(pts((0, 0), (1, 0), (0, 1)))
    line = AffineSpan.from_points(pts((4, 0), (0, 4)))
    with pytest.raises(ValueError, match="on the separator"):
        side_functional(plane, line, as_vec((2, 2)))


def test_side_functional_rejects_wrong_codimension():
    space = AffineSpan.from_points(pts((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    line = AffineSpan.from_points(pts((0, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError, match="codimension"):
        side_functional(space, line, as_vec((0, 0, 1)))


def test_span_hyperplane_vanishes_on_sub():
    plane = AffineSpan.from_points(pts((0, 0), (1, 0), (0, 1)))
    line = AffineSpan.from_points(pts((4, 0), (0, 4)))
    normal, offset = span_hyperplane(plane, line)
    for v in pts((4, 0), (0, 4), (2, 2)):
        assert sum(n * c for n, c in zip(normal, v)) == offset


def barycentric_inside(simplex_vertices, q):
    """Membership via the exact convex-combination solve on a simplex."""
    v0 = simplex_vertices[0]
    rows = [vsub(v, v0) for v in simplex_vertices[1:]]
    columns = [as_vec([r[i] for r in rows]) for i in range(len(v0))]
    lam = solve_square(columns, vsub(q, v0))
    return all(c >= 0 for c in lam) and sum(lam) <= 1


def test_vh_agreement_on_simplex():
    vertices = pts((0, 0), (4, 1), (1, 5))
    simplex = hull(vertices)
    rng = random.Random(7)
    for _ in range(1000):
        q = as_vec(
            (
                Fraction(rng.randint(-8, 12), rng.randint(1, 4)),
                Fraction(rng.randint(-8, 12), rng.randint(1, 4)),
            )
        )
        assert simplex.contains(q) == barycentric_inside(vertices, q)


def test_clip_halfspace():
    tri = hull(pts((0, 0), (4, 0), (0, 4)))
    left = clip_halfspace(tri, as_vec((1, 0)), Fraction(2))
    assert left is not None
    assert set(left.vertices) == {
        as_vec((0, 0)),
        as_vec((2, 0)),
        as_vec((0, 4)),
        as_vec((2, 2)),
    }
    assert clip_halfspace(tri, as_vec((1, 0)), Fraction(-1)) is None
    edge = clip_halfspace(tri, as_vec((1, 0)), Fraction(0))
    assert edge is not None and edge.dim == 1


def test_clip_to_polytope():
    a = hull(pts((0, 0), (2, 0), (0, 2), (2, 2)))
    b = hull(pts((1, 1), (3, 1), (1, 3), (3, 3)))
    both = clip_to_polytope(a, b)
    assert both is not None
    assert set(both.vertices) == {
        as_vec((1, 1)),
        as_vec((2, 1)),
        as_vec((1, 2)),
        as_vec((2, 2)),
    }
    far = hull(pts((5, 5), (6, 5), (5, 6)))
    assert clip_to_polytope(a, far) is None


def refinement_halves(p, normal, offset):
    ref = Refinement(p)
    ref.cut(normal, offset)
    assert len(ref.cells) == 2
    out = []
    for ids, tight in ref.cells:
        mask = 0
        for t in tight:
            mask |= t
        out.append(ref.polytope(ids, mask))
    return out


@st.composite
def cut_polytopes(draw):
    """A 1-3 dimensional hull of seeded points in Q^1..Q^3 and a
    hyperplane through its span with vertices strictly on both sides."""
    dim = draw(st.integers(1, 3))
    ambient = draw(st.integers(dim, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    frame = [[Fraction(rng.randint(-3, 3)) for _ in range(ambient)] for _ in range(dim)]
    origin = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ambient)]
    points = []
    for _ in range(rng.randint(dim + 1, dim + 5)):
        coef = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        points.append(tuple(o + sum((c * row[j] for c, row in zip(coef, frame)), Fraction(0)) for j, o in enumerate(origin)))
    p = hull(points)
    assume(p.dim == dim)
    normal = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ambient))
    values = sorted({vdot(normal, v) for v in p.vertices})
    assume(len(values) >= 2)
    offset = draw(st.sampled_from(values[1:-1] + [(values[0] + values[-1]) / 2]))
    return p, normal, offset


@settings(deadline=None)
@given(cut_polytopes())
def test_refinement_cut_matches_clip_halfspace(case):
    p, normal, offset = case
    lower, upper = refinement_halves(p, normal, offset)
    assert lower == clip_halfspace(p, normal, offset)
    assert upper == clip_halfspace(p, vneg(normal), -offset)


def test_affine_span_coords_roundtrip():
    span = AffineSpan.from_points(pts((1, 1, 0), (2, 2, 0), (1, 1, 3)))
    assert span.dim == 2
    p = as_vec(("3/2", "3/2", 1))
    assert span.contains(p)
    assert span.lift(span.coords(p)) == p
    assert not span.contains(as_vec((1, 2, 0)))


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=7))
def test_hull_idempotent(raw):
    points = [as_vec(p) for p in raw]
    first = hull(points)
    second = hull(first.vertices)
    assert set(second.vertices) == set(first.vertices)
    assert second.dim == first.dim


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
def test_hull_contains_inputs(raw):
    points = [as_vec(p) for p in raw]
    p = hull(points)
    for q in points:
        assert p.contains(q)
