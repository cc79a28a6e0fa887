import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xraycross import exactgeom
from xraycross.exactgeom import (
    AffineSpan,
    Polytope,
    Refinement,
    bits,
    centroid,
    clip_halfspace,
    clip_to_polytope,
    face_lattice,
    faces,
    hull,
    side_functional,
    span_hyperplane,
    tight_mask,
)
from xraycross.ratmath import ZERO, as_vec, solve_square, vdot, vneg, vsub

from test_ratmath import (
    in_span,
    nullspace_by_fractions,
    primitive_by_fractions,
    rank_by_fractions,
    rref_by_fractions,
)

coords = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def pts(*rows):
    return [as_vec(r) for r in rows]


def hull_by_fractions(points):
    """Reference: the supporting-hyperplane search in Fractions, with a
    nullspace per subset and Fraction elimination throughout."""
    pts_ = sorted({as_vec(p) for p in points})
    base = pts_[0]
    span = AffineSpan(base, *rref_by_fractions([vsub(p, base) for p in pts_]))
    k = span.dim
    if k == 0:
        return Polytope((pts_[0],), span, ())
    ys = [tuple(vsub(p, base)[j] for j in span.pivots) for p in pts_]
    found = {}
    for comb in combinations(range(len(pts_)), k):
        base_y = ys[comb[0]]
        ns = nullspace_by_fractions([vsub(ys[i], base_y) for i in comb[1:]], k)
        if len(ns) != 1:
            continue
        u = ns[0]
        c = vdot(u, base_y)
        sides = {(vdot(u, y) > c) - (vdot(u, y) < c) for y in ys}
        if {1, -1} <= sides:
            continue
        if 1 in sides:
            u, c = vneg(u), -c
        found[primitive_by_fractions(u, c)] = None
    span_facets = sorted(found)
    verts = [pts_[i] for i, y in enumerate(ys) if rank_by_fractions([u for u, c in span_facets if vdot(u, y) == c]) == k]
    amb_facets = []
    for u, c in span_facets:
        n = [ZERO] * span.ambient_dim
        for coef, p in zip(u, span.pivots):
            n[p] = coef
        amb_facets.append(primitive_by_fractions(tuple(n), c + vdot(tuple(n), span.base)))
    return Polytope(tuple(verts), span, tuple(sorted(amb_facets)))


@st.composite
def seeded_point_sets(draw):
    """Seeded rational points in Q^1..Q^4 on a random affine frame of
    dimension 0..ambient, so sets come out repeated, collinear,
    coplanar or lower-dimensional, with negative coordinates; and probe
    points: the points themselves, midpoints, points of the frame's span
    and random points of the ambient space."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ambient = rng.randint(1, 4)
    dim = rng.randint(0, ambient)
    frame = [[Fraction(rng.randint(-3, 3)) for _ in range(ambient)] for _ in range(dim)]
    origin = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ambient)]

    def on_frame():
        coef = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        return tuple(o + sum((c * row[j] for c, row in zip(coef, frame)), ZERO) for j, o in enumerate(origin))

    points = [on_frame() for _ in range(rng.randint(1, 8 - ambient))]
    points += [rng.choice(points) for _ in range(rng.randint(0, 2))]
    probes = list(points)
    probes += [tuple((x + y) / 2 for x, y in zip(rng.choice(points), rng.choice(points))) for _ in range(4)]
    probes += [on_frame() for _ in range(4)]
    probes += [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ambient)) for _ in range(4)]
    return points, probes


@settings(deadline=None, max_examples=200)
@given(seeded_point_sets())
def test_hull_matches_fraction_reference(case):
    points, _ = case
    got, want = hull(points), hull_by_fractions(points)
    assert got.vertices == want.vertices
    assert got.span == want.span
    assert got.facets == want.facets
    assert repr(got) == repr(want)


@settings(deadline=None, max_examples=200)
@given(seeded_point_sets())
def test_integer_predicates_match_fraction_evaluation(case):
    """Membership, span and tight-set tests agree with the same
    inequalities evaluated in Fractions."""
    points, probes = case
    p = hull(points)
    span = p.span
    for q in probes:
        in_aff = in_span(span.basis, span.pivots, vsub(q, span.base))
        assert span.contains(q) == in_aff
        assert span.lin_contains(q) == in_span(span.basis, span.pivots, q)
        assert p.contains(q) == (in_aff and all(vdot(n, q) <= c for n, c in p.facets))
        inside = q == p.vertices[0] if p.dim == 0 else in_aff and all(vdot(n, q) < c for n, c in p.facets)
        assert p.relative_interior_contains(q) == inside
        assert tight_mask(p, q) == sum(1 << i for i, (n, c) in enumerate(p.facets) if vdot(n, q) == c)
    assert all(p.contains(q) for q in points)


def test_hull_and_contains_call_no_nullspace(cp4, monkeypatch):
    """hull takes each subset's normal by integer cross product, and
    membership reads integer facets: no Fraction nullspace is solved."""

    def no_nullspace(*args):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(exactgeom, "nullspace", no_nullspace, raising=False)
    for s in cp4.strata:
        wall = hull(s.wall.vertices)
        assert wall == s.wall
        assert all(wall.contains(v) for v in wall.vertices)
        assert wall.contains(centroid(wall.vertices))


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


def faces_by_facet_hulls(p, k):
    """Reference: the recursive enumeration `faces` ran before the mask
    lattice, hulling every facet's vertices at every level."""
    if not 0 <= k <= p.dim:
        raise ValueError(f"face dimension {k} out of range for a {p.dim}-polytope")
    level = {p.vertices: p}
    for _ in range(p.dim - k):
        nxt = {}
        for q in level.values():
            tight = [tight_mask(q, v) for v in q.vertices]
            for i in range(len(q.facets)):
                f = hull(v for v, t in zip(q.vertices, tight) if t >> i & 1)
                nxt[f.vertices] = f
        level = nxt
    return [level[key] for key in sorted(level)]


@settings(deadline=None, max_examples=200)
@given(seeded_point_sets())
def test_faces_match_facet_hull_reference(case):
    """The mask lattice gives the faces the facet-hull recursion does,
    at every k, on rational polytopes of dimension 0..4."""
    points, _ = case
    p = hull(points)
    lattice = face_lattice(p)
    assert len(lattice) == p.dim + 1
    for k in range(p.dim + 1):
        want = faces_by_facet_hulls(p, k)
        assert faces(p, k) == want
        assert sorted(tuple(p.vertices[j] for j in bits(m)) for m in lattice[k]) == [f.vertices for f in want]


@pytest.mark.parametrize("d", [3, 4])
def test_faces_match_reference_on_cube_and_cross_polytope(d):
    cube = hull(as_vec(c) for c in product((0, 1), repeat=d))
    cross = hull(as_vec([s if j == i else 0 for j in range(d)]) for i in range(d) for s in (-1, 1))
    for p in (cube, cross):
        for k in range(d + 1):
            assert faces(p, k) == faces_by_facet_hulls(p, k)
    assert [len(level) for level in face_lattice(cube)] == [comb(d, k) * 2 ** (d - k) for k in range(d + 1)]


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
    assert ref.signs == [(-1,), (1,)]
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


def test_refinement_sign_vectors():
    """Each cell's sign vector gives the side of every cut its interior
    lies on, whether the cut split it or passed it by."""
    ref = Refinement(hull(pts((0, 0), (4, 0), (0, 4))))
    cuts = [(as_vec((1, 0)), Fraction(1)), (as_vec((0, 1)), Fraction(1)), (as_vec((1, 1)), Fraction(3))]
    for normal, offset in cuts:
        ref.cut(normal, offset)
    assert len(ref.signs) == len(ref.cells) == len(set(ref.signs)) == 7
    for (ids, _), signs in zip(ref.cells, ref.signs):
        mid = tuple(sum(col) / len(ids) for col in zip(*(ref.points[v] for v in ids)))
        assert signs == tuple(1 if vdot(n, mid) > c else -1 for n, c in cuts)


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
