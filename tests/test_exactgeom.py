import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xraycross import exactgeom, xray
from xraycross.exactgeom import (
    Polytope,
    Refinement,
    bits,
    clip_halfspace,
    clip_to_polytope,
    face_lattice,
    faces,
    hull,
    side_functional,
    span_hyperplane,
)
from xraycross.generators import cpn_xray
from xraycross.ratmath import ZERO, as_vec, clear_denominators, idot, span_key, vdot, vneg, vsub

from conftest import seeded_rows
from test_ratmath import (
    fraction_span,
    in_span,
    lin_contains,
    nullspace_by_fractions,
    primitive_by_fractions,
    rank_by_fractions,
    rref,
    rref_by_fractions,
    solve_square,
    solve_square_by_fractions,
)

coords = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def pts(*rows):
    return [as_vec(r) for r in rows]


# -- Geometry helpers the package no longer calls, for building test data
# and references.


def tight_mask(p, point):
    """Bitmask of p's facets through point: bit i is set when point lies
    on p.int_facets[i]."""
    scaled, den = clear_denominators(point)
    return sum(1 << i for i, (n, c) in enumerate(p.int_facets) if idot(n, scaled) == c * den)


def span_from_points(points):
    """The affine span of a nonempty point list, based at its least point."""
    base = min(points)
    return fraction_span(base, *rref([vsub(p, base) for p in points]))


def centroid(points):
    """Average of a nonempty point list, exact: the coordinates'
    denominators are cleared once, the columns summed in integers, and
    one Fraction built per coordinate."""
    d = len(points[0])
    flat, den = clear_denominators([c for p in points for c in p])
    den *= len(points)
    return tuple([Fraction(sum(flat[j::d]), den) for j in range(d)])


def scaled_point(ref, v):
    """Point v of a Refinement, made from its integer form."""
    p, d = ref.scaled[v]
    return tuple(Fraction(x, d) for x in p)


def relative_interior_contains(p, point):
    """Does point lie in the relative interior of the polytope p?"""
    if p.dim == 0:
        return point == p.vertices[0]
    scaled, den = clear_denominators(point)
    return p.span.holds(scaled, den) and all(idot(n, scaled) < c * den for n, c in p.int_facets)


def hull_by_fractions(points):
    """Reference: the supporting-hyperplane search in Fractions, with a
    nullspace per subset and Fraction elimination throughout."""
    pts_ = sorted({as_vec(p) for p in points})
    base = pts_[0]
    span = fraction_span(base, *rref_by_fractions([vsub(p, base) for p in pts_]))
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
        n, c = primitive_by_fractions(tuple(n), c + vdot(tuple(n), span.base))
        amb_facets.append((tuple(int(a) for a in n), int(c)))
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


@st.composite
def seeded_collinear_sets(draw):
    """Seeded rational points on one line in Q^1..Q^4, in seeded order,
    with repeats: the line runs along an integer direction whose leading
    coordinates may vanish, so its pivot column varies, through a
    rational point, and at least two of the points differ."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ambient = rng.randint(1, 4)
    direction = [rng.choice((0, rng.randint(-3, 3))) for _ in range(ambient)]
    direction[rng.randrange(ambient)] = rng.choice((-2, -1, 1, 3))
    origin = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(ambient)]
    ts = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
    ts.append(ts[0] + Fraction(1, rng.randint(1, 3)))
    points = [tuple(o + t * u for o, u in zip(origin, direction)) for t in ts]
    points += [rng.choice(points) for _ in range(rng.randint(0, 3))]
    rng.shuffle(points)
    return points


@settings(deadline=None, max_examples=200)
@given(seeded_collinear_sets())
def test_segment_hull_matches_fraction_reference(points):
    """A segment's ends, span and facets, read off the sorted integer
    forms, are those of the supporting-line search in Fractions."""
    got, want = hull(points), hull_by_fractions(points)
    assert got.dim == 1
    assert got == want
    assert repr(got) == repr(want)


@st.composite
def seeded_solids_with_boundary_points(draw):
    """Seeded sets of at most 9 points whose hull is 3-dimensional, in
    Q^3 or on a 3-dimensional frame in Q^4, with up to three points added
    on its boundary that are not vertices: the midpoint of an edge (two
    facets through it) and the centroid of a facet's vertices (one facet
    through it).  Edges and facets are read off the Fraction reference."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ambient = rng.choice((3, 3, 4))
    frame = [[Fraction(rng.randint(-3, 3)) for _ in range(ambient)] for _ in range(3)]
    origin = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ambient)]

    def at(coef):
        return tuple(o + sum((c * row[j] for c, row in zip(coef, frame)), ZERO) for j, o in enumerate(origin))

    corners = [[Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)] for _ in range(rng.randint(4, 6))]
    points = [at(c) for c in corners]
    want = hull_by_fractions(points)
    assume(want.dim == 3)
    tight = [[v for v in want.vertices if vdot(n, v) == c] for n, c in want.facets]
    extra = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            a, b = rng.sample(range(len(tight)), 2)
            common = [v for v in tight[a] if v in tight[b]]
            if len(common) == 2:
                extra.append(tuple((x + y) / 2 for x, y in zip(*common)))
        else:
            face = rng.choice(tight)
            extra.append(tuple(sum(col, ZERO) / len(face) for col in zip(*face)))
    points += extra[: 9 - len(points)]
    rng.shuffle(points)
    return points


@settings(deadline=None, max_examples=150)
@given(seeded_solids_with_boundary_points())
def test_solid_hull_with_boundary_points_matches_fraction_reference(points):
    """At k = 3 points inside an edge (on two facets) or a facet (on one)
    are not vertices, and the vertices, span and facets are the
    reference's."""
    got, want = hull(points), hull_by_fractions(points)
    assert got.dim == 3
    assert got == want
    assert repr(got) == repr(want)


@settings(deadline=None, max_examples=200)
@given(seeded_point_sets())
def test_int_vertices_and_masks_match_per_vertex_clearing(case):
    """int_vertices is the vertices over the lcm of all their
    denominators, and vertex_masks is each vertex's `tight_mask`.  The
    integer forms `hull` fills in equal those a copy computes afresh,
    and its stored rows and facets are its Fraction views cleared."""
    points, _ = case
    p = hull(points)
    span = fraction_span(p.span.base, p.span.basis, p.span.pivots)
    fresh = Polytope(p.vertices, span, p.int_facets)
    assert p.span == span
    assert p.span.int_base == clear_denominators(p.span.base)
    assert p.int_facets == tuple((ints[:-1], ints[-1]) for ints in (clear_denominators(n + (c,))[0] for n, c in p.facets))
    assert p.int_vertices == fresh.int_vertices
    assert p.vertex_masks == fresh.vertex_masks
    rows, den = p.int_vertices
    flat, want_den = clear_denominators([c for v in p.vertices for c in v])
    assert den == want_den
    assert [c for row in rows for c in row] == list(flat)
    assert tuple(tuple(Fraction(x, den) for x in row) for row in rows) == p.vertices
    assert p.vertex_masks == tuple(tight_mask(p, v) for v in p.vertices)


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
        assert lin_contains(span, q) == in_span(span.basis, span.pivots, q)
        assert p.contains(q) == (in_aff and all(vdot(n, q) <= c for n, c in p.facets))
        inside = q == p.vertices[0] if p.dim == 0 else in_aff and all(vdot(n, q) < c for n, c in p.facets)
        assert relative_interior_contains(p, q) == inside
        assert tight_mask(p, q) == sum(1 << i for i, (n, c) in enumerate(p.facets) if vdot(n, q) == c)
    assert all(p.contains(q) for q in points)


def test_build_path_makes_no_fraction(cp3, cp4, ncp4, toric_triangle, unit_square, monkeypatch):
    """The X-ray build stores integer forms only.  hull, on every wall of
    the fixtures and of seeded (2,6) and (3,4) CP^n X-rays, and
    Refinement.cut, along each wall's codimension-1 subwalls'
    hyperplanes, construct no Fraction; Refinement.polytope, on every
    cell, constructs the coordinates of each point a cut made, once per
    point however many cells it bounds, and no other Fraction: cells
    share one tuple per point, and the wall's own vertex tuples; and
    validate_darboux reads each vertex's weight rows as its vertex data
    made them and each fixed point as its vertex stratum's wall cleared
    it, so it clears nothing, on X-rays no query has touched."""
    fresh = [cpn_xray(6, seeded_rows(2, 6, 1)), cpn_xray(4, seeded_rows(3, 4, 1))]
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    jobs = []
    for x in [cp3, cp4, ncp4, toric_triangle, unit_square] + fresh:
        for s in x.strata:
            wall = s.wall
            planes = [span_hyperplane(wall.span, x.stratum(g).wall.span) for g in x.below(s.id) if x.dim(g) == wall.dim - 1]
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
            assert hull(wall.vertices) == wall
            ref = Refinement(wall)
            for plane in dict.fromkeys(planes):
                ref.cut(plane)
            monkeypatch.undo()
            cells = []
            for ids, tight in ref.cells:
                mask = 0
                for t in tight:
                    mask |= t
                cells.append((ids, mask))
            jobs.append((wall, ref, cells))
    assert made == []
    assert any(len(cells) > 1 for _, _, cells in jobs)

    coordinates = 0
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for wall, ref, cells in jobs:
        points = {}
        for ids, mask in cells:
            cell = ref.polytope(ids, mask)
            for v in ids:
                points.setdefault(v, ref.point(v))
            assert all(any(q is points[v] for v in ids) for q in cell.vertices)
        coordinates += sum(v >= len(wall.vertices) for v in points) * wall.ambient_dim
        assert all(points[v] is q for v, q in enumerate(wall.vertices))
    monkeypatch.undo()
    assert len(made) == coordinates

    cleared = []
    real_clear = xray.clear_denominators

    def counting_clear(v):
        cleared.append(v)
        return real_clear(v)

    monkeypatch.setattr(xray, "clear_denominators", counting_clear)
    for x in fresh:
        assert xray.validate_darboux(x) == []
    assert cleared == []


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


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(st.tuples(*[coords] * d), min_size=1, max_size=6)))
def test_span_key_read_off_int_frame(raw):
    """The key of a hull's span, and of the same span built from its
    Fraction basis, is `span_key` of its integer frame's rows: those rows
    are RREF over a positive denominator already."""
    p = hull([as_vec(q) for q in raw])
    rebuilt = fraction_span(p.span.base, p.span.basis, p.span.pivots)
    assert p.span.key == rebuilt.key == span_key(p.span.rows) == span_key(rebuilt.rows)


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


@pytest.mark.parametrize(
    "points, pivots",
    [
        (pts(("1/2", "-2/3", "5/4")), ()),
        (pts(("3/2", "1/3"), ("1/2", "5/6")), (0,)),
        (pts(("1/2", "-1/3"), ("1/2", "-1/3")), ()),
        (pts(("-5/6", "4/3"), ("-5/6", "4/3"), ("-5/6", "4/3")), ()),
        (pts((1, "5/2", "-2/3"), (1, "1/3", "7/6")), (1,)),
    ],
    ids=["one-point", "high-end-first", "equal-points", "three-equal-points", "pivot-not-0"],
)
def test_hull_of_one_or_two_points_matches_fraction_reference(points, pivots):
    """The closed forms for one distinct point, given once or repeated,
    and for two match the search in Fractions, keep the input tuples as vertices, and fill in integer
    forms, which nothing would compute again, equal to the vertices' and
    the base's cleared forms."""
    got, want = hull(points), hull_by_fractions(points)
    assert got == want
    assert repr(got) == repr(want)
    assert got.span.pivots == pivots
    assert all(any(v is q for q in points) for v in got.vertices)
    d = got.ambient_dim
    flat, den = clear_denominators([c for v in got.vertices for c in v])
    assert got.int_vertices == (tuple(flat[i : i + d] for i in range(0, len(flat), d)), den)
    assert got.span.int_base == clear_denominators(got.span.base)


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
    assert relative_interior_contains(tri, as_vec(("4/3", "4/3")))


def test_side_functional_diagonal_line():
    plane = span_from_points(pts((0, 0), (1, 0), (0, 1)))
    line = span_from_points(pts((4, 0), (0, 4)))
    ell = side_functional(plane, line, as_vec((0, 0)))
    assert ell.value(as_vec((0, 0))) > 0
    assert ell.value(as_vec((4, 0))) == 0
    assert ell.value(as_vec((3, 3))) < 0


def test_side_functional_point_on_axis():
    axis = span_from_points(pts((0,), (1,)))
    point = span_from_points(pts((1,)))
    ell = side_functional(axis, point, as_vec((3,)))
    assert ell.value(as_vec((3,))) > 0
    assert ell.value(as_vec((1,))) == 0
    assert ell.value(as_vec((0,))) < 0


def test_side_functional_rejects_toward_on_separator():
    plane = span_from_points(pts((0, 0), (1, 0), (0, 1)))
    line = span_from_points(pts((4, 0), (0, 4)))
    with pytest.raises(ValueError, match="on the separator"):
        side_functional(plane, line, as_vec((2, 2)))


def test_side_functional_rejects_wrong_codimension():
    space = span_from_points(pts((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    line = span_from_points(pts((0, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError, match="codimension"):
        side_functional(space, line, as_vec((0, 0, 1)))


def test_span_hyperplane_vanishes_on_sub():
    plane = span_from_points(pts((0, 0), (1, 0), (0, 1)))
    line = span_from_points(pts((4, 0), (0, 4)))
    normal, offset = span_hyperplane(plane, line)
    for v in pts((4, 0), (0, 4), (2, 2)):
        assert sum(n * c for n, c in zip(normal, v)) == offset


# The Fraction forms of span_hyperplane, of the projection that put its
# plane in hull's facet form, and of centroid, from before they moved to
# integers, as references.


def complete_to_ambient_by_fractions(rows, d):
    """Extend independent rows to a basis of Q^d with standard basis vectors."""
    out = list(rows)
    for i in range(d):
        if len(out) == d:
            break
        e = tuple(Fraction(1) if j == i else ZERO for j in range(d))
        if rank_by_fractions(out + [e]) > len(out):
            out.append(e)
    return out


def span_hyperplane_by_fractions(ambient, sub):
    """Solve for the normal that is 0 on sub's basis and on the
    completing standard basis vectors, and 1 on one ambient direction
    off sub; then make it primitive with its first nonzero entry positive."""
    if not all(in_span(ambient.basis, ambient.pivots, b) for b in sub.basis + (vsub(sub.base, ambient.base),)):
        raise ValueError("sub-flat is not contained in the ambient span")
    if sub.dim != ambient.dim - 1:
        raise ValueError("sub-flat is not codimension 1 in the ambient span")
    d = ambient.ambient_dim
    rows = list(sub.basis)
    pick = next((b for b in ambient.basis if not in_span(sub.basis, sub.pivots, b)), None)
    if pick is None:
        raise ValueError("degenerate ambient/sub flat pair")
    rows.append(pick)
    rows = complete_to_ambient_by_fractions(rows, d)
    rhs = tuple(Fraction(1) if i == sub.dim else ZERO for i in range(d))
    normal = solve_square_by_fractions(rows, rhs)
    normal, offset = primitive_by_fractions(normal, vdot(normal, sub.base))
    if next(x for x in normal if x != 0) < 0:
        normal, offset = vneg(normal), -offset
    return normal, offset


def span_facet_by_fractions(span, normal, offset):
    """{x in span : normal . x <= offset} in hull's facet form: the
    primitive integer pair (n, c), n supported on span's pivot columns,
    n taking normal's values on span's basis rows."""
    n = [ZERO] * span.ambient_dim
    for row, p in zip(span.basis, span.pivots):
        n[p] = vdot(normal, row)
    n = tuple(n)
    n, c = primitive_by_fractions(n, offset - vdot(normal, span.base) + vdot(n, span.base))
    return tuple(int(x) for x in n), int(c)


def span_plane_by_fractions(ambient, sub):
    """Reference for span_hyperplane: the free-coordinate hyperplane in
    Fractions, put in hull's facet form, first nonzero entry positive."""
    n, c = span_facet_by_fractions(ambient, *span_hyperplane_by_fractions(ambient, sub))
    if next(x for x in n if x) < 0:
        n, c = tuple(-x for x in n), -c
    return n, c


def centroid_by_fractions(points):
    return tuple(sum(col, ZERO) / len(points) for col in zip(*points))


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ValueError, str(e)


@st.composite
def cpn_walls(draw):
    """A seeded or grid CP^n at d = 1..4 and one wall of positive
    dimension in it, with its vertices."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d, d + 2 if d < 4 else 5))
    grid = draw(st.sampled_from([None, None, 1, 2, 3]))
    assume(grid is None or (grid + 1) ** d >= n + 1)
    x = cpn_xray(n, seeded_rows(d, n, draw(st.integers(0, 10**6)), grid=grid))
    f = draw(st.sampled_from(sorted(sid for sid in x.ids if x.dim(sid) > 0)))
    return x, f


@settings(deadline=None, max_examples=40)
@given(cpn_walls(), st.integers(0, 2**32))
def test_span_geometry_matches_fraction_reference(case, seed):
    """span_hyperplane of the wall against every stratum of the X-ray,
    below it or not, of any dimension: the reference's integer pair, or
    the same ValueError for a sub-flat outside the span or of the wrong
    codimension.  centroid on seeded vertex subsets equals the Fraction
    form."""
    x, f = case
    rng = random.Random(seed)
    span = x.stratum(f).wall.span
    kinds = set()
    for g in sorted(x.ids):
        sub = x.stratum(g).wall
        got = outcome_of(span_hyperplane, span, sub.span)
        assert got == outcome_of(span_plane_by_fractions, span, sub.span), (f, g)
        if got[0] is ValueError:
            kinds.add(got[1])
        else:
            kinds.add("hyperplane")
            assert all(type(c) is int for c in got[0] + (got[1],))
    assert "hyperplane" in kinds or all(x.dim(g) != x.dim(f) - 1 for g in x.below(f))
    for _ in range(5):
        verts = rng.sample(x.stratum(f).wall.vertices, rng.randint(1, len(x.stratum(f).wall.vertices)))
        assert centroid(verts) == centroid_by_fractions(verts)


def test_span_hyperplane_on_the_diagonal_line():
    """In the line through (1,1), the point (2,2) is cut out by x = 2:
    the line's pivot column is 0, so the normal is zero elsewhere."""
    line = span_from_points(pts((0, 0), (1, 1)))
    point = span_from_points(pts((2, 2)))
    assert span_hyperplane(line, point) == span_plane_by_fractions(line, point) == ((1, 0), 2)
    across = span_from_points(pts((0, 1), (1, 1)))
    errors = [outcome_of(span_hyperplane, line, other) for other in (across, line)]
    assert errors == [outcome_of(span_plane_by_fractions, line, other) for other in (across, line)]
    assert [message for _, message in errors] == [
        "sub-flat is not contained in the ambient span",
        "sub-flat is not codimension 1 in the ambient span",
    ]


def test_span_hyperplane_rejects_a_sub_flat_off_the_ambient():
    """A sub-flat whose directions lie in the ambient span but whose base
    does not is refused: the point (3,0) is off the line through (0,0)
    and (2,2), so no plane of the line passes through it."""
    line = span_from_points(pts((0, 0), (2, 2)))
    point = span_from_points(pts((3, 0)))
    refused = (ValueError, "sub-flat is not contained in the ambient span")
    assert outcome_of(span_hyperplane, line, point) == outcome_of(span_plane_by_fractions, line, point) == refused
    assert outcome_of(side_functional, line, point, as_vec((0, 0))) == refused


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
    ref.cut(span_facet_by_fractions(p.span, normal, offset))
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
    p = hull(pts((0, 0), (4, 0), (0, 4)))
    ref = Refinement(p)
    cuts = [(as_vec((1, 0)), Fraction(1)), (as_vec((0, 1)), Fraction(1)), (as_vec((2, 2)), Fraction(6))]
    for normal, offset in cuts:
        ref.cut(span_facet_by_fractions(p.span, normal, offset))
    assert ref.int_facets[len(p.facets) :: 2] == [((1, 0), 1), ((0, 1), 1), ((1, 1), 3)]
    assert len(ref.signs) == len(ref.cells) == len(set(ref.signs)) == 7
    for (ids, _), signs in zip(ref.cells, ref.signs):
        mid = tuple(sum(col) / len(ids) for col in zip(*(scaled_point(ref, v) for v in ids)))
        assert signs == tuple(1 if vdot(n, mid) > c else -1 for n, c in cuts)


def test_affine_span_coords_roundtrip():
    span = span_from_points(pts((1, 1, 0), (2, 2, 0), (1, 1, 3)))
    assert span.dim == 2
    p = as_vec(("3/2", "3/2", 1))
    assert span.contains(p)
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
