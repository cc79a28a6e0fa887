"""Exact convex geometry over the rationals.

Polytopes here are small (a handful of vertices, ambient dimension a few)
but the predicates must be exact: chamber decompositions hinge on points
that lie exactly on walls.  Everything is computed over Fraction with no
epsilon anywhere.

A polytope carries both descriptions: its vertex list and a facet system
of linear inequalities.  The inequalities use ambient coordinates and are
valid for points inside the polytope's affine span; membership always
checks the span first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .ratmath import (
    RatVector,
    ZERO,
    as_vec,
    in_span,
    nullspace,
    primitive_functional,
    rank,
    rat,
    rref,
    solve_square,
    vdot,
    vneg,
    vsub,
)


@dataclass(frozen=True)
class AffineSpan:
    """Affine subspace: base point plus a canonical (RREF) linear basis.

    The basis rows are in reduced row echelon form, so two spans with the
    same linear part always store the same basis tuple; `pivots` are the
    pivot columns, which make coordinates a plain read-off.
    """

    base: RatVector
    basis: tuple[RatVector, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_points(points: Sequence[RatVector]) -> "AffineSpan":
        if not points:
            raise ValueError("empty point set")
        base = min(points)
        basis, pivots = rref([vsub(p, base) for p in points])
        return AffineSpan(base, basis, pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    def lin_contains(self, v: RatVector) -> bool:
        return in_span(self.basis, self.pivots, v)

    def contains(self, point: RatVector) -> bool:
        return self.lin_contains(vsub(point, self.base))

    def coords(self, point: RatVector) -> RatVector:
        """Coordinates of a point of the span in the canonical basis.

        With an RREF basis the coordinates are the pivot entries of the
        displacement, so this map extends to a linear functional tuple on
        the ambient space.  Only meaningful for points in the span.
        """
        disp = vsub(point, self.base)
        return tuple(disp[p] for p in self.pivots)

    def lift(self, coords: RatVector) -> RatVector:
        out = list(self.base)
        for c, row in zip(coords, self.basis, strict=True):
            out = [x + c * y for x, y in zip(out, row)]
        return tuple(out)

    def same_lin(self, other: "AffineSpan") -> bool:
        return self.basis == other.basis


Facet = tuple[RatVector, Fraction]  # (normal, offset): normal . x <= offset


@dataclass(frozen=True)
class Polytope:
    """Convex hull with exact dual description.

    vertices: the extreme points, lexicographically sorted.
    span:     affine hull, based at the lex-smallest vertex.
    facets:   irredundant inequalities cutting the polytope out of its span.
    """

    vertices: tuple[RatVector, ...]
    span: AffineSpan
    facets: tuple[Facet, ...]

    @property
    def dim(self) -> int:
        return self.span.dim

    @property
    def ambient_dim(self) -> int:
        return self.span.ambient_dim

    def contains(self, point: RatVector) -> bool:
        if len(point) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        if not self.span.contains(point):
            return False
        return all(vdot(n, point) <= c for n, c in self.facets)

    def relative_interior_contains(self, point: RatVector) -> bool:
        if len(point) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        if self.dim == 0:
            return point == self.vertices[0]
        if not self.span.contains(point):
            return False
        return all(vdot(n, point) < c for n, c in self.facets)


def hull(points: Iterable[RatVector]) -> Polytope:
    """Convex hull of finitely many rational points.

    Facets are found by exhaustive supporting-hyperplane search over
    point subsets, which is robust to any degeneracy (collinear input,
    repeated points) at the small scales this package works at.
    Degenerate input collapses to a lower-dimensional polytope rather
    than an error; a single repeated point gives a 0-polytope.
    """
    pts = sorted({as_vec(p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    if len({len(p) for p in pts}) != 1:
        raise ValueError("points of mixed dimension")
    span = AffineSpan.from_points(pts)
    k = span.dim
    if k == 0:
        return Polytope((pts[0],), span, ())

    ys = [span.coords(p) for p in pts]
    found: dict[tuple[RatVector, Fraction], None] = {}
    for comb in combinations(range(len(pts)), k):
        base_y = ys[comb[0]]
        diffs = [vsub(ys[i], base_y) for i in comb[1:]]
        ns = nullspace(diffs, k)
        if len(ns) != 1:
            continue  # affinely dependent subset: spans no unique hyperplane
        u = ns[0]
        c = vdot(u, base_y)
        has_pos = has_neg = False
        for y in ys:
            s = vdot(u, y) - c
            if s > 0:
                has_pos = True
            elif s < 0:
                has_neg = True
            if has_pos and has_neg:
                break
        if has_pos and has_neg:
            continue
        if has_pos:
            u, c = vneg(u), -c
        found[primitive_functional(u, c)] = None

    span_facets = sorted(found)
    verts = []
    for i, y in enumerate(ys):
        active = [u for u, c in span_facets if vdot(u, y) == c]
        if rank(active) == k:
            verts.append(pts[i])

    amb_facets = []
    d = span.ambient_dim
    for u, c in span_facets:
        n = [ZERO] * d
        for coef, p in zip(u, span.pivots):
            n[p] = coef
        offset = c + vdot(tuple(n), span.base)
        amb_facets.append(primitive_functional(tuple(n), offset))
    return Polytope(tuple(verts), span, tuple(sorted(amb_facets)))


@lru_cache(maxsize=1024)
def facet_polytopes(p: Polytope) -> tuple[Polytope, ...]:
    """The (dim-1)-dimensional faces of p, one polytope per facet.

    The cache is bounded so a long-lived process does not grow with
    every X-ray it sees; one X-ray's validation, crossing graphs and
    propagation use a few hundred entries at the sizes this package
    handles.
    """
    out = []
    for n, c in p.facets:
        on = [v for v in p.vertices if vdot(n, v) == c]
        out.append(hull(on))
    return tuple(out)


def faces(p: Polytope, k: int) -> list[Polytope]:
    """All k-dimensional faces of p, deduplicated, in vertex-lex order."""
    if not 0 <= k <= p.dim:
        raise ValueError(f"face dimension {k} out of range for a {p.dim}-polytope")
    level = {p.vertices: p}
    for _ in range(p.dim - k):
        nxt: dict[tuple[RatVector, ...], Polytope] = {}
        for q in level.values():
            for f in facet_polytopes(q):
                nxt[f.vertices] = f
        level = nxt
    return [level[key] for key in sorted(level)]


def centroid(points: Sequence[RatVector]) -> RatVector:
    """Average of a nonempty point list, exact."""
    return tuple(sum(col, ZERO) / len(points) for col in zip(*points))


def span_facet(span: AffineSpan, normal: RatVector, offset: Fraction) -> Facet:
    """{x in span : normal . x <= offset} in `hull`'s canonical form.

    The normal is supported on the span's pivot columns, and (normal,
    offset) is primitive integer, so a facet of any full-dimensional
    polytope in the span compares equal to the one `hull` finds.
    """
    n = [ZERO] * span.ambient_dim
    for row, p in zip(span.basis, span.pivots):
        n[p] = vdot(normal, row)
    n = tuple(n)
    return primitive_functional(n, offset - vdot(normal, span.base) + vdot(n, span.base))


def tight_mask(p: Polytope, point: RatVector) -> int:
    """Bitmask of p's facets through point: bit i is set when point lies
    on p.facets[i]."""
    return sum(1 << i for i, (n, c) in enumerate(p.facets) if vdot(n, point) == c)


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


Cell = tuple[tuple[int, ...], tuple[int, ...]]  # vertex ids, tight mask of each vertex


class Refinement:
    """A polytope cut into cells by hyperplanes of its span, kept by
    double description (Motzkin et al. 1953; Fukuda & Prodon 1996).

    points: every vertex of every cell, by id; cells share ids.
    facets: the inequality table, in `span_facet` form: the polytope's
            own facets, then both orientations of each cut.
    cells:  (vertex ids, tight masks): bit i of a vertex's mask is set
            when the vertex lies on facets[i].  The masks only ever name
            facets of the cell, so their union is the cell's facet set.
    signs:  each cell's sign vector over the cuts, in cut order: -1 or
            +1 as the cell's interior lies below or above the cut.

    No hull is taken: a cut finds new vertices and facets from the masks
    alone (`cut`), and a union of cells reads its vertices off the
    masks' normals (`vertices`).
    """

    def __init__(self, p: Polytope):
        self.span = p.span
        self.points = list(p.vertices)
        self.facets = list(p.facets)
        tight = tuple(tight_mask(p, v) for v in p.vertices)
        self.cells: list[Cell] = [(tuple(range(len(self.points))), tight)]
        self.signs: list[tuple[int, ...]] = [()]
        self._tight_at: list[int] | None = None

    def cut(self, normal: RatVector, offset: Fraction) -> None:
        """Split every cell with vertices strictly on both sides of the
        hyperplane normal . x = offset into its lower and upper halves,
        in that order, and extend every sign vector by the cell's side:
        -1 for a lower half or a cell below the plane, +1 otherwise.
        normal must be a functional on the span whose zero set meets the
        span in a hyperplane.

        One double-description step per cell: a half keeps the vertices
        on its side and on the plane, and gains one point on each edge
        ab with s(a) < 0 < s(b).  Vertices a, b span an edge when no
        third vertex is tight on all of T(a) & T(b).  An old facet
        survives in a half when one of its vertices is strictly inside
        that half; the plane is the half's one new facet.
        """
        lo = len(self.facets)
        low = span_facet(self.span, normal, offset)
        self.facets += [low, (vneg(low[0]), -low[1])]
        vals = [vdot(normal, p) - offset for p in self.points]
        edge_points: dict[tuple[int, int], int] = {}
        cells: list[Cell] = []
        signs: list[tuple[int, ...]] = []
        for (ids, tight), sv in zip(self.cells, self.signs):
            neg = [(v, t) for v, t in zip(ids, tight) if vals[v] < 0]
            pos = [(v, t) for v, t in zip(ids, tight) if vals[v] > 0]
            if not (neg and pos):
                cells.append((ids, tight))
                signs.append(sv + (-1 if neg else 1,))
                continue
            on = [(v, t) for v, t in zip(ids, tight) if vals[v] == 0]
            cross = []
            for a, ta in neg:
                for b, tb in pos:
                    common = ta & tb
                    if any(v != a and v != b and t & common == common for v, t in zip(ids, tight)):
                        continue
                    key = (a, b) if a < b else (b, a)
                    if key not in edge_points:
                        pa, pb = self.points[a], self.points[b]
                        step = vals[a] / (vals[a] - vals[b])
                        edge_points[key] = len(self.points)
                        self.points.append(tuple(x + step * (y - x) for x, y in zip(pa, pb)))
                    cross.append((edge_points[key], common))
            for side, bit in ((neg, lo), (pos, lo + 1)):
                keep = 0
                for _, t in side:
                    keep |= t
                plane = 1 << bit
                half = side + [(v, t & keep | plane) for v, t in on] + [(v, t | plane) for v, t in cross]
                cells.append((tuple(v for v, _ in half), tuple(t for _, t in half)))
            signs += [sv + (-1,), sv + (1,)]
        self.cells = cells
        self.signs = signs
        self._tight_at = None

    def vertices(self, candidates: Iterable[int], mask: int) -> list[int]:
        """The candidates that are vertices of the polytope the facets in
        mask cut out of the span: those whose tight normals have full rank.

        A candidate's tight set is the union of its masks over all cells.
        That holds every facet in mask through it when the facets are
        those of a union of cells, or of two unions meeting in a face,
        and the candidates are vertices of those cells: the cells form a
        face-to-face complex, so a facet through a candidate is tiled by
        cell facets that have it as a vertex.
        """
        if self._tight_at is None:
            self._tight_at = [0] * len(self.points)
            for ids, tight in self.cells:
                for v, t in zip(ids, tight):
                    self._tight_at[v] |= t
        k = self.span.dim
        return [
            v
            for v in candidates
            if rank([self.facets[i][0] for i in _bits(self._tight_at[v] & mask)]) == k
        ]

    def polytope(self, ids: Iterable[int], mask: int) -> Polytope:
        """The polytope with vertex ids ids and the facets in mask."""
        verts = tuple(sorted(self.points[v] for v in ids))
        span = AffineSpan(verts[0], self.span.basis, self.span.pivots)
        return Polytope(verts, span, tuple(sorted(self.facets[i] for i in _bits(mask))))


@dataclass(frozen=True)
class SideFunctional:
    """Oriented affine functional vanishing on a separating hyperplane.

    value(x) = normal . x - offset is zero exactly on the separator,
    positive on the side it was oriented toward.  on_vector classifies
    displacement vectors (weights) by the same linear part.
    """

    normal: RatVector
    offset: Fraction

    def value(self, point: RatVector) -> Fraction:
        return vdot(self.normal, point) - self.offset

    def on_vector(self, v: RatVector) -> Fraction:
        return vdot(self.normal, v)


def _complete_to_ambient(rows: list[RatVector], d: int) -> list[RatVector]:
    """Extend independent rows to a basis of Q^d with standard basis vectors."""
    out = list(rows)
    basis, pivots = rref(out)
    for i in range(d):
        if len(out) == d:
            break
        e = tuple(Fraction(1) if j == i else ZERO for j in range(d))
        if not in_span(basis, pivots, e):
            out.append(e)
            basis, pivots = rref(out)
    return out


def span_hyperplane(ambient: AffineSpan, sub: AffineSpan) -> Facet:
    """Unoriented hyperplane (normal, offset) through `sub` within `ambient`.

    `sub` must have codimension 1 in `ambient`.  The normal is zero on
    `sub`'s directions and on the standard basis vectors that complete
    them and one of `ambient`'s to a basis of Q^d.  That completion is
    fixed by the RREF bases, so the key is canonical: the normal is
    primitive integer with first nonzero entry positive, and two
    sub-flats spanning the same hyperplane produce equal keys.  The
    normal need not vanish on the orthogonal complement of `ambient`
    (for the line through (1,1) in Q^2 it is (0, 1)), so it classifies
    only vectors in `ambient`'s linear span.  Those are all it is given:
    `_build_edge` classifies `stratum_weights_in(x, g, f)`, and the
    cell cuts in `arrangement._decompose` evaluate it at points of the
    wall.
    """
    if not all(ambient.lin_contains(b) for b in sub.basis):
        raise ValueError("sub-flat is not contained in the ambient span")
    if sub.dim != ambient.dim - 1:
        raise ValueError("sub-flat is not codimension 1 in the ambient span")
    d = ambient.ambient_dim
    rows = list(sub.basis)
    pick = next(
        (b for b in ambient.basis if not in_span(sub.basis, sub.pivots, b)),
        None,
    )
    if pick is None:
        raise ValueError("degenerate ambient/sub flat pair")
    rows.append(pick)
    rows = _complete_to_ambient(rows, d)
    rhs = tuple(Fraction(1) if i == sub.dim else ZERO for i in range(d))
    normal = solve_square(rows, rhs)
    offset = vdot(normal, sub.base)
    normal, offset = primitive_functional(normal, offset)
    lead = next(x for x in normal if x != 0)
    if lead < 0:
        normal, offset = vneg(normal), -offset
    return normal, offset


def side_functional(ambient: AffineSpan, separator: AffineSpan, toward: RatVector) -> SideFunctional:
    """The hyperplane of span_hyperplane(ambient, separator), oriented
    so that the functional is positive at `toward`."""
    normal, offset = span_hyperplane(ambient, separator)
    side = vdot(normal, toward) - offset
    if side == 0:
        raise ValueError("toward point lies on the separator")
    if side < 0:
        normal, offset = vneg(normal), -offset
    return SideFunctional(normal, offset)


def clip_halfspace(p: Polytope, normal: RatVector, offset: Fraction) -> Polytope | None:
    """Exact intersection of p with {x : normal . x <= offset}.

    May drop dimension (the cut can graze a face); returns None when the
    intersection is empty.

    Nothing in the package calls it since `Refinement.cut` splits cells
    by double description.  It stays as the reference that cut is tested
    against in tests/test_exactgeom.py, and because bench/tracer.py binds
    it by name.
    """
    vals = {v: vdot(normal, v) - offset for v in p.vertices}
    if all(s <= 0 for s in vals.values()):
        return p
    keep = [v for v, s in vals.items() if s <= 0]
    cross: list[RatVector] = []
    if p.dim >= 1:
        for edge in faces(p, 1):
            a, b = edge.vertices
            sa, sb = vals[a], vals[b]
            if (sa < 0 < sb) or (sb < 0 < sa):
                t = sa / (sa - sb)
                cross.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    if not keep and not cross:
        return None
    return hull(keep + cross)


def clip_to_polytope(p: Polytope, q: Polytope) -> Polytope | None:
    """Intersection p with q's facet system: exact p cap q when p's span
    is contained in q's span (the only way this is used).

    Nothing in the package calls it since the crossing graph is read off
    the subchamber refinement.  It stays as the pairwise reference in
    tests/test_arrangement.py, and because bench/tracer.py binds it by
    name; tests/test_scripts.py checks that binding."""
    cur: Polytope | None = p
    for n, c in q.facets:
        if cur is None:
            return None
        cur = clip_halfspace(cur, n, c)
    return cur
