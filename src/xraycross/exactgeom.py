"""Exact convex geometry over the rationals.

Polytopes here are small (a handful of vertices, ambient dimension a few)
but the predicates must be exact: chamber decompositions hinge on points
that lie exactly on walls.  There is no epsilon anywhere.  Every predicate
runs in integers: a point's denominators are cleared once into (P, D)
(`clear_denominators`), so a . x <= b is decided as a . P <= b * D
against integer equations and facets that each span and polytope builds
once.  Fractions remain for stored coordinates and output.

A polytope carries both descriptions: its vertex list and a facet system
of linear inequalities.  The inequalities use ambient coordinates and are
valid for points inside the polytope's affine span; membership always
checks the span first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .ratmath import (
    RatVector,
    ZERO,
    as_vec,
    clear_denominators,
    cross_product,
    idot,
    primitive_functional,
    rank,
    rref,
    solve_square,
    vdot,
    vneg,
    vsub,
)

IntFunctional = tuple[tuple[int, ...], int]  # (a, b): the form a . x against b


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

    @cached_property
    def equations(self) -> tuple[IntFunctional, ...]:
        """Primitive integer (a, b) whose solutions a . x = b, taken
        together, are the span: one per non-pivot column, from the
        annihilator of the RREF basis (Fractions here, once per span)."""
        out = []
        for fc in range(self.ambient_dim):
            if fc in self.pivots:
                continue
            a = [ZERO] * self.ambient_dim
            a[fc] = Fraction(1)
            for row, p in zip(self.basis, self.pivots):
                a[p] = -row[fc]
            normal, offset = primitive_functional(tuple(a), vdot(a, self.base))
            out.append((tuple(int(x) for x in normal), int(offset)))
        return tuple(out)

    def holds(self, scaled: tuple[int, ...], den: int) -> bool:
        """Does the point scaled / den lie in the span?"""
        return all(idot(a, scaled) == b * den for a, b in self.equations)

    def lin_holds(self, scaled: Sequence[int]) -> bool:
        """Does the integer vector scaled lie in the span's linear part?"""
        return all(idot(a, scaled) == 0 for a, _ in self.equations)

    def lin_contains(self, v: RatVector) -> bool:
        return self.lin_holds(clear_denominators(v)[0])

    def contains(self, point: RatVector) -> bool:
        return self.holds(*clear_denominators(point))

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

    @cached_property
    def int_facets(self) -> tuple[IntFunctional, ...]:
        """The facets as integer tuples, each a positive multiple of
        (normal, offset); `hull`'s facets are primitive integer already."""
        out = []
        for n, c in self.facets:
            ints, _ = clear_denominators(n + (c,))
            out.append((ints[:-1], ints[-1]))
        return tuple(out)

    @cached_property
    def vertex_masks(self) -> tuple[int, ...]:
        """`tight_mask` of each vertex, in vertex order: the vertex-facet
        incidences."""
        return tuple(tight_mask(self, v) for v in self.vertices)

    def contains(self, point: RatVector) -> bool:
        if len(point) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        scaled, den = clear_denominators(point)
        if not self.span.holds(scaled, den):
            return False
        return all(idot(n, scaled) <= c * den for n, c in self.int_facets)

    def relative_interior_contains(self, point: RatVector) -> bool:
        if len(point) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        if self.dim == 0:
            return point == self.vertices[0]
        scaled, den = clear_denominators(point)
        if not self.span.holds(scaled, den):
            return False
        return all(idot(n, scaled) < c * den for n, c in self.int_facets)


def hull(points: Iterable[RatVector]) -> Polytope:
    """Convex hull of finitely many rational points.

    Facets are found by exhaustive supporting-hyperplane search over
    point subsets, which is robust to any degeneracy (collinear input,
    repeated points) at the small scales this package works at.
    Degenerate input collapses to a lower-dimensional polytope rather
    than an error; a single repeated point gives a 0-polytope.

    The search runs in integers: the points are scaled by one common
    denominator, a k-subset's normal in the span coordinates is the
    generalized cross product of its k - 1 differences (`cross_product`), and
    every side and tightness test is an integer dot product.
    """
    pts = sorted({as_vec(p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    if len({len(p) for p in pts}) != 1:
        raise ValueError("points of mixed dimension")
    d = len(pts[0])
    flat, den = clear_denominators([c for p in pts for c in p])
    scaled = [flat[i : i + d] for i in range(0, len(flat), d)]
    origin = scaled[0]
    basis, pivots = rref([tuple(x - o for x, o in zip(p, origin)) for p in scaled])
    span = AffineSpan(pts[0], basis, pivots)
    k = span.dim
    if k == 0:
        return Polytope((pts[0],), span, ())

    # den times the span coordinates of each point.
    ys = [tuple(p[j] - origin[j] for j in pivots) for p in scaled]
    found: dict[IntFunctional, None] = {}
    for comb in combinations(ys, k):
        base_y = comb[0]
        u = cross_product([[a - b for a, b in zip(y, base_y)] for y in comb[1:]], k)
        if u is None:
            continue  # affinely dependent subset: spans no unique hyperplane
        c = idot(u, base_y)
        has_pos = has_neg = False
        for y in ys:
            s = idot(u, y) - c
            if s > 0:
                has_pos = True
            elif s < 0:
                has_neg = True
            if has_pos and has_neg:
                break
        if has_pos and has_neg:
            continue
        g = gcd(c, *u)
        if has_pos:
            g = -g
        found[tuple(a // g for a in u), c // g] = None

    verts = [pts[i] for i, y in enumerate(ys) if rank([u for u, c in found if idot(u, y) == c]) == k]

    # u . y <= c on den-scaled span coordinates is den * u . x[pivots]
    # <= c + u . origin[pivots] on the ambient point x.
    amb_facets = []
    for u, c in found:
        n = [0] * d
        for coef, p in zip(u, pivots):
            n[p] = den * coef
        offset = c + idot(u, (origin[p] for p in pivots))
        g = gcd(offset, *n)
        amb_facets.append((tuple(Fraction(a // g) for a in n), Fraction(offset // g)))
    return Polytope(tuple(verts), span, tuple(sorted(amb_facets)))


@lru_cache(maxsize=1024)
def facet_polytopes(p: Polytope) -> tuple[Polytope, ...]:
    """The (dim-1)-dimensional faces of p, one polytope per facet.

    Nothing in the package calls it: faces are read off the vertex masks
    (`face_lattice`), so its process-global cache stays empty.  It stays
    because bench/tracer.py binds it by name and bench/run.py reports
    its `cache_info()`; tests/test_arrangement.py also uses it.
    """
    return tuple(hull(v for v, t in zip(p.vertices, p.vertex_masks) if t >> i & 1) for i in range(len(p.facets)))


def face_lattice(p: Polytope) -> list[list[int]]:
    """Every nonempty face of p as a bitmask over p.vertices (bit j for
    vertices[j]); entry k lists the k-dimensional faces.

    The lattice is read off the vertex-facet incidences alone (Kaibel &
    Pfetsch 2002; Ziegler, Lectures on Polytopes, ch. 2): the facets of a
    face F are the maximal proper nonempty sets F & V_i, where V_i holds
    the vertices on facet i of p.  Each F & V_i is a face of F, and a
    facet G of F is a face of p, cut out by the facets of p through it,
    one of which misses a vertex of F; so G = F & V_i for that i.
    """
    on = [0] * len(p.facets)
    for j, t in enumerate(p.vertex_masks):
        for i in bits(t):
            on[i] |= 1 << j
    levels = [[(1 << len(p.vertices)) - 1]]
    for _ in range(p.dim):
        below: dict[int, None] = {}
        for f in levels[-1]:
            cuts = {f & v for v in on} - {0, f}
            for c in cuts:
                if not any(c != o and c & o == c for o in cuts):
                    below[c] = None
        levels.append(list(below))
    return levels[::-1]


def faces(p: Polytope, k: int) -> list[Polytope]:
    """All k-dimensional faces of p, deduplicated, in vertex-lex order:
    each vertex set of `face_lattice` level k, hulled."""
    if not 0 <= k <= p.dim:
        raise ValueError(f"face dimension {k} out of range for a {p.dim}-polytope")
    if k == p.dim:
        return [p]
    keys = sorted(tuple(p.vertices[j] for j in bits(m)) for m in face_lattice(p)[k])
    return [hull(key) for key in keys]


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
    scaled, den = clear_denominators(point)
    return sum(1 << i for i, (n, c) in enumerate(p.int_facets) if idot(n, scaled) == c * den)


def bits(mask: int) -> Iterable[int]:
    """The indices of mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


Cell = tuple[tuple[int, ...], tuple[int, ...]]  # vertex ids, tight mask of each vertex


class Refinement:
    """A polytope cut into cells by hyperplanes of its span, kept by
    double description (Motzkin et al. 1953; Fukuda & Prodon 1996).

    points: every vertex of every cell, by id; cells share ids.
    scaled: each point's `clear_denominators` form, for the cut signs.
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
        self.scaled = [clear_denominators(v) for v in self.points]
        self.facets = list(p.facets)
        self.cells: list[Cell] = [(tuple(range(len(self.points))), p.vertex_masks)]
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
        ints, _ = clear_denominators(tuple(normal) + (offset,))
        a_int, b_int = ints[:-1], ints[-1]
        # A positive multiple of normal . p - offset at each point p.
        vals = [idot(a_int, scaled) - b_int * den for scaled, den in self.scaled]
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
                        # (vals[a] * pb - vals[b] * pa) / (vals[a] - vals[b]) on the
                        # scaled points, whose denominators cancel into den.
                        (pa, da), (pb, db) = self.scaled[a], self.scaled[b]
                        den = vals[a] * db - vals[b] * da
                        point = tuple(Fraction(vals[a] * y - vals[b] * x, den) for x, y in zip(pa, pb))
                        edge_points[key] = len(self.points)
                        self.points.append(point)
                        self.scaled.append(clear_denominators(point))
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
            if rank([self.facets[i][0] for i in bits(self._tight_at[v] & mask)]) == k
        ]

    def polytope(self, ids: Iterable[int], mask: int) -> Polytope:
        """The polytope with vertex ids ids and the facets in mask."""
        verts = tuple(sorted(self.points[v] for v in ids))
        span = AffineSpan(verts[0], self.span.basis, self.span.pivots)
        return Polytope(verts, span, tuple(sorted(self.facets[i] for i in bits(mask))))


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
    for i in range(d):
        if len(out) == d:
            break
        e = tuple(Fraction(1) if j == i else ZERO for j in range(d))
        if rank(out + [e]) > len(out):
            out.append(e)
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
        (b for b in ambient.basis if not sub.lin_contains(b)),
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
