"""Exact convex geometry over the rationals.

Polytopes here are small (a handful of vertices, ambient dimension a few)
but the predicates must be exact: chamber decompositions hinge on points
that lie exactly on walls.  There is no epsilon anywhere.  Every predicate
runs in integers: a point's denominators are cleared once into (P, D)
(`clear_denominators`), and a polytope's vertices once, over one common
denominator (`Polytope.int_vertices`), so a . x <= b is decided as
a . P <= b * D against integer equations and facets that each span and
polytope builds once.  `hull` orders its points by their integer forms
(and deduplicates more than two), and spans are keyed by an integer
form of their basis (`AffineSpan.key`).  A span stores its basis and a
polytope its facets in integers only; Fractions remain for the points
themselves (the input points, and the vertices of a refinement's cells,
made once per point from its integer form by `Refinement.point`), and
for the views `AffineSpan.basis` and `Polytope.facets` that `repr` and
output read.

A polytope carries both descriptions: its vertex list and a facet system
of linear inequalities.  The inequalities use ambient coordinates and are
valid for points inside the polytope's affine span; membership always
checks the span first.

Every hyperplane of a span has one form, `hull`'s: a primitive integer
(normal, offset) with the normal supported on the span's pivot columns.
A polytope's `int_facets`, a cut through a sub-flat (`span_hyperplane`)
and the facet table of a `Refinement` are all written in it, so a cut
along a facet is that facet, up to sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .ratmath import (
    RatVector,
    as_vec,
    clear_denominators,
    cross_product,
    idot,
    int_rank,
    int_rref,
    primitive,
    vdot,
    vneg,
)

IntFunctional = tuple[tuple[int, ...], int]  # (a, b): the form a . x against b


@dataclass(frozen=True, repr=False)
class AffineSpan:
    """Affine subspace: base point plus a canonical (RREF) linear basis,
    kept in integers.

    rows / den are the basis rows in reduced row echelon form over one
    common denominator den > 0, the lcm of their entries' denominators
    (`ratmath.int_rref`), so two spans with the same linear part always
    store the same rows and den; `pivots` are the pivot columns, which
    make coordinates a plain read-off.  `basis` is the Fraction view of
    the rows, made only for `repr` and readers of output.
    """

    base: RatVector
    rows: tuple[tuple[int, ...], ...]
    den: int
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    @property
    def basis(self) -> tuple[RatVector, ...]:
        """The RREF rows as Fractions, rows / den."""
        return tuple([tuple([Fraction(x, self.den) for x in row]) for row in self.rows])

    def __repr__(self) -> str:
        return f"AffineSpan(base={self.base!r}, basis={self.basis!r}, pivots={self.pivots!r})"

    @cached_property
    def int_base(self) -> tuple[tuple[int, ...], int]:
        """(B, D): the base point B / D (`clear_denominators`)."""
        return clear_denominators(self.base)

    @cached_property
    def equations(self) -> tuple[IntFunctional, ...]:
        """Primitive integer (a, b) whose solutions a . x = b, taken
        together, are the span: one per non-pivot column fc, from the
        annihilator of the RREF basis, in integers.  With the basis
        R / L, L times the annihilator row is L on fc and -R_p[fc] on
        each pivot p; with the base B / D its value there is a . B / D."""
        return int_equations(self.rows, self.den, self.pivots, *self.int_base)

    @cached_property
    def key(self) -> tuple[tuple[int, ...], ...]:
        """The linear part's integer key (`span_key`): equal for two
        spans exactly when their bases are.  The rows are the RREF rows
        over a positive denominator already, so each is made primitive
        and nothing is eliminated."""
        return tuple([primitive(row) for row in self.rows])

    def holds(self, scaled: tuple[int, ...], den: int) -> bool:
        """Does the point scaled / den lie in the span?"""
        return all(idot(a, scaled) == b * den for a, b in self.equations)

    def lin_holds(self, scaled: Sequence[int]) -> bool:
        """Does the integer vector scaled lie in the span's linear part?"""
        return all(idot(a, scaled) == 0 for a, _ in self.equations)

    def contains(self, point: RatVector) -> bool:
        return self.holds(*clear_denominators(point))


def int_equations(
    rows: Sequence[Sequence[int]], den_r: int, pivots: Sequence[int], base: Sequence[int], den_b: int
) -> tuple[IntFunctional, ...]:
    """`AffineSpan.equations` of the flat through base / den_b whose
    linear part has the RREF rows rows / den_r with the given pivots
    (`ratmath.int_rref`), for a flat that needs no `AffineSpan`."""
    d = len(base)
    out = []
    for fc in range(d):
        if fc in pivots:
            continue
        a = [0] * d
        a[fc] = den_r
        for row, p in zip(rows, pivots):
            a[p] = -row[fc]
        offset = idot(a, base)
        a = [x * den_b for x in a]
        g = gcd(offset, *a)
        out.append((tuple([x // g for x in a]), offset // g))
    return tuple(out)


@dataclass(frozen=True, repr=False)
class Polytope:
    """Convex hull with exact dual description.

    vertices:   the extreme points, lexicographically sorted.
    span:       affine hull, based at the lex-smallest vertex.
    int_facets: irredundant inequalities a . x <= b cutting the
                polytope out of its span, in `hull`'s facet form:
                primitive integer (a, b), in sorted order.

    `facets` is the Fraction view of int_facets, made only for `repr`
    and readers of output.
    """

    vertices: tuple[RatVector, ...]
    span: AffineSpan
    int_facets: tuple[IntFunctional, ...]

    @property
    def dim(self) -> int:
        return self.span.dim

    @property
    def ambient_dim(self) -> int:
        return self.span.ambient_dim

    @property
    def facets(self) -> tuple[tuple[RatVector, Fraction], ...]:
        """The facets as Fraction (normal, offset): normal . x <= offset."""
        return tuple([(tuple(map(Fraction, n)), Fraction(c)) for n, c in self.int_facets])

    def __repr__(self) -> str:
        return f"Polytope(vertices={self.vertices!r}, span={self.span!r}, facets={self.facets!r})"

    @cached_property
    def int_vertices(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, D): the vertices over one common denominator, vertex j
        being rows[j] / D (`clear_denominators` of all their coordinates
        at once)."""
        d = self.ambient_dim
        flat, den = clear_denominators([c for v in self.vertices for c in v])
        return tuple([flat[i : i + d] for i in range(0, len(flat), d)]), den

    @cached_property
    def vertex_masks(self) -> tuple[int, ...]:
        """`tight_mask` of each vertex, in vertex order: the vertex-facet
        incidences, tested on `int_vertices`."""
        rows, den = self.int_vertices
        facets = [(n, c * den) for n, c in self.int_facets]
        return tuple([sum(1 << i for i, (n, c) in enumerate(facets) if idot(n, v) == c) for v in rows])

    def contains(self, point: RatVector) -> bool:
        if len(point) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return self.holds(*clear_denominators(point))

    def holds(self, scaled: Sequence[int], den: int) -> bool:
        """Does the point scaled / den lie in the polytope?"""
        return self.span.holds(scaled, den) and all(idot(n, scaled) <= c * den for n, c in self.int_facets)


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
    every side and tightness test is an integer dot product.  That
    denominator is positive, so the points are deduplicated and sorted by
    their integer forms, in the order of their coordinates.  The span's
    rows and `int_base` and the polytope's `int_vertices` and
    `int_facets` are read off the same integer forms, not cleared again,
    and no Fraction is made: the vertices are input points.

    A segment (k = 1) needs no search: the points differ first on its
    one pivot column, so the sorted ends are its vertices and facets.
    Its span is one difference, which `int_rref` reduces in closed form.

    One point, or two equal ones, is the 0-polytope on its one
    `clear_denominators` form (`_vertex`), and two distinct points are
    the segment on their two forms (`_segment`): neither is deduplicated,
    sorted or eliminated, and each form is in lowest terms already, so
    no gcd is taken of the points together.  Most walls of an X-ray are
    points and segments, hulled on every load.

    A point is a vertex when the normals of the facets through it have
    rank k (`int_rank`).  The search records which points are tight on
    each new facet, so no facet is tested against every point again.
    """
    raw = [as_vec(p) for p in points]
    if not raw:
        raise ValueError("empty point set")
    if len({len(p) for p in raw}) != 1:
        raise ValueError("points of mixed dimension")
    if len(raw) == 1 or len(raw) == 2 and raw[0] == raw[1]:
        return _vertex(raw[0])
    if len(raw) == 2:
        return _segment(*raw)
    d = len(raw[0])
    flat, den = clear_denominators([c for p in raw for c in p])
    by_form: dict[tuple[int, ...], RatVector] = {}
    for i, p in zip(range(0, len(flat), d), raw):
        by_form.setdefault(flat[i : i + d], p)
    scaled = sorted(by_form)
    pts = [by_form[q] for q in scaled]
    origin = scaled[0]
    rows, den_r, pivots = int_rref([[x - o for x, o in zip(p, origin)] for p in scaled[1:]])
    g = gcd(den, *origin)
    span = _fill(AffineSpan(pts[0], rows, den_r, pivots), int_base=(tuple([x // g for x in origin]), den // g))
    k = span.dim
    if k == 0:
        return _polytope((pts[0],), [origin], den, span, ())
    if k == 1:
        return _polytope((pts[0], pts[-1]), [origin, scaled[-1]], den, span, _end_facets(pivots[0], origin, scaled[-1], den))

    # den times the span coordinates of each point, and the normals of
    # the facets found through each.
    ys = [tuple(p[j] - origin[j] for j in pivots) for p in scaled]
    through: list[list[tuple[int, ...]]] = [[] for _ in ys]
    found: dict[IntFunctional, None] = {}
    for comb in combinations(ys, k):
        base_y = comb[0]
        u = cross_product([[a - b for a, b in zip(y, base_y)] for y in comb[1:]], k)
        if u is None:
            continue  # affinely dependent subset: spans no unique hyperplane
        c = idot(u, base_y)
        has_pos = has_neg = False
        tight = []
        for i, y in enumerate(ys):
            s = idot(u, y) - c
            if s > 0:
                has_pos = True
            elif s < 0:
                has_neg = True
            else:
                tight.append(i)
            if has_pos and has_neg:
                break
        if has_pos and has_neg:
            continue
        g = gcd(c, *u)
        if has_pos:
            g = -g
        facet = tuple([a // g for a in u]), c // g
        if facet not in found:
            found[facet] = None
            for i in tight:
                through[i].append(facet[0])

    on = [i for i, t in enumerate(through) if int_rank(t) == k]

    # u . y <= c on den-scaled span coordinates is den * u . x[pivots]
    # <= c + u . origin[pivots] on the ambient point x.
    amb_facets = []
    for u, c in found:
        n = [0] * d
        for coef, p in zip(u, pivots):
            n[p] = den * coef
        offset = c + idot(u, (origin[p] for p in pivots))
        g = gcd(offset, *n)
        amb_facets.append((tuple([a // g for a in n]), offset // g))
    return _polytope(tuple([pts[i] for i in on]), [scaled[i] for i in on], den, span, tuple(sorted(amb_facets)))


def _vertex(point: RatVector) -> Polytope:
    """`hull((point,))`: the 0-polytope, its span and `int_vertices` read
    off the point's one `clear_denominators` form."""
    form = clear_denominators(point)
    span = _fill(AffineSpan(point, (), 1, ()), int_base=form)
    return _fill(Polytope((point,), span, ()), int_vertices=((form[0],), form[1]))


def _segment(a: RatVector, b: RatVector) -> Polytope:
    """`hull((a, b))` of two distinct points, from their cleared forms.

    Over the lcm D of their denominators the ends are ordered by integer
    form, low end first, and no gcd is taken of both together: each
    form is in lowest terms, so the low end's is the span's `int_base`,
    and no prime divides D and every coordinate of both.  The one RREF
    row is the difference hi - lo over its gcd, whose first nonzero
    entry, the pivot, is positive (`ratmath.int_rref`)."""
    (pa, da), (pb, db) = fa, fb = clear_denominators(a), clear_denominators(b)
    den = lcm(da, db)
    lo, hi = tuple([x * (den // da) for x in pa]), tuple([x * (den // db) for x in pb])
    if hi < lo:
        a, b, fa, lo, hi = b, a, fb, hi, lo
    diff = [y - x for x, y in zip(lo, hi)]
    p = next(j for j, x in enumerate(diff) if x)
    g = gcd(*diff)
    span = _fill(AffineSpan(a, (tuple([x // g for x in diff]),), diff[p] // g, (p,)), int_base=fa)
    return _fill(Polytope((a, b), span, _end_facets(p, lo, hi, den)), int_vertices=((lo, hi), den))


def _end_facets(p: int, lo: tuple[int, ...], hi: tuple[int, ...], den: int) -> tuple[IntFunctional, ...]:
    """A segment's facets, -x_p <= -lo_p / den and x_p <= hi_p / den made
    primitive, for ends lo / den < hi / den differing first at column p:
    in sorted order, as the normals differ only at p."""
    facets = []
    for sgn, end in ((-1, lo[p]), (1, hi[p])):
        g = gcd(end, den)
        n = [0] * len(lo)
        n[p] = sgn * den // g
        facets.append((tuple(n), sgn * end // g))
    return tuple(facets)


def _polytope(
    verts: tuple[RatVector, ...], scaled: list[tuple[int, ...]], den: int, span: AffineSpan, facets: tuple[IntFunctional, ...]
) -> Polytope:
    """The polytope `hull` found: vertices verts, scaled / den in integers,
    and primitive integer facets in sorted order.  Its `int_vertices`,
    over the vertices' own least common denominator, are filled in from
    those."""
    g = gcd(den, *[x for q in scaled for x in q])
    return _fill(Polytope(verts, span, facets), int_vertices=(tuple([tuple([x // g for x in q]) for q in scaled]), den // g))


def _fill(obj, **values):
    """obj with the given cached properties set, as `cached_property`
    stores them, to values at hand that equal what each would compute."""
    obj.__dict__.update(values)
    return obj


@lru_cache(maxsize=1024)
def facet_polytopes(p: Polytope) -> tuple[Polytope, ...]:
    """The (dim-1)-dimensional faces of p, one polytope per facet.

    Nothing in the package calls it: faces are read off the vertex masks
    (`face_lattice`), so its process-global cache stays empty.  It stays
    because bench/tracer.py binds it by name and bench/run.py reports
    its `cache_info()`; tests/test_arrangement.py also uses it.
    """
    return tuple(hull(v for v, t in zip(p.vertices, p.vertex_masks) if t >> i & 1) for i in range(len(p.int_facets)))


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
    on = [0] * len(p.int_facets)
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


def tight_mask(p: Polytope, point: RatVector) -> int:
    """Bitmask of p's facets through point: bit i is set when point lies
    on p.int_facets[i]."""
    scaled, den = clear_denominators(point)
    return sum(1 << i for i, (n, c) in enumerate(p.int_facets) if idot(n, scaled) == c * den)


def bits(mask: int) -> Iterable[int]:
    """The indices of mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


Cell = tuple[tuple[int, ...], tuple[int, ...]]  # vertex ids ascending, tight mask of each vertex


class Refinement:
    """A polytope cut into cells by hyperplanes of its span, kept by
    double description (Motzkin et al. 1953; Fukuda & Prodon 1996).

    scaled: every vertex of every cell, by id, in `clear_denominators`
            form; cells share ids, and the chambers built from them
            share one Fraction tuple per id (`point`).
    int_facets: the inequality table, in `hull`'s integer facet form:
            the polytope's own facets, then both orientations of each
            cut.
    normals: each facet's integer normal on the span's pivot columns,
            where it is supported, for the rank tests in `vertices`.
    cells:  (vertex ids, tight masks), ids ascending: bit i of a
            vertex's mask is set when the vertex lies on int_facets[i].
            The masks only ever name facets of the cell, so their union
            is the cell's facet set.
    signs:  each cell's sign vector over the cuts, in cut order: -1 or
            +1 as the cell's interior lies below or above the cut.

    No hull is taken: a cut finds new vertices and facets from the masks
    alone (`cut`), and a union of cells reads its vertices off the
    masks' normals (`vertices`).
    """

    def __init__(self, p: Polytope):
        self.span = p.span
        self.scaled = [clear_denominators(v) for v in p.vertices]
        self.int_facets = list(p.int_facets)
        self.normals = [tuple(n[j] for j in p.span.pivots) for n, _ in p.int_facets]
        self.cells: list[Cell] = [(tuple(range(len(self.scaled))), p.vertex_masks)]
        self.signs: list[tuple[int, ...]] = [()]
        self._masks_at: list[list[int]] | None = None
        self._points: dict[int, RatVector] = dict(enumerate(p.vertices))

    def cut(self, plane: IntFunctional) -> None:
        """Split every cell with vertices strictly on both sides of the
        hyperplane n . x = c into its lower and upper halves, in that
        order, and extend every sign vector by the cell's side: -1 for a
        lower half or a cell below the plane, +1 otherwise.  plane is
        (n, c) in `hull`'s facet form (`span_hyperplane`), and its zero
        set meets the span in a hyperplane.

        One double-description step per cell: a half keeps the vertices
        on its side and on the plane, and gains one point on each edge
        ab with s(a) < 0 < s(b).  Vertices a, b span an edge when no
        third vertex is tight on all of T(a) & T(b).  An old facet
        survives in a half when one of its vertices is strictly inside
        that half; the plane is the half's one new facet.
        """
        lo = len(self.int_facets)
        n, c = plane
        neg = tuple([-x for x in n])
        self.int_facets += [plane, (neg, -c)]
        on_pivots = tuple([n[j] for j in self.span.pivots])
        self.normals += [on_pivots, tuple([-x for x in on_pivots])]
        k = self.span.dim
        # den times n . p - c at each point p.
        vals = [idot(n, scaled) - c * den for scaled, den in self.scaled]
        edge_points: dict[tuple[int, int], int] = {}
        cells: list[Cell] = []
        signs: list[tuple[int, ...]] = []
        for (ids, tight), sv in zip(self.cells, self.signs):
            at = [vals[v] for v in ids]
            low, high = min(at), max(at)
            if low >= 0 or high <= 0:
                cells.append((ids, tight))
                signs.append(sv + (-1 if low < 0 else 1,))
                continue
            neg = [(v, t) for v, t, s in zip(ids, tight, at) if s < 0]
            pos = [(v, t) for v, t, s in zip(ids, tight, at) if s > 0]
            on = [(v, t) for v, t, s in zip(ids, tight, at) if s == 0]
            cross = []
            for a, ta in neg:
                for b, tb in pos:
                    common = ta & tb
                    if common.bit_count() < k - 1:
                        continue  # an edge of a k-polytope lies on k - 1 facets
                    if any(v != a and v != b and t & common == common for v, t in zip(ids, tight)):
                        continue
                    key = (a, b) if a < b else (b, a)
                    if key not in edge_points:
                        # (vals[b] * pa - vals[a] * pb) / (vals[b] - vals[a]) on the
                        # scaled points, whose denominators cancel into den > 0.
                        # Over their gcd, nums and den are the point's
                        # `clear_denominators` form.
                        (pa, da), (pb, db) = self.scaled[a], self.scaled[b]
                        den = vals[b] * da - vals[a] * db
                        nums = [vals[b] * x - vals[a] * y for x, y in zip(pa, pb)]
                        g = gcd(den, *nums)
                        edge_points[key] = len(self.scaled)
                        self.scaled.append((tuple([x // g for x in nums]), den // g))
                    cross.append((edge_points[key], common))
            for side, bit in ((neg, lo), (pos, lo + 1)):
                keep = 0
                for _, t in side:
                    keep |= t
                plane = 1 << bit
                half = sorted(side + [(v, t & keep | plane) for v, t in on] + [(v, t | plane) for v, t in cross])
                cells.append((tuple([v for v, _ in half]), tuple([t for _, t in half])))
            signs += [sv + (-1,), sv + (1,)]
        self.cells = cells
        self.signs = signs
        self._masks_at = None

    def vertices(self, candidates: Iterable[int], mask: int) -> list[int]:
        """The candidates that are vertices of the polytope the facets in
        mask cut out of the span: those whose tight normals have full rank.

        A candidate's tight set is the union of its masks over all cells.
        That holds every facet in mask through it when the facets are
        those of a union of cells, or of two unions meeting in a face,
        and the candidates are vertices of those cells: the cells form a
        face-to-face complex, so a facet through a candidate is tiled by
        cell facets that have it as a vertex.  A candidate on fewer than
        k of the facets in mask is rejected at once.  A vertex's mask in
        one cell names all of that cell's facets through it, whose
        normals have full rank; so when one of them lies inside mask the
        rank test is passed already, and the integer normals are ranked
        (`int_rank`) only for the other candidates.
        """
        if self._masks_at is None:
            self._masks_at = [[] for _ in self.scaled]
            for ids, tight in self.cells:
                for v, t in zip(ids, tight):
                    self._masks_at[v].append(t)
        k = self.span.dim
        out = []
        for v in candidates:
            masks = self._masks_at[v]
            tight = 0
            for t in masks:
                tight |= t
            tight &= mask
            if tight.bit_count() < k:
                continue
            if any(t & mask == t for t in masks) or int_rank([self.normals[i] for i in bits(tight)]) == k:
                out.append(v)
        return out

    def mean(self, ids: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """The vertex centroid of the points ids as (P, D), the point
        P / D, summed from their integer forms with no Fraction."""
        den = lcm(*[self.scaled[v][1] for v in ids])
        rows = [[x * (den // d) for x in p] for p, d in (self.scaled[v] for v in ids)]
        return tuple([sum(col) for col in zip(*rows)]), den * len(ids)

    def point(self, v: int) -> RatVector:
        """Point v as Fractions: one tuple per id, made from its integer
        form the first time it is read, and the refined polytope's own
        vertex tuples for its vertices, so every chamber through a point
        holds the same tuple."""
        pt = self._points.get(v)
        if pt is None:
            p, d = self.scaled[v]
            pt = self._points[v] = tuple([Fraction(x, d) for x in p])
        return pt

    def polytope(self, ids: Sequence[int], mask: int) -> Polytope:
        """The polytope with vertex ids ids and the facets in mask, built
        as `hull` builds it (`_polytope`), so its `int_vertices` are
        filled in, and its span's `int_base` too.  Its vertices are the
        refinement's shared tuples (`point`), so the only Fractions made
        are those of a point no chamber has read before.

        The vertices are sorted by their integer forms over one common
        denominator, which is positive, so in the order of their
        coordinates, and the facets by their integer forms.  The span
        shares the refined polytope's rows: a cell is full-dimensional
        in it."""
        den = lcm(*[self.scaled[v][1] for v in ids])
        rows = []
        for v in ids:
            p, d = self.scaled[v]
            rows.append((tuple([x * (den // d) for x in p]), v))
        rows.sort()
        verts = tuple([self.point(v) for _, v in rows])
        span = _fill(AffineSpan(verts[0], self.span.rows, self.span.den, self.span.pivots), int_base=self.scaled[rows[0][1]])
        facets = tuple(sorted([self.int_facets[i] for i in bits(mask)]))
        return _polytope(verts, [q for q, _ in rows], den, span, facets)


@dataclass(frozen=True)
class SideFunctional:
    """Oriented affine functional vanishing on a separating hyperplane.

    value(x) = normal . x - offset is zero exactly on the separator,
    positive on the side it was oriented toward.  on_vector classifies
    displacement vectors (weights) by the same linear part.  normal and
    offset are `span_hyperplane`'s integers, up to sign.
    """

    normal: tuple[int, ...]
    offset: int

    def value(self, point: RatVector) -> Fraction:
        return vdot(self.normal, point) - self.offset

    def on_vector(self, v: RatVector) -> Fraction:
        return vdot(self.normal, v)


def span_hyperplane(ambient: AffineSpan, sub: AffineSpan) -> IntFunctional:
    """The hyperplane through `sub` within `ambient`, in `hull`'s facet
    form: the primitive integer (normal, offset), normal supported on
    `ambient`'s pivot columns, with its first nonzero entry positive.

    `sub` must lie in `ambient` with codimension 1.  A vector of
    `ambient`'s linear part is fixed by its pivot entries, so the
    functionals supported there that vanish on `sub`'s directions are
    the multiples of one, and the form is canonical: two sub-flats
    spanning the same hyperplane give equal pairs, and a cut along a
    facet of a full-dimensional polytope in `ambient` is that facet's
    `Polytope.int_facets` entry or its negation.  The normal need not
    vanish on the orthogonal complement of `ambient` (in the line
    through (1,1) in Q^2, the point (2,2) is cut out by x = 2), so it
    classifies only vectors in `ambient`'s linear span.  Those are all
    it is given: `arrangement.crossing_graph` classifies
    `scaled_weights_in(x, g, f)` (g's weights in f's span, in
    integers), and `Refinement.cut` evaluates it at points of the wall.

    It runs in integers: on the pivot columns, `sub`'s integer basis
    rows leave one direction, their generalized cross product
    (`cross_product`), and the offset is that normal at `sub`'s base
    with its denominators cleared.
    """
    rows = sub.rows
    base, den = sub.int_base
    if not (ambient.holds(base, den) and all(ambient.lin_holds(row) for row in rows)):
        raise ValueError("sub-flat is not contained in the ambient span")
    if sub.dim != ambient.dim - 1:
        raise ValueError("sub-flat is not codimension 1 in the ambient span")
    pivots = ambient.pivots
    u = cross_product([[row[j] for j in pivots] for row in rows], len(pivots))
    normal = [0] * ambient.ambient_dim
    for j, c in zip(pivots, u):
        normal[j] = c * den
    offset = idot(u, [base[j] for j in pivots])
    g = gcd(offset, *normal)
    if next(c for c in normal if c) < 0:
        g = -g
    return tuple([c // g for c in normal]), offset // g


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


def clip_halfspace(p: Polytope, normal: Sequence[int | Fraction], offset: int | Fraction) -> Polytope | None:
    """Exact intersection of p with {x : normal . x <= offset}, for an
    integer or rational normal and offset.

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
    for n, c in q.int_facets:
        if cur is None:
            return None
        cur = clip_halfspace(cur, n, c)
    return cur
