"""Weighted X-rays: the combinatorial shadow of a Hamiltonian torus action.

An X-ray is a finite poset of strata, each carrying a rational polytope
(its wall).  Vertex strata (0-dimensional walls) additionally carry the
isotropy weights of the fixed component and seed values for the invariants
(signature, Poincare polynomial, Euler characteristic).  The validators
check the three structural axioms that make the wall-crossing recursion
sound: the face condition and span-uniqueness on the poset, weight
consistency along strata, and the local Darboux model at every vertex.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import MalformedXray
from .exactgeom import Polytope, bits, face_lattice, hull, tight_mask
from .intpoly import IntPolynomial
from .ratmath import (
    RatVector,
    as_vec,
    clear_denominators,
    format_rational,
    idot,
    int_rank,
    primitive,
    rat,
    solve_scaled,
    span_key,
)

# `hull` tries every vertex subset of size <= torus_rank, so a stratum
# with more than this many is refused before any geometry runs.  At this
# bound one hull takes 0.3-1 s on a 2-CPU Xeon VM (199 points in convex
# position at d = 2: 1.0 s); `delzant --cube 4`, the largest input the
# tests and the benchmark build, has 2517.
MAX_HULL_SUBSETS = 20_000

# `hull` scales a stratum's points by the lcm of all their denominators,
# so its cost grows with that lcm's length as well: a stratum whose hull
# subset count times the decimal digits of the lcm exceeds this is refused
# before any geometry runs.  On the VM above, 199 points in convex
# position at d = 2 (19 901 subsets) hull in 0.6 s with integer
# coordinates, 1.0 s with a 43-digit lcm (855 743, inside the bound) and
# 3.4 s with distinct 3-digit denominators whose lcm has 185 digits (3.7
# million, refused).  `delzant --cube 4` is at 2 517, and every input the
# tests and the benchmark build is at most a few thousand.
MAX_HULL_WORK = 1_000_000

# More strata than this are refused before any geometry runs.  The
# ancestor sets grow with the square of the order's depth: at this bound
# a chain (each stratum the only parent of the next) loads in 0.3 s with
# a 70 MB peak on a 2-CPU Xeon VM, and a checked load of it, which finds
# about 10^6 dimension and span violations, takes 16 s with a 330 MB
# peak.  `delzant --cube 4` has 81 strata and a generic CP^8 under a
# rank-4 torus 256.
MAX_STRATA = 1_000

# A rational whose numerator or denominator has more digits than this is
# refused before any hull.  On the same VM a checked load of a seeded
# (3, 5) CP^n X-ray takes 0.84 s when its longest numerator or
# denominator has 500 digits and 2.8 s at 1 000, against 0.01 s at 6;
# at (2, 7) it takes 0.15 s at 500 digits.
MAX_RATIONAL_DIGITS = 500
_RATIONAL_BOUND = 10**MAX_RATIONAL_DIGITS


@dataclass(frozen=True)
class VertexData:
    """Weights and invariant seeds attached to a vertex stratum.

    weights is the full multiset of isotropy weights (half_dim many,
    zero vectors included when the fixed component is not isolated).
    Seeds are the invariant values of the fixed component itself; for an
    isolated fixed point they are all 1, but callers may supply anything
    (e.g. orientation-adjusted signs for non-Hamiltonian circle data).
    int_weights is (rows, D): the weights over one common denominator,
    weight j being rows[j] / D, cleared once at construction.
    """

    weights: tuple[RatVector, ...]
    seed_signature: int
    seed_poincare: IntPolynomial
    seed_euler: int
    int_weights: tuple[tuple[tuple[int, ...], ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Sorted by their integer forms over one common denominator, which
        # is positive, so in the order of the weights' coordinates.
        ws = [as_vec(w) for w in self.weights]
        flat, den = clear_denominators([c for w in ws for c in w])
        rows = []
        start = 0
        for w in ws:
            rows.append(flat[start : start + len(w)])
            start += len(w)
        order = sorted(range(len(ws)), key=rows.__getitem__)
        object.__setattr__(self, "weights", tuple([ws[i] for i in order]))
        object.__setattr__(self, "int_weights", (tuple([rows[i] for i in order]), den))

    @cached_property
    def table(self) -> tuple[_Weight, ...]:
        """One `_Weight` per weight, in order, read off int_weights with
        no clearing.  A weight's row R over D has the `clear_denominators`
        form R / g over D / g with g = gcd(D, R), the one form in lowest
        terms with a positive denominator, and its ray is R over k =
        gcd(R).  When k = g (the zero weight included, taking k = D) the
        ray is that form, and the one tuple serves as both."""
        rows, den = self.int_weights
        out = []
        for w, row in zip(self.weights, rows):
            k = math.gcd(*row) or den
            g = math.gcd(den, k)
            scaled = tuple([c // g for c in row])
            out.append(_Weight(w, scaled, den // g, scaled if k == g else tuple([c // k for c in row])))
        return tuple(out)


@dataclass(frozen=True)
class Stratum:
    id: str
    wall: Polytope
    parents: tuple[str, ...] = ()
    children: tuple[str, ...] = ()
    vertex_data: VertexData | None = None


@dataclass(frozen=True, order=True)
class Violation:
    stratum: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.stratum}: {self.detail}"


@dataclass(frozen=True)
class WeightedXray:
    """Immutable X-ray: torus rank d, half-dimension n, strata poset.

    Construction normalizes the poset (parents may be given as any
    relation whose transitive closure is the intended order; they are
    reduced to covering relations) and enforces the structural rules
    that make the object well-formed: unique ids, acyclic order, walls
    nested along the order, vertex data exactly on 0-dimensional walls,
    and n weights of rank-d ambient dimension per vertex.  The deeper
    geometric axioms live in the validate_* functions so that broken
    examples can still be built and diagnosed.
    """

    torus_rank: int
    half_dim: int
    strata: tuple[Stratum, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.torus_rank < 1:
            raise MalformedXray("torus_rank must be at least 1")
        if self.half_dim < 1:
            raise MalformedXray("half_dim must be at least 1")
        strata = tuple(self.strata)
        ids = [s.id for s in strata]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise MalformedXray(f"duplicate stratum ids: {dup}")
        known = set(ids)
        declared: dict[str, set[str]] = {}
        for s in strata:
            for p in s.parents:
                if p not in known:
                    raise MalformedXray(f"stratum '{s.id}' names unknown parent '{p}'")
                if p == s.id:
                    raise MalformedXray(f"stratum '{s.id}' is its own parent")
            declared[s.id] = set(s.parents)

        # Ancestor sets in topological order (Kahn 1962), with no
        # recursion however deep the order: a stratum is taken once all
        # its declared parents are.  What is never taken lies on a cycle
        # or below one, and each such stratum has a parent not taken.
        declared_below: dict[str, list[str]] = {sid: [] for sid in ids}
        for sid in ids:
            for p in declared[sid]:
                declared_below[p].append(sid)
        waiting = {sid: len(declared[sid]) for sid in ids}
        ready = [sid for sid in ids if not declared[sid]]
        # A covering parent is declared: any other ancestor lies above a
        # declared parent.  It covers unless it lies above another one,
        # that is, in the union of their ancestor sets.
        above: dict[str, frozenset[str]] = {}
        covers: dict[str, set[str]] = {}
        while ready:
            sid = ready.pop()
            ps = declared[sid]
            ups = [above[p] for p in ps]
            above[sid] = frozenset(ps).union(*ups)
            covers[sid] = ps.difference(*ups)
            for c in declared_below[sid]:
                waiting[c] -= 1
                if not waiting[c]:
                    ready.append(c)
        if len(above) < len(ids):
            sid = next(s for s in ids if s not in above)
            trail: set[str] = set()
            while sid not in trail:
                trail.add(sid)
                sid = min(p for p in declared[sid] if p not in above)
            raise MalformedXray(f"cycle in stratum order through '{sid}'")

        below_sets: dict[str, set[str]] = {sid: set() for sid in ids}
        for sid, ups in above.items():
            for u in ups:
                below_sets[u].add(sid)
        below = {sid: frozenset(below_sets.pop(sid)) for sid in ids}

        children: dict[str, list[str]] = {sid: [] for sid in ids}
        for sid in ids:
            for p in covers[sid]:
                children[p].append(sid)

        by_id = {s.id: s for s in strata}
        for s in strata:
            if len(s.wall.span.base) != self.torus_rank:
                raise MalformedXray(f"wall of '{s.id}' lives in dimension {len(s.wall.span.base)}, expected {self.torus_rank}")
            if s.wall.dim == 0:
                if s.vertex_data is None:
                    raise MalformedXray(f"vertex stratum '{s.id}' is missing vertex data")
                vd = s.vertex_data
                if len(vd.weights) != self.half_dim:
                    raise MalformedXray(f"vertex '{s.id}': expected {self.half_dim} weights, got {len(vd.weights)}")
                for w in vd.weights:
                    if len(w) != self.torus_rank:
                        raise MalformedXray(f"vertex '{s.id}': weight of dimension {len(w)}, expected {self.torus_rank}")
            elif s.vertex_data is not None:
                raise MalformedXray(f"positive-dimensional stratum '{s.id}' must not carry vertex data")
        # A child's vertex is in its parent's wall when it is one of the
        # parent's vertices or passes the parent's equations and facets.
        # The generators and `from_interchange` hand each point to every
        # wall on it as one tuple, which `hull` keeps, so points are known
        # by identity: each parent keeps the `id`s of its vertices and of
        # the points that passed (the walls keep them all alive), and a
        # point is tested once per parent.
        inside: dict[str, set[int]] = {}
        for sid in ids:
            wall = by_id[sid].wall
            points = [id(v) for v in wall.vertices]
            for p in covers[sid]:
                known = inside.get(p)
                if known is None:
                    known = inside[p] = {id(v) for v in by_id[p].wall.vertices}
                if known.issuperset(points):
                    continue
                rows, den = wall.int_vertices
                for q, i in zip(rows, points):
                    if i not in known:
                        if not by_id[p].wall.holds(q, den):
                            raise MalformedXray(f"wall of '{sid}' is not contained in wall of its parent '{p}'")
                        known.add(i)

        # A stratum given in normal form already (a vertex of a loaded
        # document: covering parents in id order, no children) is kept.
        normalized = []
        for s in sorted(strata, key=lambda s: s.id):
            ps = tuple(sorted(covers[s.id]))
            cs = tuple(sorted(children[s.id]))
            if s.parents != ps or s.children != cs:
                s = Stratum(s.id, s.wall, ps, cs, s.vertex_data)
            normalized.append(s)
        normalized = tuple(normalized)
        object.__setattr__(self, "strata", normalized)
        self._cache["by_id"] = {s.id: s for s in normalized}
        self._cache["above"] = above
        self._cache["below"] = below
        self._cache["vertex_ids"] = tuple(s.id for s in normalized if s.wall.dim == 0)

    # -- basic queries ----------------------------------------------------

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.strata)

    def stratum(self, sid: str) -> Stratum:
        try:
            return self._cache["by_id"][sid]
        except KeyError:
            raise KeyError(f"no stratum '{sid}'") from None

    def dim(self, sid: str) -> int:
        return self.stratum(sid).wall.dim

    def above(self, sid: str) -> frozenset[str]:
        """Strict ancestors."""
        self.stratum(sid)
        return self._cache["above"][sid]

    def below(self, sid: str) -> frozenset[str]:
        """Strict descendants."""
        self.stratum(sid)
        return self._cache["below"][sid]

    def leq(self, a: str, b: str) -> bool:
        return a == b or b in self.above(a)

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return self._cache["vertex_ids"]

    @property
    def top_id(self) -> str:
        tops = [s.id for s in self.strata if not s.parents]
        if len(tops) != 1:
            raise MalformedXray(f"expected a unique maximal stratum, found {sorted(tops)}")
        return tops[0]

    def fingerprint(self) -> str:
        if "fingerprint" not in self._cache:
            self._cache["fingerprint"] = hashlib.sha256(canonical_json(self).encode()).hexdigest()[:16]
        return self._cache["fingerprint"]


# -- weight bookkeeping ---------------------------------------------------


def stratum_weights_in(x: WeightedXray, g: str, f: str) -> tuple[RatVector, ...]:
    """Weights of stratum g that lie in the linear span of f's wall.

    g must sit below f.  The weights are read off at one vertex stratum
    below g (the lexicographically smallest id); the consistency axiom
    makes the choice immaterial for anything downstream.  Zero weights
    of a non-isolated vertex count as lying in every span.
    """
    return tuple(w for w, _ in _weights_in(x, g, f))


def scaled_weights_in(x: WeightedXray, g: str, f: str) -> tuple[tuple[int, ...], ...]:
    """`stratum_weights_in(x, g, f)` with each weight's denominators
    cleared: integer vectors, each a positive multiple of its weight, in
    the same order, so any sign test on a weight reads the same."""
    return tuple(scaled for _, scaled in _weights_in(x, g, f))


def _weights_in(x: WeightedXray, g: str, f: str) -> list[tuple[RatVector, tuple[int, ...]]]:
    """(weight, integer form) of g's weights in f's wall span, tested in
    integers against the span's equations.  g's first vertex is found
    once per X-ray: cached on it, in one dict by stratum id."""
    if not x.leq(g, f):
        raise ValueError(f"stratum '{g}' is not below '{f}'")
    first = x._cache.setdefault("first vertex", {})
    vid = first.get(g)
    if vid is None:
        vid = next((v for v in x.vertex_ids if x.leq(v, g)), None)
        if vid is None:
            raise MalformedXray(f"stratum '{g}' has no vertex stratum below it")
        first[g] = vid
    span = x.stratum(f).wall.span
    return [(w.weight, w.scaled) for w in x.stratum(vid).vertex_data.table if span.lin_holds(w.ray)]


class _Weight(NamedTuple):
    """One weight with the integer forms the validators, the arrangement
    and the circle read: weight == scaled / den (`clear_denominators`),
    and ray is its primitive integer multiple, zero for the zero weight."""

    weight: RatVector
    scaled: tuple[int, ...]
    den: int
    ray: tuple[int, ...]


def complex_dim_of_stratum(x: WeightedXray, f: str) -> int:
    """Complex dimension of the stratum manifold: weights tangent to its wall."""
    return len(stratum_weights_in(x, f, f))


def subwall_facets(x: WeightedXray, f: str) -> dict[str, int] | None:
    """The facets of f's wall through each smaller wall, as bitmasks keyed
    by stratum id in id order, when every smaller wall is a proper face
    of f's wall; None when one is not.  Cached on the X-ray.

    A smaller wall is a face when its vertices are wall vertices and the
    wall vertices tight on every facet through them are exactly those
    (`Polytope.vertex_masks`), and proper when some facet goes through
    it.  Vertices are matched by their integer forms
    (`Polytope.int_vertices`); a face's denominator divides the wall's.
    """
    key = ("subwall facets", f)
    if key in x._cache:
        return x._cache[key]
    wall = x.stratum(f).wall
    rows, den = wall.int_vertices
    index = {row: j for j, row in enumerate(rows)}
    masks = wall.vertex_masks
    out: dict[str, int] | None = {}
    for g in sorted(x.below(f)):
        sub_rows, sub_den = x.stratum(g).wall.int_vertices
        scale, rest = divmod(den, sub_den)
        ids = [index.get(tuple([c * scale for c in row])) for row in sub_rows]
        if rest or None in ids:
            out = None
            break
        through = masks[ids[0]]
        for j in ids[1:]:
            through &= masks[j]
        if not through or sum(1 for t in masks if t & through == through) != len(ids):
            out = None
            break
        out[g] = through
    x._cache[key] = out
    return out


def is_toric_structure_free(x: WeightedXray, f: str) -> bool:
    """True when f's wall has no internal structure and full toric dimension.

    Two conditions: every stratum below f images onto a proper face of
    f's wall (nothing cuts through the interior: `subwall_facets`), and
    the stratum's complex dimension equals the wall dimension.  On such
    walls every reduced space is a toric variety and the invariants are
    forced.
    """
    return subwall_facets(x, f) is not None and complex_dim_of_stratum(x, f) == x.stratum(f).wall.dim


# -- validators -----------------------------------------------------------


def validate_poset(x: WeightedXray) -> list[Violation]:
    """Order axioms: one maximal stratum, dimension decrease, face
    coverage, span uniqueness.

    Exactly one stratum has no parents, the top that every query starts
    from; one `top` violation names the maximal strata otherwise.  Every
    face of every wall must be the wall of exactly one stratum at or
    below it.  A wall is the hull of its vertices, so a face is keyed
    by its vertex tuple, written with one integer id per point: faces
    come off the wall's vertex masks (`face_lattice`) and are looked up
    in a dict from each wall's key to its strata; no face is hulled.
    Points are told apart by their coordinates' (numerator, denominator)
    pairs (`_point_key`).
    Two strata share a span when their RREF bases are equal, so strata
    are grouped by the bases' integer key (`AffineSpan.key`) once, and
    the groups are checked along the chain above each minimal stratum.
    """
    vio: set[Violation] = set()
    tops = [s.id for s in x.strata if not s.parents]
    if len(tops) != 1:
        vio.add(Violation(min(tops, default=""), "top", f"expected a unique maximal stratum, found {tops}"))
    dim = {s.id: s.wall.dim for s in x.strata}
    for a in x.ids:
        for b in x.above(a):
            if dim[a] >= dim[b]:
                vio.add(Violation(a, "dimension", f"dim {dim[a]} wall below dim {dim[b]} wall '{b}'"))
    point_id: dict[tuple[tuple[int, int], ...], int] = {}
    key = {s.id: tuple(point_id.setdefault(_point_key(v), len(point_id)) for v in s.wall.vertices) for s in x.strata}
    by_key: dict[tuple[int, ...], list[str]] = {}
    by_basis: dict[tuple[tuple[int, ...], ...], list[str]] = {}
    for s in x.strata:
        by_key.setdefault(key[s.id], []).append(s.id)
        by_basis.setdefault(s.wall.span.key, []).append(s.id)
    for s in x.strata:
        ids = key[s.id]
        for level in face_lattice(s.wall):
            for m in level:
                matches = [t for t in by_key.get(tuple(ids[j] for j in bits(m)), ()) if x.leq(t, s.id)]
                if len(matches) != 1:
                    where = _fmt_points(s.wall.vertices[j] for j in bits(m))
                    vio.add(Violation(s.id, "face", f"face {where} is the wall of {len(matches)} chain members {matches}"))
    # A stratum's chain holds the chain of everything above it, so the
    # minimal strata's chains hold every pair there is to check.
    shared = {sid: group for group in by_basis.values() if len(group) > 1 for sid in group}
    for j in (t for t in x.ids if not x.below(t)):
        ups = {j} | x.above(j)
        for a in ups & shared.keys():
            for b in shared[a]:
                if a < b and b in ups:
                    vio.add(Violation(a, "span-uniqueness", f"strata '{a}' and '{b}' above a common stratum share a wall span"))
    return sorted(vio)


def validate_consistency(x: WeightedXray) -> list[Violation]:
    """All vertices below a stratum must agree on weights modulo its wall span.

    The normals of the span's integer equations are a basis of the
    functionals vanishing on its linear part, so two weights are
    congruent modulo the span exactly when their values on those normals
    agree.  A vertex's weights are its integer rows over one denominator
    D > 0 (`VertexData.int_weights`), so its classes are the sorted
    tuples of the rows' values on the normals, over D; sorting over a
    positive D keeps the order of the classes themselves.  Two vertices
    agree when their sorted tuples are equal once each is multiplied by
    the other's D, so no weight is reduced to lowest terms, and
    `VertexData.table` is not read.  A span with no equations is the
    whole space: every class there is the empty vector, and the
    constructor gives every vertex half_dim weights, so such strata are
    skipped.  The vertices at or below a stratum come off its cached
    `below` set, in id order.
    """
    vio: set[Violation] = set()
    vertices = set(x.vertex_ids)
    for g in x.strata:
        normals = [a for a, _ in g.wall.span.equations]
        if not normals:
            continue
        vs = vertices & x.below(g.id)
        if g.wall.dim == 0:
            vs.add(g.id)
        vs = sorted(vs)
        if len(vs) < 2:
            continue

        def classes(vid: str) -> tuple[list[tuple[int, ...]], int]:
            rows, den = x.stratum(vid).vertex_data.int_weights
            return sorted([tuple([idot(a, w) for a in normals]) for w in rows]), den

        ref, ref_den = classes(vs[0])
        for v in vs[1:]:
            got, den = classes(v)
            if den != ref_den:
                got = [tuple([c * ref_den for c in t]) for t in got]
                want = [tuple([c * den for c in t]) for t in ref]
            else:
                want = ref
            if got != want:
                vio.add(Violation(g.id, "consistency", f"weight classes at '{v}' differ from '{vs[0]}' modulo the wall span"))
    return sorted(vio)


def validate_darboux(x: WeightedXray) -> list[Violation]:
    """Local model at each vertex: walls through it match its weight cones.

    (a) for every stratum above the vertex, the tangent cone of its wall
    at the vertex point equals the cone on the weights lying in the
    wall's span; (b) every linear subset of the weights (intersection
    with a subspace spanned by weight directions) is the tangent cone of
    exactly one stratum through the vertex.

    (a) is read off the wall's facet system (`_tangent_cone_matches`).
    The weight cone lies in the tangent cone when every weight has
    n . w <= 0 on each facet through the point.  When the point is a
    vertex of the wall, the tangent cone is pointed and its extreme rays
    run along the edges to the adjacent vertices, so it lies in the
    weight cone exactly when each ray is the direction of some weight.
    When the point is not a vertex (an inner fixed point of a d = 1
    CP^n, a fixed point inside a polygon), each vertex direction is
    tested for membership in the weight cone (`_in_cone`).  Each wall's
    vertices are cleared to integers once (`Polytope.int_vertices`) and
    its vertex masks computed once (`Polytope.vertex_masks`), and each
    vertex's primitive integer rays are read off its weight table
    (`VertexData.table`).  A vertex's nonzero rays are grouped once by
    their line's key (`_line_key`), which is what `AffineSpan.key` gives
    a line: so the rays in a 1-dimensional wall's span are the zero rays
    and one lookup by its key, with no span test, and at an end of that
    wall the comparison is one set equality (`_tangent_cone_matches`).

    A span of directions in Q^d is spanned by at most d of them, so
    subsets of <= d directions reach every linear subset; an independent
    d-subset spans Q^d and a dependent one spans what a smaller subset
    does, so subsets of < d directions and, at full rank, Q^d suffice.
    A tangent cone spans its wall's linear part and a subset S spans the
    subspace it was cut out by, so equal cones need equal RREF bases:
    only walls with S's basis can match.  The weights in such a wall's
    span are exactly S, so its comparison with S is the one (a) made,
    and S's matches are the walls with its basis that passed (a), kept
    in a dict from the basis's integer key (`span_key`, `AffineSpan.key`)
    to wall ids.  The key of no direction is empty, and that of one
    direction is its primitive ray, made positive on its first nonzero
    entry (`_line_key`, the keys the rays were grouped by), so only
    subsets of two or more are eliminated.
    """
    d = x.torus_rank
    vio: set[Violation] = set()
    for pid in x.vertex_ids:
        p = x.stratum(pid)
        point = p.wall.vertices[0]
        table = p.vertex_data.table
        rays = [w.ray for w in table]
        zeros = []
        lines: dict[tuple[tuple[int, ...]], list[tuple[int, ...]]] = {}
        for r in rays:
            if any(r):
                lines.setdefault(_line_key(r), []).append(r)
            else:
                zeros.append(r)
        passed: dict[tuple[tuple[int, ...], ...], list[str]] = {}
        for fid in [pid] + sorted(x.above(pid)):
            wall = x.stratum(fid).wall
            if wall.dim == d:
                inspan = rays
            elif wall.dim == 0:  # the vertex itself: only zero weights
                inspan = zeros
            elif wall.dim == 1:  # a line: the zero weights and its own rays
                inspan = zeros + lines.get(wall.span.key, [])
            else:
                inspan = [r for r in rays if wall.span.lin_holds(r)]
            if _tangent_cone_matches(wall, wall.vertex_masks, point, inspan, d):
                passed.setdefault(wall.span.key, []).append(fid)
            else:
                vio.add(Violation(pid, "darboux-cone", f"tangent cone of '{fid}' differs from the cone of its weights"))
        dirs = sorted({r for r in rays if any(r)})
        spans = {()}
        if d > 1:
            spans.update(lines)
        spans.update(span_key(B) for size in range(2, min(len(dirs), d - 1) + 1) for B in combinations(dirs, size))
        whole = span_key(dirs)
        if len(whole) == d:
            spans.add(whole)
        for key in spans:
            matches = passed.get(key, [])
            if len(matches) != 1:
                S = tuple(w.weight for w in table if int_rank(key + (w.ray,)) == len(key))
                vio.add(
                    Violation(
                        pid,
                        "darboux-subset",
                        f"weight subset {_fmt_points(S)} is the tangent cone of {len(matches)} strata {matches}",
                    )
                )
    return sorted(vio)


def _line_key(ray: tuple[int, ...]) -> tuple[tuple[int, ...]]:
    """`span_key((ray,))` of a nonzero primitive integer ray in closed
    form: its one RREF row made primitive is the ray itself, positive on
    its first nonzero entry, the pivot."""
    if next(c for c in ray if c) < 0:
        ray = tuple([-c for c in ray])
    return (ray,)


def validate_all(x: WeightedXray) -> list[Violation]:
    return sorted(validate_poset(x) + validate_consistency(x) + validate_darboux(x))


def _tangent_cone_matches(
    wall: Polytope, tight: Sequence[int], point: RatVector, gens: Sequence[tuple[int, ...]], dim: int
) -> bool:
    """Is the tangent cone of wall at point the cone on gens?

    tight[j] is `tight_mask(wall, wall.vertices[j])`; point lies in the
    wall, and gens are primitive integer rays (`VertexData.table`) in its
    linear span, the zero vector allowed.  gens lie in the tangent cone when
    they satisfy every facet through point.  At a vertex, the cone's
    extreme rays run to the adjacent vertices q (no third vertex is
    tight on every facet point and q share, the test `Refinement.cut`
    uses), and an extreme ray is a nonnegative combination of members of
    the cone only as a multiple of one of them.  Elsewhere each vertex
    direction must lie in the cone on gens.  The directions are integer
    differences of the wall's `int_vertices`, made primitive.

    At an end of a 1-dimensional wall the cone is the one primitive ray
    to the other end, and gens lie in the wall's line: they satisfy the
    end's facet exactly when each nonzero one is that ray, so the cones
    are equal exactly when the set of nonzero gens is that ray alone.
    """
    verts = wall.vertices
    rows, den = wall.int_vertices
    i = verts.index(point) if point in verts else None
    if i is not None and wall.dim == 1:
        return {g for g in gens if any(g)} == {primitive([a - b for a, b in zip(rows[1 - i], rows[i])])}
    here = tight_mask(wall, point) if i is None else tight[i]
    normals = [n for b, (n, _) in enumerate(wall.int_facets) if here >> b & 1]
    if any(idot(n, g) > 0 for g in gens for n in normals):
        return False
    dirs = {g for g in gens if any(g)}
    if i is None:
        # q - point is a positive multiple of q_rows * D - P * den; a
        # direction that is a weight's ray lies in the cone at once.
        at, at_den = clear_denominators(point)
        ends = [[a * at_den - b * den for a, b in zip(q, at)] for q in rows]
        gs = sorted(dirs)
        return all(u in dirs or _in_cone(gs, u, dim) for u in {primitive(e) for e in ends})
    for j, t in enumerate(tight):
        common = here & t
        if j == i or any(k != i and k != j and s & common == common for k, s in enumerate(tight)):
            continue
        if primitive([a - b for a, b in zip(rows[j], rows[i])]) not in dirs:
            return False
    return True


def _in_cone(gs: Sequence[tuple[int, ...]], target: Sequence[int], dim: int) -> bool:
    """Is the integer vector target a nonnegative combination of the
    distinct nonzero integer generators gs?  Exact, by conic
    Caratheodory: any member is a nonnegative combination of a linearly
    independent subset.  Each independent subset's coefficients come
    back as numerators over one denominator d (`solve_scaled`)."""
    if not any(target):
        return True
    for size in range(1, min(len(gs), dim) + 1):
        for sub in combinations(gs, size):
            gram = [tuple(idot(a, b) for b in sub) for a in sub]
            rhs = tuple(idot(a, target) for a in sub)
            try:
                lam, d = solve_scaled(gram, rhs)
            except ValueError:
                continue  # dependent subset
            if any(c * d < 0 for c in lam):
                continue
            if all(idot(lam, col) == d * t for col, t in zip(zip(*sub), target)):
                return True
    return False


def _point_key(v: RatVector) -> tuple[tuple[int, int], ...]:
    """v as the (numerator, denominator) pair of each coordinate: equal
    for equal points, and hashed as ints, where `Fraction.__hash__`
    takes a modular inverse on every call."""
    return tuple([q.as_integer_ratio() for q in v])


def _fmt_points(points: Iterable[RatVector]) -> str:
    return "{" + ", ".join("(" + ",".join(format_rational(c) for c in p) + ")" for p in points) + "}"


# -- interchange representation -------------------------------------------


def to_interchange(x: WeightedXray) -> dict:
    """Plain-JSON dict: rationals as "num/den" strings, strata sorted by id."""
    doc = {
        "torus_rank": x.torus_rank,
        "half_dim": x.half_dim,
        "strata": [
            {
                "id": s.id,
                "vertices": [[format_rational(c) for c in v] for v in s.wall.vertices],
                "parents": list(s.parents),
            }
            for s in x.strata
        ],
        "vertex_data": {
            s.id: {
                "weights": [[format_rational(c) for c in w] for w in s.vertex_data.weights],
                "signature": s.vertex_data.seed_signature,
                "poincare": list(s.vertex_data.seed_poincare.coeffs),
                "euler": s.vertex_data.seed_euler,
            }
            for s in x.strata
            if s.vertex_data is not None
        },
    }
    return doc


def from_interchange(doc: Mapping) -> WeightedXray:
    """Rebuild an X-ray from its interchange dict, with field-level diagnostics.

    A point is written once per wall it lies on, and vectors share
    coordinates, so each distinct coordinate string is parsed and
    bounded once per document and its Fraction reused, and so is each
    distinct vector of strings: a point is one tuple on every wall it
    lies on, which the constructor's containment check matches by
    identity.  A vector's new coordinates are all parsed before any is
    bounded, and a string or vector is kept only once it has passed
    both, so every failure is reported where it occurs, with the text a
    parse of each vector would give."""
    if not isinstance(doc, Mapping):
        raise MalformedXray("document root must be an object")
    for key in ("torus_rank", "half_dim", "strata", "vertex_data"):
        if key not in doc:
            raise MalformedXray(f"missing field '{key}'")
    d, n = doc["torus_rank"], doc["half_dim"]
    for key in ("torus_rank", "half_dim"):
        if not _is_int(doc[key]):
            raise MalformedXray(f"{key} must be an integer, got {doc[key]!r}")
    raw_vd = doc["vertex_data"]
    if not isinstance(raw_vd, Mapping):
        raise MalformedXray("vertex_data must be an object")

    # Only strings are keyed: no other JSON value equals one.
    parsed_coords: dict[str, Fraction] = {}
    # Vectors of strings only, by their strings, so a point written on
    # several walls is one tuple.
    parsed_vectors: dict[tuple[str, ...], RatVector] = {}

    def parse_vector(v, where: str) -> RatVector:
        if not isinstance(v, (list, tuple)):
            raise MalformedXray(f"{where}: expected a vector, got {v!r}")
        try:
            key = tuple(v)
            vec = parsed_vectors.get(key)
        except TypeError:  # an unhashable entry, which no parse accepts
            key = vec = None
        if vec is not None:
            return vec
        if any(isinstance(c, bool) for c in v):
            raise MalformedXray(f"{where}: expected a vector, got {v!r}")
        vec = []
        fresh = []
        for j, c in enumerate(v):
            q = parsed_coords.get(c) if type(c) is str else None
            if q is None:
                try:
                    q = rat(c)
                except (ValueError, TypeError) as e:
                    raise MalformedXray(f"{where}: {e}") from None
                fresh.append((j, c, q))
            vec.append(q)
        for j, c, q in fresh:
            if abs(q.numerator) >= _RATIONAL_BOUND or q.denominator >= _RATIONAL_BOUND:
                raise MalformedXray(f"{where}[{j}]: numerator or denominator of more than {MAX_RATIONAL_DIGITS} digits")
            if type(c) is str:
                parsed_coords[c] = q
        vec = tuple(vec)
        if key is not None and all(type(c) is str for c in key):
            parsed_vectors[key] = vec
        return vec

    if not isinstance(doc["strata"], (list, tuple)):
        raise MalformedXray("strata must be a list")
    if len(doc["strata"]) > MAX_STRATA:
        raise MalformedXray(f"strata: {len(doc['strata'])} strata, more than {MAX_STRATA}")
    # Every field is parsed and bounded before the first hull.
    parsed = []
    for i, raw in enumerate(doc["strata"]):
        where = f"strata[{i}]"
        if not isinstance(raw, Mapping) or "id" not in raw or "vertices" not in raw:
            raise MalformedXray(f"{where}: needs 'id' and 'vertices'")
        sid = raw["id"]
        if not isinstance(sid, str) or not sid:
            raise MalformedXray(f"{where}: id must be a nonempty string")
        if not isinstance(raw["vertices"], (list, tuple)):
            raise MalformedXray(f"{where}: vertices must be a list")
        verts = [parse_vector(v, f"{where}.vertices[{j}]") for j, v in enumerate(raw["vertices"])]
        if not verts:
            raise MalformedXray(f"{where}: stratum '{sid}' has no vertices")
        if len(dims := {len(v) for v in verts}) > 1:
            raise MalformedXray(f"{where}: vertices of mixed dimension {sorted(dims)}")
        if len(verts[0]) != d:
            raise MalformedXray(f"{where}: vertices of stratum '{sid}' have length {len(verts[0])}, expected torus_rank {d}")
        parents = raw.get("parents", [])
        if not (isinstance(parents, list) and all(isinstance(p, str) for p in parents)):
            raise MalformedXray(f"{where}: parents must be a list of ids")
        m = len({_point_key(v) for v in verts})
        subsets = sum(math.comb(m, j) for j in range(min(d, m) + 1))
        if subsets > MAX_HULL_SUBSETS:
            raise MalformedXray(
                f"{where}: stratum '{sid}' has {m} distinct vertices at torus_rank {d}, "
                f"more than {MAX_HULL_SUBSETS} vertex subsets to hull"
            )
        den = 1
        for v in verts:  # the lcm only grows, so stop once it is too long
            den = math.lcm(den, *[q.denominator for q in v])
            if subsets * _digits(den) > MAX_HULL_WORK:
                raise MalformedXray(
                    f"{where}: stratum '{sid}' has {subsets} vertex subsets to hull over a common "
                    f"denominator of {_digits(den)} or more digits, more than {MAX_HULL_WORK} subset digits"
                )
        vertex_data = None
        if m == 1:  # one distinct point: a 0-dimensional wall
            if sid not in raw_vd:
                raise MalformedXray(f"vertex stratum '{sid}' has no vertex_data entry")
            entry = raw_vd[sid]
            if not isinstance(entry, Mapping):
                raise MalformedXray(f"vertex_data['{sid}'] must be an object")
            for key in ("weights", "signature", "poincare", "euler"):
                if key not in entry:
                    raise MalformedXray(f"vertex_data['{sid}'] is missing '{key}'")
            if not isinstance(entry["weights"], (list, tuple)):
                raise MalformedXray(f"vertex_data['{sid}']: weights must be a list")
            weights = [parse_vector(w, f"vertex_data['{sid}'].weights[{j}]") for j, w in enumerate(entry["weights"])]
            sig, poin, eul = entry["signature"], entry["poincare"], entry["euler"]
            for key, value in (("signature", sig), ("euler", eul)):
                if not _is_int(value):
                    raise MalformedXray(f"vertex_data['{sid}']: {key} must be an integer, got {value!r}")
            if not (isinstance(poin, list) and all(_is_int(c) for c in poin)):
                raise MalformedXray(f"vertex_data['{sid}']: poincare must be a list of integer coefficients")
            vertex_data = VertexData(tuple(weights), sig, IntPolynomial(tuple(poin)), eul)
        parsed.append((sid, verts, tuple(parents), vertex_data))
    stray = sorted(set(raw_vd) - {sid for sid, _, _, vd in parsed if vd is not None})
    if stray:
        raise MalformedXray(f"vertex_data supplied for non-vertex strata: {stray}")
    strata = (Stratum(id=sid, wall=hull(verts), parents=parents, vertex_data=vd) for sid, verts, parents, vd in parsed)
    return WeightedXray(d, n, tuple(strata))


def _digits(n: int) -> int:
    """The decimal digits of n > 0, read off its bit length: exact, or
    one too many just below a power of ten."""
    return math.floor(n.bit_length() * math.log10(2)) + 1


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but `true` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def canonical_json(x: WeightedXray) -> str:
    """`json.dumps(to_interchange(x), sort_keys=True, indent=2) + "\\n"`,
    written directly for the interchange schema, whose keys are written
    here in sorted order.  json.dumps runs its C encoder only when indent
    is None; here the ids go through json's own string encoder, the
    coordinates are `format_rational` strings, which need no escaping,
    and the rest is joined in one pass."""

    def vectors(vs, pad: str) -> str:
        inner = pad + "  "
        return _json_list([_json_list(['"' + format_rational(c) + '"' for c in v], inner) for v in vs], pad)

    strata = []
    vertex_data = []
    for s in x.strata:
        sid = encode_basestring_ascii(s.id)
        fields = [
            ('"id"', sid),
            ('"parents"', _json_list([encode_basestring_ascii(p) for p in s.parents], "      ")),
            ('"vertices"', vectors(s.wall.vertices, "      ")),
        ]
        strata.append(_json_object(fields, "    "))
        vd = s.vertex_data
        if vd is not None:
            fields = [
                ('"euler"', _json_int(vd.seed_euler)),
                ('"poincare"', _json_list([_json_int(c) for c in vd.seed_poincare.coeffs], "      ")),
                ('"signature"', _json_int(vd.seed_signature)),
                ('"weights"', vectors(vd.weights, "      ")),
            ]
            vertex_data.append((sid, _json_object(fields, "    ")))
    doc = [
        ('"half_dim"', _json_int(x.half_dim)),
        ('"strata"', _json_list(strata, "  ")),
        ('"torus_rank"', _json_int(x.torus_rank)),
        ('"vertex_data"', _json_object(vertex_data, "  ")),
    ]
    return _json_object(doc, "") + "\n"


def _json_int(value) -> str:
    """An int as json.dumps writes it; anything else (a bool) through it."""
    return str(value) if type(value) is int else json.dumps(value)


def _json_list(items: list[str], pad: str) -> str:
    """A JSON array of encoded items at indent 2, its closing bracket at pad."""
    if not items:
        return "[]"
    inner = ",\n" + pad + "  "
    return "[" + inner[1:] + inner.join(items) + "\n" + pad + "]"


def _json_object(fields: list[tuple[str, str]], pad: str) -> str:
    """A JSON object of (encoded key, encoded value) fields, in the order
    given, at indent 2, its closing brace at pad."""
    if not fields:
        return "{}"
    inner = ",\n" + pad + "  "
    return "{" + inner[1:] + inner.join([k + ": " + v for k, v in fields]) + "\n" + pad + "}"
