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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import MalformedXray
from .exactgeom import Polytope, bits, face_lattice, hull, tight_mask
from .intpoly import IntPolynomial
from .ratmath import (
    RatVector,
    as_vec,
    clear_denominators,
    format_rational,
    idot,
    is_zero_vector,
    primitive_ints,
    rank,
    rat,
    rref,
    solve_scaled,
    vdot,
    vsub,
)

# `hull` tries every vertex subset of size <= torus_rank, so a stratum
# with more than this many is refused before any geometry runs.  At this
# bound one hull takes 0.3-1 s on a 2-CPU Xeon VM (199 points in convex
# position at d = 2: 1.0 s); `delzant --cube 4`, the largest input the
# tests and the benchmark build, has 2517.
MAX_HULL_SUBSETS = 20_000

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
    """

    weights: tuple[RatVector, ...]
    seed_signature: int
    seed_poincare: IntPolynomial
    seed_euler: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(sorted(as_vec(w) for w in self.weights)))


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
        above: dict[str, frozenset[str]] = {}
        while ready:
            sid = ready.pop()
            acc: set[str] = set()
            for p in declared[sid]:
                acc.add(p)
                acc |= above[p]
            above[sid] = frozenset(acc)
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

        # A covering parent is declared: any other ancestor lies above a
        # declared parent.  It covers unless it lies above another one.
        covers = {sid: {p for p in ps if not any(p in above[q] for q in ps)} for sid, ps in declared.items()}
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
        for sid, cs in covers.items():
            for p in cs:
                pw = by_id[p].wall
                if not all(pw.contains(v) for v in by_id[sid].wall.vertices):
                    raise MalformedXray(f"wall of '{sid}' is not contained in wall of its parent '{p}'")

        normalized = tuple(
            replace(
                by_id[sid],
                parents=tuple(sorted(covers[sid])),
                children=tuple(sorted(children[sid])),
            )
            for sid in sorted(ids)
        )
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

    def vertices_below(self, sid: str) -> tuple[str, ...]:
        return tuple(v for v in self.vertex_ids if self.leq(v, sid))

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
    if not x.leq(g, f):
        raise ValueError(f"stratum '{g}' is not below '{f}'")
    vs = x.vertices_below(g)
    if not vs:
        raise MalformedXray(f"stratum '{g}' has no vertex stratum below it")
    vd = x.stratum(vs[0]).vertex_data
    span = x.stratum(f).wall.span
    return tuple(w for w in vd.weights if span.lin_contains(w))


def complex_dim_of_stratum(x: WeightedXray, f: str) -> int:
    """Complex dimension of the stratum manifold: weights tangent to its wall."""
    return len(stratum_weights_in(x, f, f))


def is_toric_structure_free(x: WeightedXray, f: str) -> bool:
    """True when f's wall has no internal structure and full toric dimension.

    Two conditions: every stratum below f images onto an actual face of
    f's wall (nothing cuts through the interior), and the stratum's
    complex dimension equals the wall dimension.  On such walls every
    reduced space is a toric variety and the invariants are forced.
    A wall is the hull of its vertices, so walls are compared with the
    faces of `face_lattice` by vertex tuple.
    """
    s = x.stratum(f)
    verts = s.wall.vertices
    keys = {tuple(verts[j] for j in bits(m)) for level in face_lattice(s.wall) for m in level}
    if any(x.stratum(g).wall.vertices not in keys for g in x.below(f)):
        return False
    return complex_dim_of_stratum(x, f) == s.wall.dim


# -- validators -----------------------------------------------------------


def validate_poset(x: WeightedXray) -> list[Violation]:
    """Order axioms: dimension decrease, face coverage, span uniqueness.

    Every face of every wall must be the wall of exactly one stratum at
    or below it.  A wall is the hull of its vertices, so a face is keyed
    by its vertex tuple, written with one integer id per point: faces
    come off the wall's vertex masks (`face_lattice`) and are looked up
    in a dict from each wall's key to its strata; no face is hulled.
    Two strata share a span when their RREF bases are equal
    (`AffineSpan.same_lin`), so strata are grouped by basis once, and
    the groups are checked along the chain above each minimal stratum.
    """
    vio: set[Violation] = set()
    dim = {s.id: s.wall.dim for s in x.strata}
    for a in x.ids:
        for b in x.above(a):
            if dim[a] >= dim[b]:
                vio.add(Violation(a, "dimension", f"dim {dim[a]} wall below dim {dim[b]} wall '{b}'"))
    point_id: dict[RatVector, int] = {}
    key = {s.id: tuple(point_id.setdefault(v, len(point_id)) for v in s.wall.vertices) for s in x.strata}
    by_key: dict[tuple[int, ...], list[str]] = {}
    by_basis: dict[tuple[RatVector, ...], list[str]] = {}
    for s in x.strata:
        by_key.setdefault(key[s.id], []).append(s.id)
        by_basis.setdefault(s.wall.span.basis, []).append(s.id)
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
    agree.  A weight's class is that value vector, kept as integer
    numerators over a denominator in lowest terms.  Each vertex's
    weights are cleared to integers once.
    """
    vio: set[Violation] = set()
    cleared = {vid: [clear_denominators(w) for w in x.stratum(vid).vertex_data.weights] for vid in x.vertex_ids}
    for g in x.strata:
        vs = x.vertices_below(g.id)
        if len(vs) < 2:
            continue
        normals = [a for a, _ in g.wall.span.equations]

        def classes(vid: str) -> tuple[tuple[tuple[int, ...], int], ...]:
            out = []
            for scaled, den in cleared[vid]:
                values = [idot(a, scaled) for a in normals]
                common = math.gcd(den, *values)
                out.append((tuple(v // common for v in values), den // common))
            return tuple(sorted(out))

        ref = classes(vs[0])
        for v in vs[1:]:
            if classes(v) != ref:
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
    tested for membership in the weight cone (`_cone_contains`).  Each
    wall's vertex masks are computed once (`Polytope.vertex_masks`), and
    each vertex's weights are cleared to primitive integer rays once.

    A span of directions in Q^d is spanned by at most d of them, so
    subsets of <= d directions reach every linear subset; an independent
    d-subset spans Q^d and a dependent one spans what a smaller subset
    does, so subsets of < d directions and, at full rank, Q^d suffice.
    A tangent cone spans its wall's linear part and a subset S spans the
    subspace it was cut out by, so equal cones need equal RREF bases:
    only walls with S's basis can match.  The weights in such a wall's
    span are exactly S, so its comparison with S is the one (a) made,
    and S's matches are the walls with its basis that passed (a), kept
    in a dict from basis to wall ids.
    """
    d = x.torus_rank
    vio: set[Violation] = set()
    for pid in x.vertex_ids:
        p = x.stratum(pid)
        point = p.wall.vertices[0]
        alpha = p.vertex_data.weights
        rays = [primitive_ints(w) for w in alpha]
        passed: dict[tuple[RatVector, ...], list[str]] = {}
        for fid in [pid] + sorted(x.above(pid)):
            wall = x.stratum(fid).wall
            inspan = rays if wall.dim == d else [r for r in rays if wall.span.lin_holds(r)]
            if _tangent_cone_matches(wall, wall.vertex_masks, point, inspan, d):
                passed.setdefault(wall.span.basis, []).append(fid)
            else:
                vio.add(Violation(pid, "darboux-cone", f"tangent cone of '{fid}' differs from the cone of its weights"))
        dirs = sorted({r for r in rays if any(r)})
        spans = {rref(B) for size in range(min(len(dirs), d - 1) + 1) for B in combinations(dirs, size)}
        whole = rref(dirs)
        if len(whole[1]) == d:
            spans.add(whole)
        for basis, _ in spans:
            matches = passed.get(basis, [])
            if len(matches) != 1:
                S = tuple(w for w in alpha if rank(basis + (w,)) == len(basis))
                vio.add(
                    Violation(
                        pid,
                        "darboux-subset",
                        f"weight subset {_fmt_points(S)} is the tangent cone of {len(matches)} strata {matches}",
                    )
                )
    return sorted(vio)


def validate_all(x: WeightedXray) -> list[Violation]:
    return sorted(validate_poset(x) + validate_consistency(x) + validate_darboux(x))


def _tangent_cone_matches(
    wall: Polytope, tight: Sequence[int], point: RatVector, gens: Sequence[tuple[int, ...]], dim: int
) -> bool:
    """Is the tangent cone of wall at point the cone on gens?

    tight[j] is `tight_mask(wall, wall.vertices[j])`; point lies in the
    wall, and gens are primitive integer rays (`primitive_ints`) in its
    linear span, the zero vector allowed.  gens lie in the tangent cone when
    they satisfy every facet through point.  At a vertex, the cone's
    extreme rays run to the adjacent vertices q (no third vertex is
    tight on every facet point and q share, the test `Refinement.cut`
    uses), and an extreme ray is a nonnegative combination of members of
    the cone only as a multiple of one of them.  Elsewhere each vertex
    direction must lie in the cone on gens.
    """
    verts = wall.vertices
    i = verts.index(point) if point in verts else None
    here = tight_mask(wall, point) if i is None else tight[i]
    normals = [n for b, (n, _) in enumerate(wall.int_facets) if here >> b & 1]
    if any(idot(n, g) > 0 for g in gens for n in normals):
        return False
    dirs = {g for g in gens if any(g)}
    if i is None:
        return all(_cone_contains(dirs, u, dim) for u in {primitive_ints(vsub(q, point)) for q in verts})
    for j, t in enumerate(tight):
        common = here & t
        if j == i or any(k != i and k != j and s & common == common for k, s in enumerate(tight)):
            continue
        if primitive_ints(vsub(verts[j], point)) not in dirs:
            return False
    return True


def _cone_contains(gens: Iterable[RatVector], w: RatVector, dim: int) -> bool:
    """Is w a nonnegative combination of gens?  Exact, by conic Caratheodory:
    any member is a nonnegative combination of a linearly independent subset.

    Runs in integers: scaling w and each generator by a positive number
    leaves the answer unchanged, so their denominators are cleared, and
    each subset's coefficients come back as numerators over one
    denominator d (`solve_scaled`)."""
    if is_zero_vector(w):
        return True
    target, _ = clear_denominators(w)
    gs = [clear_denominators(g)[0] for g in sorted({g for g in gens if not is_zero_vector(g)})]
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


def _fmt_points(points: Iterable[RatVector]) -> str:
    return "{" + ", ".join("(" + ",".join(format_rational(c) for c in p) + ")" for p in points) + "}"


# -- affine maps ----------------------------------------------------------


def transform(x: WeightedXray, matrix: Sequence[Sequence[Fraction | int | str]], shift: Sequence[Fraction | int | str]) -> WeightedXray:
    """Apply an invertible affine map v -> A v + t to the whole X-ray.

    Walls map through the affine map, weights through the linear part.
    """
    rows = tuple(as_vec(r) for r in matrix)
    t = as_vec(shift)
    d = x.torus_rank
    if len(rows) != d or any(len(r) != d for r in rows) or len(t) != d:
        raise ValueError("affine map has wrong shape")
    if rank(rows) != d:
        raise ValueError("affine map is singular")

    def apply_pt(v: RatVector) -> RatVector:
        return tuple(vdot(r, v) + ti for r, ti in zip(rows, t))

    def apply_vec(v: RatVector) -> RatVector:
        return tuple(vdot(r, v) for r in rows)

    strata = []
    for s in x.strata:
        vd = s.vertex_data
        if vd is not None:
            vd = replace(vd, weights=tuple(sorted(apply_vec(w) for w in vd.weights)))
        strata.append(
            Stratum(
                id=s.id,
                wall=hull([apply_pt(v) for v in s.wall.vertices]),
                parents=s.parents,
                vertex_data=vd,
            )
        )
    return WeightedXray(x.torus_rank, x.half_dim, tuple(strata))


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
    """Rebuild an X-ray from its interchange dict, with field-level diagnostics."""
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

    def parse_vector(v, where: str) -> RatVector:
        if not isinstance(v, (list, tuple)) or any(isinstance(c, bool) for c in v):
            raise MalformedXray(f"{where}: expected a vector, got {v!r}")
        try:
            vec = tuple(rat(c) for c in v)
        except (ValueError, TypeError) as e:
            raise MalformedXray(f"{where}: {e}") from None
        for j, q in enumerate(vec):
            if abs(q.numerator) >= _RATIONAL_BOUND or q.denominator >= _RATIONAL_BOUND:
                raise MalformedXray(f"{where}[{j}]: numerator or denominator of more than {MAX_RATIONAL_DIGITS} digits")
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
        m = len(set(verts))
        if sum(math.comb(m, j) for j in range(min(d, m) + 1)) > MAX_HULL_SUBSETS:
            raise MalformedXray(
                f"{where}: stratum '{sid}' has {m} distinct vertices at torus_rank {d}, "
                f"more than {MAX_HULL_SUBSETS} vertex subsets to hull"
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


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but `true` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def canonical_json(x: WeightedXray) -> str:
    return json.dumps(to_interchange(x), sort_keys=True, indent=2) + "\n"
