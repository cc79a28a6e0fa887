"""Subchamber decomposition of walls and crossing graphs.

The regular set of a wall is the wall minus all smaller walls contained
in it.  Its connected components (subchambers) are found by refining the
wall along the affine spans of its codimension-1 subwalls, then merging
cells across any shared facet that no actual subwall covers.  The cells
are cut by double description (`exactgeom.Refinement`): each vertex
carries the set of cell inequalities it is tight on, so a cut, a merged
chamber's facets and vertices, and the face two chambers share are all
read off those sets, with no convex hull.  A facet of a cell is the
tuple of its vertices tight on one of the cell's own inequalities.  The
crossing graph is read off the same refinement: every facet of a cell
is shared with exactly one other cell or lies on the wall's boundary,
so the facets left between two subchambers (or a subchamber and the
exterior) are its edges.  Each edge carries the separating subchambers
of the codimension-1 strata together with forward/backward weight
counts.  Each subwall's hyperplane is computed once per wall and shared
by the cuts and the edges.

The refinement also records each cell's sign vector over the cut
planes, so `locate` places a point by its signs on those planes, taken
in integers: a point on no plane is looked up by sign vector, and a
codimension-1 subwall is tested only for a point on its plane.  A
regular point on a plane's extension beyond its subwall lies on the
boundary of cells, and for it the closed subchambers are scanned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import MalformedXray, SingularLevel, XrayError
from .exactgeom import Polytope, Refinement, centroid, span_hyperplane
from .ratmath import RatVector, clear_denominators, format_rational, idot
from .xray import WeightedXray, stratum_weights_in

EXTERIOR = -1


@dataclass(frozen=True)
class Subchamber:
    host: str
    index: int
    cell: Polytope
    rep: RatVector


@dataclass(frozen=True)
class Separator:
    """One separating subchamber: stratum g, its subchamber index r, and
    the counts of g's weights pointing forward (f) / backward (b) across
    the edge, forward meaning toward the edge's destination node."""

    g: str
    r: int
    f: int
    b: int


@dataclass(frozen=True)
class CrossingEdge:
    source: int
    dest: int
    facet_rep: RatVector
    separators: tuple[Separator, ...]

    def reversed(self) -> "CrossingEdge":
        return CrossingEdge(
            self.dest,
            self.source,
            self.facet_rep,
            tuple(Separator(s.g, s.r, s.b, s.f) for s in self.separators),
        )


@dataclass(frozen=True)
class CrossingGraph:
    host: str
    nodes: tuple[int, ...]
    edges: tuple[CrossingEdge, ...]


def _fmt_point(p: RatVector) -> str:
    return "(" + ",".join(format_rational(c) for c in p) + ")"


@dataclass(frozen=True)
class _Decomposition:
    """One wall's subchambers and what is read off them, cached.

    pieces:   (source, dest, rep) per face between two subchambers,
              source < dest, or between EXTERIOR and a subchamber.
    cuts:     the distinct hyperplanes of the codimension-1 subwalls in
              cut order, as primitive integer (normal, offset) pairs.
    subwalls: (id, wall, index of its plane in cuts or None) for every
              smaller stratum, sorted by id; None marks a subwall of
              codimension above 1.
    cell_of:  each refinement cell's sign vector over cuts, mapped to
              the index of the subchamber holding the cell.
    """

    chambers: tuple[Subchamber, ...]
    pieces: tuple[tuple[int, int, RatVector], ...]
    cuts: tuple[tuple[tuple[int, ...], int], ...]
    subwalls: tuple[tuple[str, Polytope, int | None], ...]
    cell_of: dict[tuple[int, ...], int]


def _decompose(x: WeightedXray, f: str) -> _Decomposition:
    """Subchambers of f's wall, the face pieces between them, the
    subwalls' hyperplanes and the sign-vector index, cached.

    Each codimension-1 subwall's hyperplane is computed once: the cuts
    use the distinct ones, the merge test, `locate` and `crossing_graph`
    read a point's signs on them, and `crossing_graph` orients them to
    count separator weights.  A facet of a cell is the tuple of its
    vertex ids tight on one of its inequalities.  A merged chamber's facets are its cells' facets less those two of its
    cells share, and its vertices are the cells' vertices where those
    facets have full rank; a subchamber is convex, so this is the hull of
    its cells.  A piece's rep is the vertex centroid of the face the two
    sides share, whose vertices are found the same way from the two
    sides' facets.
    """
    key = ("decomposition", f)
    if key in x._cache:
        return x._cache[key]
    wall = x.stratum(f).wall
    k = wall.dim
    lower = sorted(x.below(f))
    planes = {g: span_hyperplane(wall.span, x.stratum(g).wall.span) for g in lower if x.dim(g) == k - 1}
    distinct = list(dict.fromkeys(planes.values()))

    ref = Refinement(wall)
    for normal, offset in distinct:
        ref.cut(normal, offset)
    cells, points = ref.cells, ref.points

    root = list(range(len(cells)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    cuts = tuple((tuple(int(c) for c in normal), int(offset)) for normal, offset in distinct)
    cut_index = {plane: i for i, plane in enumerate(distinct)}
    subwalls = tuple((g, x.stratum(g).wall, cut_index[planes[g]] if g in planes else None) for g in lower)
    masks = []
    owners: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, (ids, tight) in enumerate(cells):
        mask = 0
        for t in tight:
            mask |= t
        masks.append(mask)
        for bit in range(mask.bit_length()):
            if mask >> bit & 1:
                facet = tuple(sorted(v for v, t in zip(ids, tight) if t >> bit & 1))
                owners.setdefault(facet, []).append((i, bit))
    for facet, own in owners.items():
        if len(own) == 2:
            mid = centroid([points[v] for v in facet])
            if _subwall_holding(subwalls, _signs(cuts, mid), mid) is None:
                root[find(own[0][0])] = find(own[1][0])

    # Each facet is shared by two cells or lies on one wall facet, whose
    # bit it carries.  A chamber's facets are its cells' facets less
    # those shared by two of its cells.
    groups: dict[int, list[int]] = {}
    for i in range(len(cells)):
        groups.setdefault(find(i), []).append(i)
    inner = dict.fromkeys(groups, 0)
    shared: dict[tuple, list[tuple[int, ...]]] = {}
    for facet, own in owners.items():
        if len(own) == 2:
            (i, bi), (j, bj) = own
            a, b = sorted((find(i), find(j)))
            if a == b:
                inner[a] |= 1 << bi | 1 << bj
            else:
                shared.setdefault((a, b), []).append(facet)
        else:
            (i, bit), = own
            shared.setdefault((EXTERIOR, find(i), bit), []).append(facet)

    bounds = {}
    merged = []
    for r, members in groups.items():
        mask = 0
        for i in members:
            mask |= masks[i]
        bounds[r] = mask & ~inner[r]
        if len(members) == 1:
            ids = cells[r][0]
        else:
            ids = ref.vertices(dict.fromkeys(v for i in members for v in cells[i][0]), bounds[r])
        chamber = ref.polytope(ids, bounds[r])
        merged.append((centroid(chamber.vertices), chamber, r))
    merged.sort(key=lambda item: item[0])
    chambers = tuple(Subchamber(f, i, cell, rep) for i, (rep, cell, _) in enumerate(merged))
    index = {r: i for i, (_, _, r) in enumerate(merged)}
    index[EXTERIOR] = EXTERIOR
    pieces = []
    for (a, b, *_), facets in shared.items():
        ids = facets[0]
        if len(facets) > 1:
            mask = bounds[b] if a == EXTERIOR else bounds[a] | bounds[b]
            ids = ref.vertices(dict.fromkeys(v for facet in facets for v in facet), mask)
        source, dest = sorted((index[a], index[b]))
        pieces.append((source, dest, centroid([points[v] for v in ids])))
    out = _Decomposition(
        chambers,
        tuple(pieces),
        cuts,
        subwalls,
        {sv: index[find(i)] for i, sv in enumerate(ref.signs)},
    )
    x._cache[key] = out
    return out


def subchambers(x: WeightedXray, f: str) -> tuple[Subchamber, ...]:
    """Closed subchambers of the wall of f, sorted by representative.

    A 0-dimensional wall is its own (trivial) subchamber.  Results are
    cached on the X-ray, keyed by stratum id.
    """
    return _decompose(x, f).chambers


def _signs(cuts: tuple[tuple[tuple[int, ...], int], ...], q: RatVector) -> tuple[int, ...]:
    """Sign of normal . q - offset on each cut, in integers: q's
    denominators are cleared once (`ratmath.clear_denominators`), and the
    cuts are integer already."""
    scaled, den = clear_denominators(q)
    out = []
    for normal, offset in cuts:
        s = idot(normal, scaled) - offset * den
        out.append((s > 0) - (s < 0))
    return tuple(out)


def _subwall_holding(
    subwalls: tuple[tuple[str, Polytope, int | None], ...], signs: tuple[int, ...], q: RatVector
) -> str | None:
    """The first subwall in id order that contains q, or None.  A point
    off a codimension-1 subwall's plane (a nonzero sign) is not on that
    subwall, so only the subwalls on q's planes and those of higher
    codimension are tested."""
    return next((g for g, w, i in subwalls if (i is None or signs[i] == 0) and w.contains(q)), None)


def locate(x: WeightedXray, f: str, q: RatVector) -> Subchamber:
    """The subchamber of f's wall containing q.

    q must be a regular point of the wall: inside it but on no smaller
    wall.  Singular points are rejected with a pointer to the smaller
    stratum, since the reduction there belongs to a different stratum's
    table; the first smaller stratum in id order that contains q is
    named.

    q's signs on the wall's distinct cut planes, taken in integers by
    `_signs` after `ratmath.clear_denominators`, decide it: a
    codimension-1 subwall is tested only when q lies on its plane, and
    when no sign is zero q is in the open cell with that sign vector,
    found by lookup.  A regular point on a cut plane (the plane of a
    subwall, outside that subwall) lies on the boundary of its cells,
    and the closed subchambers are scanned for it instead.
    """
    wall = x.stratum(f).wall
    if not wall.contains(q):
        raise XrayError(f"point {_fmt_point(q)} not in wall '{f}'")
    dec = _decompose(x, f)
    signs = _signs(dec.cuts, q)
    g = _subwall_holding(dec.subwalls, signs, q)
    if g is not None:
        raise SingularLevel(
            f"point {_fmt_point(q)} lies on subwall '{g}': "
            "singular point of this wall; query a smaller stratum"
        )
    if 0 not in signs:
        return dec.chambers[dec.cell_of[signs]]
    for chamber in dec.chambers:
        if chamber.cell.contains(q):
            return chamber
    raise XrayError(f"point {_fmt_point(q)} is in no subchamber of '{f}'")


def crossing_graph(x: WeightedXray, f: str) -> CrossingGraph:
    """Adjacency graph of the subchambers of f's wall, plus EXTERIOR.

    One edge per adjacent chamber pair, oriented low index to high; one
    edge per boundary facet piece, oriented EXTERIOR to chamber.  Every
    edge carries all separating subchambers with their (f, b) counts.
    Cached on the X-ray.
    """
    key = ("crossing_graph", f)
    if key in x._cache:
        return x._cache[key]
    dec = _decompose(x, f)
    chambers = dec.chambers
    edges = [_build_edge(x, f, dec, chambers[dest].rep, source, dest, rep) for source, dest, rep in dec.pieces]
    edges.sort(key=lambda e: (e.source, e.dest, e.facet_rep))
    graph = CrossingGraph(f, (EXTERIOR,) + tuple(range(len(chambers))), tuple(edges))
    x._cache[key] = graph
    return graph


def _build_edge(
    x: WeightedXray,
    f: str,
    dec: _Decomposition,
    toward: RatVector,
    source: int,
    dest: int,
    facet_rep: RatVector,
) -> CrossingEdge:
    separators = []
    signs = _signs(dec.cuts, facet_rep)
    toward_scaled, toward_den = clear_denominators(toward)
    for g, wall, i in dec.subwalls:
        if i is None or signs[i] != 0 or not wall.contains(facet_rep):
            continue
        normal, offset = dec.cuts[i]
        try:
            r = locate(x, g, facet_rep)
        except SingularLevel:
            continue  # on a subwall of g, not in an open subchamber
        side = idot(normal, toward_scaled) - offset * toward_den
        if side == 0:
            raise ValueError("toward point lies on the separator")
        if side < 0:
            normal = tuple(-c for c in normal)
        forward = backward = 0
        for w in stratum_weights_in(x, g, f):
            v = idot(normal, clear_denominators(w)[0])
            if v > 0:
                forward += 1
            elif v < 0:
                backward += 1
        separators.append(Separator(g, r.index, forward, backward))
    if not separators:
        raise MalformedXray(
            f"wall '{f}': facet at {_fmt_point(facet_rep)} not covered by any subwall"
        )
    if source == EXTERIOR and len(separators) > 1:
        warnings.warn(
            f"wall '{f}': exterior facet at {_fmt_point(facet_rep)} has "
            f"{len(separators)} overlapping separators; summing all contributions",
            stacklevel=2,
        )
    return CrossingEdge(source, dest, facet_rep, tuple(separators))
