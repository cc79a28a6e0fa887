"""Subchamber decomposition of walls and crossing graphs.

The regular set of a wall is the wall minus all smaller walls contained
in it.  When every smaller wall is a face of the wall (every wall of a
Delzant polytope, every wall but the top of a generic CP^n projection),
that is the open wall: one subchamber, whose crossing edges run from the
exterior across the wall's facets, and whose cut planes are those
facets, read off the wall with no refinement (`_faces_only`).
Otherwise its connected components (subchambers) are found by refining
the wall along the affine spans of its codimension-1 subwalls, then
merging cells across any shared facet that no actual subwall covers.

The cells are cut by double description (`exactgeom.Refinement`): each
vertex carries the set of cell inequalities it is tight on, so a cut, a
merged chamber's facets and vertices, and the face two chambers share
are all read off those sets, with no convex hull.  Each subwall's
hyperplane is computed once per wall, in integers, in the facet form of
the wall's own `int_facets` (`exactgeom.span_hyperplane`), and shared
by the cuts and the edges; a face-only wall's cuts are its facets, in
that same form.

The refinement records each cell's sign vector over the cut planes.  A
facet two cells share lies on exactly one cut plane, so its sign vector
is its cell's with that plane's entry set to 0, and no point is
evaluated to get it.  The merge test then tries only the subwalls that
plane alone holds, or no plane does, and builds the facet's centroid in
integers only when there is one to try.

The crossing graph is read off the same refinement: every facet of a
cell is shared with exactly one other cell or lies on the wall's
boundary, so the facets left between two subchambers (or a subchamber
and the exterior) are its edges.  Each edge carries the separating
subchambers of the codimension-1 strata with forward/backward weight
counts.  A separator's weights are counted once per (subwall, wall)
against its unoriented plane; an edge swaps the two counts when its
destination lies below that plane.

Each edge is read off the decomposition too.  A piece that is one wall
facet, or one cell facet between two subchambers, records the cut
plane it lies on and the side of it where its destination lies (the
facet's cell's sign there), so only the subwalls on that plane are
tested, and no point is signed.  Only a piece of several cell facets,
or a refined wall's exterior piece, takes its rep's signs.  A separator
whose smaller walls are all faces has one subchamber, so a rep strictly
inside its facets is placed there with no `locate`.

`locate` places a point by its signs on the cut planes, taken on the
point's integer form, which it clears once for all its tests: a point
on no plane is tested against the subwalls no plane holds (listed once
per wall) and looked up by sign vector, and a point on a plane tests a
subwall only when it lies on every cut plane that holds it (its own
plane, for a codimension-1 subwall).  A regular point on a plane's
extension beyond its subwall lies on the boundary of cells, and for it
the closed subchambers are scanned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedXray, SingularLevel, XrayError
from .exactgeom import Polytope, Refinement, bits, span_hyperplane
from .ratmath import RatVector, clear_denominators, format_rational, idot
from .xray import WeightedXray, scaled_weights_in, subwall_facets

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

    pieces:   (source, dest, rep, form, plane, side) per face between
              two subchambers, source < dest, or between EXTERIOR and a
              subchamber.  form is the rep as (P, D), the point P / D
              with D > 0, unreduced: the vertices' sum over their count
              (`Refinement.mean`, `_mean`).  Every integer test on the
              rep reads form, as none changes when P and D are scaled
              by one positive integer; the Fraction rep is kept for the
              edge's `facet_rep` and for `locate`.  When the face is one
              wall facet, or one cell facet between two subchambers, it
              lies on the cut with index plane and on no other, and
              dest's chamber lies on side (-1 or +1) of that cut.
              Otherwise plane and side are None, and the rep's signs on
              the cuts decide (`_signs`).
    cuts:     the distinct hyperplanes of the codimension-1 subwalls in
              cut order, or for a wall whose subwalls are all faces its
              own facets: on both paths in `hull`'s facet form, primitive
              integer (normal, offset) pairs with the normal supported on
              the wall's pivot columns (`exactgeom.span_hyperplane`).
    subwalls: (id, wall, plane, holding) for every smaller stratum,
              sorted by id.  plane is the index in cuts of a
              codimension-1 subwall's own hyperplane, None for a subwall
              of higher codimension.  holding indexes every cut plane
              that contains the subwall: (plane,) for codimension 1, and
              for a higher codimension the planes all of its vertices
              lie on, which may be none.
    loose:    (id, wall) of the subwalls no cut plane holds, sorted by
              id: the only ones a point on no cut plane can lie on.
    cell_of:  each refinement cell's sign vector over cuts, mapped to
              the index of the subchamber holding the cell; for a wall
              whose subwalls are all faces, all -1 to its one chamber.
    """

    chambers: tuple[Subchamber, ...]
    pieces: tuple[tuple[int, int, RatVector, tuple[tuple[int, ...], int], int | None, int | None], ...]
    cuts: tuple[tuple[tuple[int, ...], int], ...]
    subwalls: tuple[tuple[str, Polytope, int | None, tuple[int, ...]], ...]
    loose: tuple[tuple[str, Polytope], ...]
    cell_of: dict[tuple[int, ...], int]


def _decompose(x: WeightedXray, f: str) -> _Decomposition:
    """Subchambers of f's wall, the face pieces between them, the
    subwalls' hyperplanes and the sign-vector index, cached on the X-ray.

    When every smaller wall is a face of f's wall (`xray.subwall_facets`)
    the regular set is the open wall, and the decomposition is read off
    the wall itself (`_faces_only`); otherwise the wall is refined along
    its subwalls' hyperplanes (`_refine`).
    """
    key = ("decomposition", f)
    if key in x._cache:
        return x._cache[key]
    through = subwall_facets(x, f)
    out = _refine(x, f) if through is None else _faces_only(x, f, through)
    x._cache[key] = out
    return out


def _faces_only(x: WeightedXray, f: str, through: dict[str, int]) -> _Decomposition:
    """The decomposition of a wall whose smaller walls are all faces,
    with through[g] the wall facets through g (`xray.subwall_facets`).

    The open wall is the one subchamber, and each crossing edge runs
    from the exterior across one wall facet, at its vertex centroid.
    The cut planes are the wall's facets: a codimension-1 subwall lies
    on the one facet through it, no subwall is loose, and a point inside
    the wall on no facet has the sign vector of all -1.  So the piece on
    facet i lies on cut plane i alone, and the chamber below it.  The
    centroids are summed from the wall's `int_vertices`.
    """
    wall = x.stratum(f).wall
    subwalls = []
    for g, mask in through.items():
        holding = tuple(bits(mask))
        subwalls.append((g, x.stratum(g).wall, holding[0] if x.dim(g) == wall.dim - 1 else None, holding))
    rows, den = wall.int_vertices
    masks = wall.vertex_masks
    pieces = []
    for i in range(len(wall.int_facets)):
        form = _mean([v for v, t in zip(rows, masks) if t >> i & 1], den)
        pieces.append((EXTERIOR, 0, _point(*form), form, i, -1))
    return _Decomposition(
        (Subchamber(f, 0, wall, _point(*_mean(rows, den))),),
        tuple(pieces),
        wall.int_facets,
        tuple(subwalls),
        (),
        {(-1,) * len(wall.int_facets): 0},
    )


def _refine(x: WeightedXray, f: str) -> _Decomposition:
    """The decomposition of f's wall by refinement along its subwalls'
    hyperplanes, the path for a wall that some smaller wall cuts into.

    Each codimension-1 subwall's hyperplane is computed once: the cuts
    use the distinct ones, `locate` and `crossing_graph` read a point's
    signs on them, and `crossing_graph` counts separator weights
    against them.  A subwall of higher codimension records the cut
    planes holding it, found by testing its vertices in integers.

    A facet of a cell is the tuple of its vertex ids tight on one of
    its inequalities.  A facet two cells share lies on the cut whose
    bit it carries (`_facet_cut`), and on no other cut plane: distinct
    planes meet in codimension 2.  Its sign vector is therefore the
    cell's recorded one with that entry 0, so the subwalls that can hold
    it are those held by that plane alone or by no plane, which a
    per-wall index lists.  Only when that list is not empty is the
    facet's vertex centroid formed, in integers (`Refinement.mean`),
    and tested against them; otherwise the two cells merge at once.

    A merged chamber's facets are its cells' facets less those two of
    its cells share, and its vertices are the cells' vertices where
    those facets have full rank; a subchamber is convex, so this is the
    hull of its cells.  A piece's rep is the vertex centroid of the face
    the two sides share, whose vertices are found the same way from the
    two sides' facets.  A piece that is one cell facet between two
    subchambers lies on that facet's cut alone, and dest's chamber lies
    on the side of it where the facet's cell in that chamber does, as a
    convex chamber lies on one side of the plane of any of its facets.
    Chamber and piece reps are summed from the points' integer forms,
    and each piece keeps that form for its edge's tests.
    """
    wall = x.stratum(f).wall
    k = wall.dim
    lower = sorted(x.below(f))
    planes = {g: span_hyperplane(wall.span, x.stratum(g).wall.span) for g in lower if x.dim(g) == k - 1}
    cuts = tuple(dict.fromkeys(planes.values()))

    ref = Refinement(wall)
    for plane in cuts:
        ref.cut(plane)
    cells = ref.cells

    root = list(range(len(cells)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    cut_index = {plane: i for i, plane in enumerate(cuts)}
    subwalls = []
    for g in lower:
        sub = x.stratum(g).wall
        if g in planes:
            i = cut_index[planes[g]]
            subwalls.append((g, sub, i, (i,)))
        else:
            subwalls.append((g, sub, None, _planes_holding(cuts, sub)))
    masks = []
    owners: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, (ids, tight) in enumerate(cells):
        mask = 0
        for t in tight:
            mask |= t
        masks.append(mask)
        for bit in range(mask.bit_length()):
            if mask >> bit & 1:
                facet = tuple([v for v, t in zip(ids, tight) if t >> bit & 1])
                owners.setdefault(facet, []).append((i, bit))
    # The subwalls a shared facet can lie on: held by its cut plane
    # alone, or by no plane.
    loose = tuple((g, sub) for g, sub, _, holding in subwalls if not holding)
    loose_walls = [sub for _, sub in loose]
    alone: dict[int, list[Polytope]] = {}
    for _, sub, _, holding in subwalls:
        if len(holding) == 1:
            alone.setdefault(holding[0], []).append(sub)
    nfacets = len(wall.int_facets)
    for facet, own in owners.items():
        if len(own) == 2:
            (i, bit), (j, _) = own
            tests = alone.get(_facet_cut(bit, nfacets), []) + loose_walls
            if tests:
                mid = ref.mean(facet)
                if any(sub.holds(*mid) for sub in tests):
                    continue
            root[find(i)] = find(j)

    # Each facet is shared by two cells or lies on one wall facet, whose
    # bit it carries.  A chamber's facets are its cells' facets less
    # those shared by two of its cells.
    groups: dict[int, list[int]] = {}
    for i in range(len(cells)):
        groups.setdefault(find(i), []).append(i)
    inner = dict.fromkeys(groups, 0)
    shared: dict[tuple, list[tuple[tuple[int, ...], list[tuple[int, int]]]]] = {}
    for facet, own in owners.items():
        if len(own) == 2:
            (i, bi), (j, bj) = own
            a, b = sorted((find(i), find(j)))
            if a == b:
                inner[a] |= 1 << bi | 1 << bj
            else:
                shared.setdefault((a, b), []).append((facet, own))
        else:
            (i, bit), = own
            shared.setdefault((EXTERIOR, find(i), bit), []).append((facet, own))

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
        merged.append((_point(*ref.mean(ids)), ref.polytope(ids, bounds[r]), r))
    merged.sort(key=lambda item: item[0])
    chambers = tuple(Subchamber(f, i, cell, rep) for i, (rep, cell, _) in enumerate(merged))
    index = {r: i for i, (_, _, r) in enumerate(merged)}
    index[EXTERIOR] = EXTERIOR
    pieces = []
    for (a, b, *_), facets in shared.items():
        source, dest = sorted((index[a], index[b]))
        (ids, own), plane, side = facets[0], None, None
        if len(facets) > 1:
            mask = bounds[b] if a == EXTERIOR else bounds[a] | bounds[b]
            ids = ref.vertices(dict.fromkeys(v for facet, _ in facets for v in facet), mask)
        elif a != EXTERIOR:
            # One cell facet between two subchambers: on the cut its bit
            # names, and dest's chamber on its cell's side of that cut.
            (i, bit), (j, _) = own
            plane = _facet_cut(bit, nfacets)
            cell = i if index[find(i)] == dest else j
            side = ref.signs[cell][plane]
        form = ref.mean(ids)
        pieces.append((source, dest, _point(*form), form, plane, side))
    return _Decomposition(
        chambers,
        tuple(pieces),
        cuts,
        tuple(subwalls),
        loose,
        {sv: index[find(i)] for i, sv in enumerate(ref.signs)},
    )


def subchambers(x: WeightedXray, f: str) -> tuple[Subchamber, ...]:
    """Closed subchambers of the wall of f, sorted by representative.

    A 0-dimensional wall is its own (trivial) subchamber.  Results are
    cached on the X-ray, keyed by stratum id.
    """
    return _decompose(x, f).chambers


def _facet_cut(bit: int, nfacets: int) -> int:
    """The index in cuts of the plane a cell facet lies on, from its bit
    in `Refinement.int_facets`: the wall's nfacets facets come first,
    then the lower and upper orientation of each cut."""
    return (bit - nfacets) // 2


def _signs(cuts: tuple[tuple[tuple[int, ...], int], ...], scaled: tuple[int, ...], den: int) -> tuple[int, ...]:
    """Sign of normal . q - offset on each cut, for the point q = scaled
    / den with den > 0, in lowest terms (`ratmath.clear_denominators`)
    or not: the cuts are integer already, so each sign is one integer
    test, which scaling scaled and den alike leaves as it is."""
    out = []
    for normal, offset in cuts:
        s = idot(normal, scaled) - offset * den
        out.append((s > 0) - (s < 0))
    return tuple(out)


def _planes_holding(cuts: tuple[tuple[tuple[int, ...], int], ...], wall: Polytope) -> tuple[int, ...]:
    """The indices of the cuts that every vertex of wall lies on, decided
    on its `int_vertices`."""
    rows, den = wall.int_vertices
    return tuple(i for i, (normal, offset) in enumerate(cuts) if all(idot(normal, v) == offset * den for v in rows))


def _point(scaled: tuple[int, ...], den: int) -> RatVector:
    """The point scaled / den, one Fraction per coordinate."""
    return tuple([Fraction(p, den) for p in scaled])


def _mean(rows: list[tuple[int, ...]], den: int) -> tuple[tuple[int, ...], int]:
    """The vertex centroid of the points rows / den as (P, D), summed in
    integers and not reduced."""
    return tuple([sum(col) for col in zip(*rows)]), den * len(rows)


def _subwall_holding(
    subwalls: tuple[tuple[str, Polytope, int | None, tuple[int, ...]], ...],
    signs: tuple[int, ...],
    scaled: tuple[int, ...],
    den: int,
) -> str | None:
    """The first subwall in id order that contains the point scaled /
    den, or None.  A point off a plane holding a subwall (a nonzero
    sign) is not on that subwall, so a subwall is tested only when the
    point lies on every plane that holds it; one on no plane is always
    tested."""
    return next(
        (g for g, w, _, holding in subwalls if all(signs[i] == 0 for i in holding) and w.holds(scaled, den)), None
    )


def locate(x: WeightedXray, f: str, q: RatVector) -> Subchamber:
    """The subchamber of f's wall containing q.

    q must be a regular point of the wall: inside it but on no smaller
    wall.  Singular points are rejected with a pointer to the smaller
    stratum, since the reduction there belongs to a different stratum's
    table; the first smaller stratum in id order that contains q is
    named.  A point of another dimension than the wall's ambient space
    raises ValueError.

    q's denominators are cleared once (`ratmath.clear_denominators`),
    and every test after that is in integers, by `Polytope.holds`: the
    wall, q's signs on the wall's distinct cut planes (`_signs`), and
    the subwalls.  When no sign is zero, only the subwalls no cut plane
    holds (`_Decomposition.loose`) can contain q, and if none does q is
    in the open cell with that sign vector, found by lookup.  A point on
    some cut plane goes through `_subwall_holding`, and if it is regular
    (on the plane of a subwall, outside that subwall) it lies on the
    boundary of its cells, and the closed subchambers are scanned for it
    instead.
    """
    wall = x.stratum(f).wall
    if len(q) != wall.ambient_dim:
        raise ValueError("dimension mismatch")
    scaled, den = clear_denominators(q)
    if not wall.holds(scaled, den):
        raise XrayError(f"point {_fmt_point(q)} not in wall '{f}'")
    dec = _decompose(x, f)
    signs = _signs(dec.cuts, scaled, den)
    generic = 0 not in signs
    if generic:
        g = next((g for g, sub in dec.loose if sub.holds(scaled, den)), None)
    else:
        g = _subwall_holding(dec.subwalls, signs, scaled, den)
    if g is not None:
        raise SingularLevel(
            f"point {_fmt_point(q)} lies on subwall '{g}': "
            "singular point of this wall; query a smaller stratum"
        )
    if generic:
        return dec.chambers[dec.cell_of[signs]]
    for chamber in dec.chambers:
        if chamber.cell.holds(scaled, den):
            return chamber
    raise XrayError(f"point {_fmt_point(q)} is in no subchamber of '{f}'")


def crossing_graph(x: WeightedXray, f: str) -> CrossingGraph:
    """Adjacency graph of the subchambers of f's wall, plus EXTERIOR.

    One edge per adjacent chamber pair, oriented low index to high; one
    edge per boundary facet piece, oriented EXTERIOR to chamber.  Every
    edge carries all separating subchambers with their (f, b) counts.
    A separator's weights are counted once per (subwall, wall) against
    its unoriented cut plane, and each edge swaps the two counts when
    its destination lies below that plane.  Cached on the X-ray.

    The codimension-1 subwalls are indexed by cut plane once per wall,
    so a piece known to lie on one plane (`_Decomposition.pieces`) tests
    only the subwalls on it, on the rep's integer form taken once.  A
    separator whose smaller walls are all faces (`xray.subwall_facets`)
    has one subchamber, its open wall: a rep strictly inside all of its
    facets is in subchamber 0 with no `locate`.  That covers every edge
    of a wall whose smaller walls are all faces, whose pieces are whole
    facets and whose reps are the separators' own chamber reps.
    """
    key = ("crossing_graph", f)
    if key in x._cache:
        return x._cache[key]
    dec = _decompose(x, f)
    chambers = dec.chambers
    on_plane: dict[int, list[tuple[str, Polytope, int]]] = {}
    for g, wall, i, _ in dec.subwalls:
        if i is not None:
            on_plane.setdefault(i, []).append((g, wall, i))
    counts: dict[str, tuple[int, int]] = {}
    edges = [
        _build_edge(x, f, dec, on_plane, counts, chambers[dest].rep, source, dest, rep, form, plane, side)
        for source, dest, rep, form, plane, side in dec.pieces
    ]
    edges.sort(key=lambda e: (e.source, e.dest, e.facet_rep))
    graph = CrossingGraph(f, (EXTERIOR,) + tuple(range(len(chambers))), tuple(edges))
    x._cache[key] = graph
    return graph


def _weight_counts(x: WeightedXray, g: str, f: str, normal: tuple[int, ...]) -> tuple[int, int]:
    """How many of g's weights in f's wall lie above and below normal,
    tested on their integer forms (`xray.scaled_weights_in`)."""
    above = below = 0
    for w in scaled_weights_in(x, g, f):
        v = idot(normal, w)
        if v > 0:
            above += 1
        elif v < 0:
            below += 1
    return above, below


def _build_edge(
    x: WeightedXray,
    f: str,
    dec: _Decomposition,
    on_plane: dict[int, list[tuple[str, Polytope, int]]],
    counts: dict[str, tuple[int, int]],
    toward: RatVector,
    source: int,
    dest: int,
    facet_rep: RatVector,
    form: tuple[tuple[int, ...], int],
    plane: int | None,
    side: int | None,
) -> CrossingEdge:
    """The edge across one piece: every codimension-1 subwall on a cut
    plane through facet_rep that holds it, and is not singular there,
    separates.  A piece known to lie on one plane (`_Decomposition`)
    tests the subwalls on it and takes dest's side as given; any other
    tests those on the planes where its rep's sign is zero (`_signs`),
    each with the side of toward, dest's rep.  form is facet_rep as the
    piece carries it, (P, D) unreduced, and every sign and subwall test
    here reads it: none changes when P and D are scaled alike by a
    positive integer.  A `locate` call clears facet_rep itself."""
    scaled, den = form
    if plane is None:
        signs = _signs(dec.cuts, scaled, den)
        candidates = [(g, wall, i) for g, wall, i, _ in dec.subwalls if i is not None and signs[i] == 0]
        toward_scaled, toward_den = clear_denominators(toward)
    else:
        candidates = on_plane.get(plane, ())
    separators = []
    for g, wall, i in candidates:
        if not wall.holds(scaled, den):
            continue
        if subwall_facets(x, g) is not None and all(idot(n, scaled) < c * den for n, c in wall.int_facets):
            r = 0
        else:
            try:
                r = locate(x, g, facet_rep).index
            except SingularLevel:
                continue  # on a subwall of g, not in an open subchamber
        normal, offset = dec.cuts[i]
        if plane is None:
            side = idot(normal, toward_scaled) - offset * toward_den
            if side == 0:
                raise ValueError("toward point lies on the separator")
        if g not in counts:
            counts[g] = _weight_counts(x, g, f, normal)
        above, below = counts[g]
        if side < 0:
            above, below = below, above
        separators.append(Separator(g, r, above, below))
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
