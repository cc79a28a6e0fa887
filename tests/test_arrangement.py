import random
import warnings
from fractions import Fraction
from itertools import combinations

import pytest

import conftest
from xraycross import arrangement, exactgeom, generators, xray
from xraycross.arrangement import EXTERIOR, crossing_graph, locate, subchambers
from xraycross.errors import MalformedXray, SingularLevel, XrayError
from xraycross.exactgeom import (
    Polytope,
    Refinement,
    clip_to_polytope,
    facet_polytopes,
    hull,
    side_functional,
    span_hyperplane,
)
from xraycross.generators import ProjectionMatrix, cpn_xray, load_xray, save_xray
from xraycross.ratmath import as_vec, clear_denominators, format_rational, vdot
from xraycross.xray import stratum_weights_in
from conftest import CP4_ROWS, NCP4_ROWS, seeded_rows, vertices_below
from test_exactgeom import centroid, relative_interior_contains, scaled_point
from test_ratmath import lin_contains, sign, vscale

DIAG = "w2-3-4-5"


def test_cp3_top_subchambers(cp3):
    cells = subchambers(cp3, "top")
    assert len(cells) == 3
    assert [c.rep for c in cells] == [
        (Fraction(1, 2),),
        (Fraction(3, 2),),
        (Fraction(5, 2),),
    ]
    assert [set(c.cell.vertices) for c in cells] == [
        {as_vec((0,)), as_vec((1,))},
        {as_vec((1,)), as_vec((2,))},
        {as_vec((2,)), as_vec((3,))},
    ]


def test_vertex_stratum_trivial_subchamber(cp3):
    cells = subchambers(cp3, "v1")
    assert len(cells) == 1
    assert cells[0].rep == as_vec((0,))


def test_ncp4_diagonal_subchambers(ncp4):
    cells = subchambers(ncp4, DIAG)
    assert [c.rep for c in cells] == [
        (Fraction(3, 4), Fraction(13, 4)),
        (Fraction(2), Fraction(2)),
        (Fraction(13, 4), Fraction(3, 4)),
    ]


def test_ncp4_top_subchambers(ncp4):
    assert len(subchambers(ncp4, "top")) == 3


def test_cp4_top_subchambers(cp4):
    assert len(subchambers(cp4, "top")) == 7


def test_cp3_crossing_graph(cp3):
    graph = crossing_graph(cp3, "top")
    summary = [
        (e.source, e.dest, e.facet_rep, [(s.g, s.r, s.f, s.b) for s in e.separators])
        for e in graph.edges
    ]
    assert summary == [
        (EXTERIOR, 0, (Fraction(0),), [("v1", 0, 3, 0)]),
        (EXTERIOR, 2, (Fraction(3),), [("v4", 0, 3, 0)]),
        (0, 1, (Fraction(1),), [("v2", 0, 2, 1)]),
        (1, 2, (Fraction(2),), [("v3", 0, 1, 2)]),
    ]


def test_ncp4_exterior_crossings_through_diagonal(ncp4):
    graph = crossing_graph(ncp4, "top")
    assert len(graph.edges) == 7
    ext = [e for e in graph.edges if e.source == EXTERIOR]
    into_beta = [e for e in ext if e.dest == 1]
    assert len(into_beta) == 1
    assert [(s.g, s.r, s.f, s.b) for s in into_beta[0].separators] == [(DIAG, 1, 1, 0)]
    through_a = [
        e for e in ext if e.dest == 2 and e.facet_rep == (Fraction(13, 4), Fraction(3, 4))
    ]
    assert [(s.g, s.r, s.f, s.b) for s in through_a[0].separators] == [(DIAG, 2, 1, 0)]


def test_ncp4_interior_crossing_chord(ncp4):
    graph = crossing_graph(ncp4, "top")
    alpha_beta = [e for e in graph.edges if (e.source, e.dest) == (1, 2)]
    assert len(alpha_beta) == 1
    assert [(s.g, s.r, s.f, s.b) for s in alpha_beta[0].separators] == [("w1-5", 0, 1, 2)]


def test_cp4_bottom_exterior_crossing(cp4):
    graph = crossing_graph(cp4, "top")
    bottom = [
        e
        for e in graph.edges
        if e.source == EXTERIOR and e.facet_rep[1] == 0
    ]
    assert len(bottom) == 1
    assert [(s.g, s.f, s.b) for s in bottom[0].separators] == [("w1-2", 3, 0)]


def test_locate_cp3(cp3):
    assert locate(cp3, "top", as_vec(("3/2",))).index == 1


def test_locate_diagonal_middle(ncp4):
    assert locate(ncp4, DIAG, as_vec((2, 2))).index == 1


def test_locate_rejects_subwall_point(ncp4):
    with pytest.raises(SingularLevel, match="smaller stratum"):
        locate(ncp4, "top", as_vec((4, 0)))
    with pytest.raises(SingularLevel, match="smaller stratum"):
        locate(ncp4, DIAG, as_vec(("5/2", "3/2")))


def test_locate_rejects_outside_point(ncp4):
    with pytest.raises(XrayError, match="not in wall"):
        locate(ncp4, "top", as_vec((10, 10)))


def test_exterior_connectivity(cp3, cp4, ncp4, toric_triangle):
    for x in (cp3, cp4, ncp4, toric_triangle):
        for sid in x.ids:
            if x.dim(sid) == 0:
                continue
            graph = crossing_graph(x, sid)
            seen = {EXTERIOR}
            frontier = [EXTERIOR]
            neighbors = {}
            for e in graph.edges:
                neighbors.setdefault(e.source, []).append(e.dest)
                neighbors.setdefault(e.dest, []).append(e.source)
            while frontier:
                node = frontier.pop()
                for other in neighbors.get(node, []):
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
            assert seen == {EXTERIOR, *range(len(subchambers(x, sid)))}


def counts_from_vertex(x, f, edge, separator, vertex):
    """Recompute a separator's (f, b) from one chosen vertex stratum."""
    fspan = x.stratum(f).wall.span
    gwall = x.stratum(separator.g).wall
    cells = subchambers(x, f)
    toward = cells[edge.dest].rep if edge.dest != EXTERIOR else cells[edge.source].rep
    ell = side_functional(fspan, gwall.span, toward)
    fwd = bwd = 0
    for w in x.stratum(vertex).vertex_data.weights:
        if not lin_contains(fspan, w):
            continue
        s = sign(ell.on_vector(w))
        if s > 0:
            fwd += 1
        elif s < 0:
            bwd += 1
    if edge.dest == EXTERIOR:
        fwd, bwd = bwd, fwd
    return fwd, bwd


def test_counts_vertex_independent(cp4, ncp4):
    for x in (cp4, ncp4):
        graph = crossing_graph(x, "top")
        for edge in graph.edges:
            for sep in edge.separators:
                for v in vertices_below(x, sep.g):
                    assert counts_from_vertex(x, "top", edge, sep, v) == (sep.f, sep.b)


def test_orientation_antisymmetry(cp3, cp4, ncp4):
    for x in (cp3, cp4, ncp4):
        for sid in x.ids:
            if x.dim(sid) == 0:
                continue
            for edge in crossing_graph(x, sid).edges:
                back = edge.reversed()
                assert back.source == edge.dest and back.dest == edge.source
                for fwd, rev in zip(edge.separators, back.separators):
                    assert (rev.f, rev.b) == (fwd.b, fwd.f)
                    assert (rev.g, rev.r) == (fwd.g, fwd.r)


def test_separator_uniqueness(cp4, ncp4):
    for x in (cp4, ncp4):
        for edge in crossing_graph(x, "top").edges:
            strata_seen = [s.g for s in edge.separators]
            assert len(strata_seen) == len(set(strata_seen))
            for sep in edge.separators:
                found = locate(x, sep.g, edge.facet_rep)
                assert found.index == sep.r


def test_partition_of_generic_top_wall(cp4):
    cells = subchambers(cp4, "top")
    columns = [cp4.stratum(f"v{k}").wall.vertices[0] for k in range(1, 6)]
    subwalls = [cp4.stratum(sid).wall for sid in cp4.below("top")]
    rng = random.Random(20240811)
    tested = 0
    for _ in range(10000):
        raw = [rng.randint(0, 4) for _ in columns]
        total = sum(raw)
        if total == 0:
            continue
        q = (Fraction(0), Fraction(0))
        for w, c in zip(raw, columns):
            q = tuple(qi + Fraction(w, total) * ci for qi, ci in zip(q, c))
        if any(wall.contains(q) for wall in subwalls):
            continue
        owners = [cell.index for cell in cells if cell.cell.contains(q)]
        assert len(owners) == 1, (q, owners)
        tested += 1
    assert tested > 5000


def test_subchamber_reps_off_subwalls(cp4, ncp4):
    for x in (cp4, ncp4):
        for sid in x.ids:
            for cell in subchambers(x, sid):
                assert relative_interior_contains(cell.cell, cell.rep)
                if x.dim(sid) == 0:
                    continue
                for below in x.below(sid):
                    assert not x.stratum(below).wall.contains(cell.rep)


def test_scaled_functional_same_counts(ncp4):
    """Separator counts only use signs, so scaling the functional is harmless."""
    fspan = ncp4.stratum("top").wall.span
    gspan = ncp4.stratum(DIAG).wall.span
    toward = as_vec(("4/3", "4/3"))
    ell = side_functional(fspan, gspan, toward)
    weights = stratum_weights_in(ncp4, DIAG, "top")
    raw = [sign(ell.on_vector(w)) for w in weights]
    doubled = [sign(ell.on_vector(vscale(w, Fraction(2)))) for w in weights]
    assert raw == doubled


def random_cpn(d, n, seed):
    """CP^n under a seeded projection with distinct columns and full rank."""
    return cpn_xray(n, seeded_rows(d, n, seed))


def test_seeded_rows_rejects_a_grid_too_small(monkeypatch):
    """Four grid values cannot make six distinct columns: seeded_rows
    raises before it draws a single row."""
    monkeypatch.setattr(conftest, "random", None)
    with pytest.raises(ValueError, match="distinct columns"):
        seeded_rows(1, 5, 0, grid=3)


def locate_by_scan(x, f, q):
    """The subchamber of f's wall holding q, found by testing the wall,
    then every subwall in id order, then each chamber's closed cell."""
    point = "(" + ",".join(format_rational(c) for c in q) + ")"
    if not x.stratum(f).wall.contains(q):
        raise XrayError(f"point {point} not in wall '{f}'")
    for g in sorted(x.below(f)):
        if x.stratum(g).wall.contains(q):
            raise SingularLevel(
                f"point {point} lies on subwall '{g}': singular point of this wall; query a smaller stratum"
            )
    for chamber in subchambers(x, f):
        if chamber.cell.contains(q):
            return chamber
    raise XrayError(f"point {point} is in no subchamber of '{f}'")


def outcome(find, x, f, q):
    try:
        return find(x, f, q).index
    except XrayError as e:
        return type(e), str(e)


def cut_planes(x, f):
    """The hyperplanes of f's codimension-1 subwalls."""
    span = x.stratum(f).wall.span
    return [span_hyperplane(span, x.stratum(g).wall.span) for g in x.below(f) if x.dim(g) == x.dim(f) - 1]


def probe_points(x, f, rng):
    """Chamber reps and vertices, crossing-edge reps, and seeded affine
    combinations of them, some beyond the wall."""
    base = [c.rep for c in subchambers(x, f)] + [v for c in subchambers(x, f) for v in c.cell.vertices]
    if x.dim(f):
        base += [e.facet_rep for e in crossing_graph(x, f).edges]
    base = list(dict.fromkeys(base))
    extra = []
    for _ in range(min(30, len(base) ** 2)):
        a, b = rng.choice(base), rng.choice(base)
        t = Fraction(rng.randint(-2, 6), 4)
        extra.append(tuple(ai + t * (bi - ai) for ai, bi in zip(a, b)))
    return base + extra


def test_locate_matches_scan(cp3, cp4, ncp4, toric_triangle, unit_square, segment):
    """locate gives the scan's chamber, or its exception type and text,
    on regular points off and on the cut planes, subwall points and
    points outside the wall: every stratum of the fixtures and of seeded
    CP^n at d = 1, 2, 3, and a grid of tenths over [0, 4]^2 on the top
    walls of cp4 and ncp4."""
    cases = []
    xs = [cp3, cp4, ncp4, toric_triangle, unit_square, segment]
    xs += [random_cpn(1, 5, 0), random_cpn(2, 5, 0), random_cpn(3, 4, 0)]
    for x in xs:
        rng = random.Random(len(cases))
        cases += [(x, f, q) for f in sorted(x.ids) for q in probe_points(x, f, rng)]
    grid = [(Fraction(i, 10), Fraction(j, 10)) for i in range(41) for j in range(41)]
    cases += [(x, "top", q) for x in (cp4, ncp4) for q in grid]
    kinds = set()
    planes = {}
    for x, f, q in cases:
        got = outcome(locate, x, f, q)
        assert got == outcome(locate_by_scan, x, f, q), (f, q)
        if isinstance(got, int):
            if (id(x), f) not in planes:
                planes[id(x), f] = cut_planes(x, f)
            on_plane = any(vdot(normal, q) == offset for normal, offset in planes[id(x), f])
            kinds.add("on a cut plane" if on_plane else "regular")
        else:
            kinds.add(got[0])
    assert kinds == {"regular", "on a cut plane", SingularLevel, XrayError}


@pytest.mark.parametrize("name", ["cp3", "cp4", "ncp4"])
def test_locate_rejects_a_point_of_another_dimension(request, name):
    """locate clears q's denominators itself, but a point with more or
    fewer coordinates than the wall's ambient space still raises the
    ValueError `Polytope.contains` raises for it."""
    x = request.getfixturevalue(name)
    rep = subchambers(x, x.top_id)[0].rep
    for q in (rep + (Fraction(1, 3),), rep[:-1]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            x.stratum(x.top_id).wall.contains(q)
        with pytest.raises(ValueError, match="dimension mismatch"):
            locate(x, x.top_id, q)


@pytest.mark.parametrize("name", ["cp4", "ncp4", "seeded3"])
def test_locate_by_sign_vector_tests_no_chamber(monkeypatch, request, name):
    """A point on no cut plane is placed by its sign vector: locate tests
    only the wall and the subwalls of dimension below k - 1 that lie on
    no cut plane for containment, never a subwall on a plane the point
    is off, nor a chamber."""
    x = random_cpn(3, 4, 0) if name == "seeded3" else request.getfixturevalue(name)
    tested = []
    holds = Polytope.holds

    def recording(self, scaled, den):
        tested.append(self)
        return holds(self, scaled, den)

    hits = 0
    for f in x.ids:
        k = x.dim(f)
        if k == 0:
            continue
        planes = cut_planes(x, f)
        expected = [x.stratum(f).wall] + [
            x.stratum(g).wall
            for g in sorted(x.below(f))
            if x.dim(g) < k - 1
            and not any(
                all(vdot(normal, v) == offset for v in x.stratum(g).wall.vertices) for normal, offset in planes
            )
        ]
        for chamber in subchambers(x, f):
            if any(vdot(normal, chamber.rep) == offset for normal, offset in planes):
                continue
            tested.clear()
            with monkeypatch.context() as m:
                m.setattr(Polytope, "holds", recording)
                assert locate(x, f, chamber.rep) is chamber
            assert tested == expected
            hits += 1
    assert hits > 0


def pairwise_edges(x, f):
    """Crossing-graph edges found by clipping every pair of chamber cells.

    A (k-1)-dimensional intersection of two chambers is one edge; a
    chamber facet lying on a wall facet is one exterior edge.  Each rep
    is the vertex centroid of the shared face.
    """

    def centroid(p):
        return tuple(sum(col, Fraction(0)) / len(p.vertices) for col in zip(*p.vertices))

    wall = x.stratum(f).wall
    chambers = subchambers(x, f)
    edges = []
    for a, b in combinations(chambers, 2):
        shared = clip_to_polytope(a.cell, b.cell)
        if shared is not None and shared.dim == wall.dim - 1:
            edges.append((a.index, b.index, centroid(shared)))
    for chamber in chambers:
        for facet in facet_polytopes(chamber.cell):
            mid = centroid(facet)
            if any(vdot(normal, mid) == offset for normal, offset in wall.facets):
                edges.append((EXTERIOR, chamber.index, mid))
    return sorted(edges)


def test_crossing_graph_matches_pairwise_clipping(cp3, cp4, ncp4, toric_triangle, unit_square, segment):
    xs = [cp3, cp4, ncp4, toric_triangle, unit_square, segment]
    xs += [random_cpn(2, 5, seed) for seed in range(3)]
    xs += [random_cpn(3, 4, seed) for seed in range(2)]
    for x in xs:
        for sid in x.ids:
            graph = crossing_graph(x, sid)
            assert [(e.source, e.dest, e.facet_rep) for e in graph.edges] == pairwise_edges(x, sid)
            assert all(e.separators for e in graph.edges)


def count_calls(monkeypatch, names):
    """Count calls to the named exactgeom functions, wherever bound."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        original = getattr(exactgeom, name)
        for module in (exactgeom, arrangement, xray, generators):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return calls


FRESH = pytest.mark.parametrize(
    "make",
    [
        lambda: cpn_xray(4, ProjectionMatrix(CP4_ROWS)),
        lambda: cpn_xray(4, ProjectionMatrix(NCP4_ROWS)),
        lambda: random_cpn(2, 6, 0),
        lambda: random_cpn(3, 4, 0),
    ],
    ids=["cp4", "ncp4", "seeded", "seeded3"],
)


def faces_only(x, f):
    """Is every smaller wall a proper face of f's wall?  Decided on the
    face lattice, by vertex tuple."""
    wall = x.stratum(f).wall
    lattice = exactgeom.face_lattice(wall)[:-1]
    keys = {tuple(wall.vertices[j] for j in exactgeom.bits(m)) for level in lattice for m in level}
    return all(x.stratum(g).wall.vertices in keys for g in x.below(f))


@FRESH
def test_one_hyperplane_per_subwall(monkeypatch, make):
    """A wall that some smaller wall cuts into is refined, and its cuts
    and separator counts share one span_hyperplane call per
    codimension-1 subwall; a wall whose smaller walls are all faces cuts
    along its own facets and calls none.  No side functional is built."""
    x = make()  # fresh: the decomposition is cached on the X-ray
    calls = count_calls(monkeypatch, ["span_hyperplane", "side_functional"])
    for sid in x.ids:
        subchambers(x, sid)
        crossing_graph(x, sid)
    refined = [f for f in x.ids if not faces_only(x, f)]
    subwalls = sum(1 for f in refined for g in x.below(f) if x.dim(g) == x.dim(f) - 1)
    assert calls == {"span_hyperplane": subwalls, "side_functional": 0}


def chamber_outcome(x, f, q):
    try:
        return repr(locate(x, f, q))
    except XrayError as e:
        return type(e), str(e)


def refined(make):
    """A fresh X-ray whose every wall is decomposed by the refinement,
    called directly and cached where `_decompose` caches."""
    x = make()
    for f in x.ids:
        x._cache[("decomposition", f)] = arrangement._refine(x, f)
    return x


@pytest.mark.parametrize(
    "make",
    [
        lambda: cpn_xray(3, ProjectionMatrix(conftest.CP3_ROWS)),
        lambda: cpn_xray(4, ProjectionMatrix(CP4_ROWS)),
        lambda: cpn_xray(4, ProjectionMatrix(NCP4_ROWS)),
        lambda: generators.standard_simplex_xray(2),
        lambda: generators.standard_cube_xray(2),
        lambda: generators.standard_simplex_xray(1),
        lambda: generators.standard_cube_xray(3),
        lambda: random_cpn(2, 5, 1),
        lambda: random_cpn(3, 4, 1),
        lambda: cpn_xray(5, seeded_rows(2, 5, 1, grid=3)),
        lambda: cpn_xray(5, seeded_rows(3, 5, 1, grid=2)),
    ],
    ids=["cp3", "cp4", "ncp4", "triangle", "square", "segment", "cube3", "s25", "s34", "g253", "g352"],
)
def test_faces_only_matches_refinement(make):
    """A wall whose smaller walls are all faces skips the refinement and
    gives the subchambers, crossing graph and locate outcomes (chamber,
    or exception type and text) the refinement gives, at chamber reps,
    facet reps and vertices."""
    x, ref = make(), refined(make)
    walls = [f for f in x.ids if xray.subwall_facets(x, f) is not None]
    assert walls == [f for f in x.ids if faces_only(x, f)]
    assert walls
    for f in walls:
        assert repr(subchambers(x, f)) == repr(subchambers(ref, f))
        graph = crossing_graph(x, f)
        assert repr(graph) == repr(crossing_graph(ref, f))
        points = [c.rep for c in subchambers(x, f)] + [e.facet_rep for e in graph.edges] + list(x.stratum(f).wall.vertices)
        for q in points:
            assert chamber_outcome(x, f, q) == chamber_outcome(ref, f, q), (f, q)


@pytest.mark.parametrize("make,drop", [(generators.standard_cube_xray, "e1-2"), (generators.standard_simplex_xray, "e1-3")])
def test_faces_only_uncovered_facet_matches_refinement(make, drop):
    """With one facet stratum dropped (an unchecked load), the top wall's
    smaller walls are still faces, and its crossing graph raises the
    MalformedXray text the refinement raises."""
    doc = xray.to_interchange(make(2))
    doc["strata"] = [s for s in doc["strata"] if s["id"] != drop]
    for s in doc["strata"]:
        s["parents"] = [p for p in s["parents"] if p != drop]

    def load():
        return xray.from_interchange(doc)

    x, ref = load(), refined(load)
    assert xray.subwall_facets(x, "top") is not None
    with pytest.raises(MalformedXray) as fast:
        crossing_graph(x, "top")
    with pytest.raises(MalformedXray) as slow:
        crossing_graph(ref, "top")
    assert str(fast.value) == str(slow.value)
    assert "not covered by any subwall" in str(fast.value)


@FRESH
def test_cells_cut_without_hulls(monkeypatch, make):
    """Subchambers and crossing graphs take no hull and walk no face
    lattice, and every chamber's cell is in hull's canonical form, its
    integer vertices and facets filled in as hull fills them.  On both
    `_decompose` paths, refined and face-only, every cut is in that form
    too: it or its negation is an integer facet of one of the wall's
    chambers."""
    x = make()
    calls = count_calls(monkeypatch, ["hull", "clip_halfspace", "faces", "facet_polytopes"])
    chambers = {sid: subchambers(x, sid) for sid in x.ids}
    for sid in x.ids:
        crossing_graph(x, sid)
    assert calls == {"hull": 0, "clip_halfspace": 0, "faces": 0, "facet_polytopes": 0}
    monkeypatch.undo()
    paths = set()
    for sid, cells in chambers.items():
        for chamber in cells:
            want = hull(chamber.cell.vertices)
            assert chamber.cell == want
            assert {"int_vertices", "int_facets"} <= chamber.cell.__dict__.keys()
            assert chamber.cell.int_vertices == want.int_vertices
            assert chamber.cell.int_facets == want.int_facets
        if x.dim(sid) == 0:
            continue
        facets = {facet for chamber in cells for facet in chamber.cell.int_facets}
        for normal, offset in arrangement._decompose(x, sid).cuts:
            assert (normal, offset) in facets or (tuple(-a for a in normal), -offset) in facets, (sid, normal, offset)
        paths.add("faces only" if xray.subwall_facets(x, sid) is not None else "refined")
    assert paths == {"faces only", "refined"}


@pytest.mark.parametrize("d,n,seed", [(1, 6, 0), (2, 6, 1), (2, 5, 2), (3, 4, 3)])
def test_checked_load_and_cells_walk_no_face_hulls(monkeypatch, tmp_path, d, n, seed):
    """A checked load reads faces off vertex masks, and the cells take no
    hull either: facet_polytopes is never called and its process-global
    cache stays empty."""
    path = tmp_path / "x.json"
    save_xray(cpn_xray(n, seeded_rows(d, n, seed)), path)
    facet_polytopes.cache_clear()
    calls = count_calls(monkeypatch, ["facet_polytopes", "faces"])
    x = load_xray(path, checked=True)
    for sid in x.ids:
        subchambers(x, sid)
        crossing_graph(x, sid)
    assert calls == {"facet_polytopes": 0, "faces": 0}
    assert facet_polytopes.cache_info().currsize == 0


def shared_facets(x, f):
    """f's wall cut as `_decompose` cuts it, and each cell facet two cells
    share: (vertex ids, the two (cell, facet bit) owners)."""
    ref = Refinement(x.stratum(f).wall)
    for plane in arrangement._decompose(x, f).cuts:
        ref.cut(plane)
    owners = {}
    for i, (ids, tight) in enumerate(ref.cells):
        mask = 0
        for t in tight:
            mask |= t
        for bit in exactgeom.bits(mask):
            owners.setdefault(tuple(sorted(v for v, t in zip(ids, tight) if t >> bit & 1)), []).append((i, bit))
    return ref, [(facet, own) for facet, own in owners.items() if len(own) == 2]


SEEDED_AND_GRID = [
    lambda: cpn_xray(4, ProjectionMatrix(CP4_ROWS)),
    lambda: cpn_xray(4, ProjectionMatrix(NCP4_ROWS)),
    lambda: random_cpn(2, 6, 0),
    lambda: random_cpn(3, 4, 0),
    lambda: random_cpn(3, 5, 1),
    lambda: random_cpn(4, 5, 0),
    lambda: cpn_xray(6, seeded_rows(2, 6, 1, grid=2)),
    lambda: cpn_xray(5, seeded_rows(3, 5, 2, grid=2)),
    lambda: cpn_xray(6, seeded_rows(3, 6, 0, grid=1)),
]


@pytest.mark.parametrize("make", SEEDED_AND_GRID, ids=["cp4", "ncp4", "s26", "s34", "s35", "s45", "g26", "g35", "g36"])
def test_merge_test_reads_facet_sign_vectors(monkeypatch, make):
    """A shared facet's sign vector is its cell's recorded one with the
    entry of the cut its bit names set to 0, the signs of its centroid;
    and the subwalls the merge test tries there include every subwall
    holding that centroid.  The tries are recorded on a fresh X-ray
    whose subwalls all answer no, so every candidate is tried."""
    tried = {}
    x = make()
    ids = {id(x.stratum(g).wall): g for g in x.ids}
    with monkeypatch.context() as m:
        for f in x.ids:

            def recording(self, scaled, den, f=f):
                tried.setdefault((f, tuple(Fraction(p, den) for p in scaled)), set()).add(ids[id(self)])
                return False

            m.setattr(Polytope, "holds", recording)
            arrangement._decompose(x, f)
    x = make()
    facets = held = 0
    for f in x.ids:
        if x.dim(f) == 0:
            continue
        ref, shared = shared_facets(x, f)
        cuts = arrangement._decompose(x, f).cuts
        nfacets = len(x.stratum(f).wall.facets)
        for facet, own in shared:
            mid = centroid([scaled_point(ref, v) for v in facet])
            for cell, bit in own:
                signs = list(ref.signs[cell])
                signs[arrangement._facet_cut(bit, nfacets)] = 0
                assert tuple(signs) == arrangement._signs(cuts, *clear_denominators(mid))
            holding = {g for g in x.below(f) if x.stratum(g).wall.contains(mid)}
            assert holding <= tried.get((f, mid), set()), (f, mid)
            facets += 1
            held += bool(holding)
    assert facets >= held > 0


def test_separator_counts_match_per_edge_recount():
    """Every separator's (f, b) equals its weights counted again on that
    edge through `stratum_weights_in`, against the subwall's hyperplane
    oriented toward the edge's destination; some edges need the counts
    swapped, for a destination below the unoriented plane."""
    swapped = 0
    for make in SEEDED_AND_GRID:
        x = make()
        for f in x.ids:
            span = x.stratum(f).wall.span
            chambers = subchambers(x, f)
            for edge in crossing_graph(x, f).edges:
                for sep in edge.separators:
                    normal, offset = span_hyperplane(span, x.stratum(sep.g).wall.span)
                    if vdot(normal, chambers[edge.dest].rep) < offset:
                        normal = vscale(normal, Fraction(-1))
                        swapped += sep.f != sep.b
                    weights = [vdot(normal, w) for w in stratum_weights_in(x, sep.g, f)]
                    assert (sep.f, sep.b) == (sum(v > 0 for v in weights), sum(v < 0 for v in weights))
    assert swapped > 0


def crossing_graph_by_scan(x, f):
    """f's crossing graph by the full scan, the reference: the signs of
    each piece rep on every cut (`_signs`), every codimension-1 subwall
    on a zero-sign plane that contains the rep, `locate` for every such
    separator, and the side of its plane taken at the destination
    chamber's rep, counting the separator's weights in Fractions."""
    dec = arrangement._decompose(x, f)
    edges = []
    for source, dest, rep, _, _, _ in dec.pieces:
        signs = arrangement._signs(dec.cuts, *clear_denominators(rep))
        separators = []
        for g, wall, i, _ in dec.subwalls:
            if i is None or signs[i] != 0 or not wall.contains(rep):
                continue
            try:
                r = locate(x, g, rep)
            except SingularLevel:
                continue
            normal, offset = dec.cuts[i]
            side = vdot(normal, dec.chambers[dest].rep) - offset
            assert side != 0
            values = [vdot(normal, w) * side for w in stratum_weights_in(x, g, f)]
            separators.append(arrangement.Separator(g, r.index, sum(v > 0 for v in values), sum(v < 0 for v in values)))
        if not separators:
            point = "(" + ",".join(format_rational(c) for c in rep) + ")"
            raise MalformedXray(f"wall '{f}': facet at {point} not covered by any subwall")
        edges.append(arrangement.CrossingEdge(source, dest, rep, tuple(separators)))
    edges.sort(key=lambda e: (e.source, e.dest, e.facet_rep))
    return arrangement.CrossingGraph(f, (EXTERIOR,) + tuple(range(len(dec.chambers))), tuple(edges))


@pytest.mark.parametrize(
    "make",
    [
        lambda: cpn_xray(3, ProjectionMatrix(conftest.CP3_ROWS)),
        lambda: cpn_xray(4, ProjectionMatrix(CP4_ROWS)),
        lambda: cpn_xray(4, ProjectionMatrix(NCP4_ROWS)),
        lambda: generators.standard_simplex_xray(2),
        lambda: generators.standard_cube_xray(2),
        lambda: generators.standard_cube_xray(3),
        lambda: random_cpn(2, 5, 1),
        lambda: random_cpn(3, 4, 1),
        lambda: random_cpn(4, 5, 1),
        lambda: cpn_xray(7, seeded_rows(2, 7, 1, grid=3)),
        lambda: cpn_xray(5, seeded_rows(3, 5, 1, grid=2)),
        lambda: cpn_xray(5, seeded_rows(4, 5, 1, grid=1)),
        lambda: triangle_with_interior_vertex(),
        lambda: square_with_twin_edge(),
        lambda: square_with_inner_segment(),
    ],
    ids=["cp3", "cp4", "ncp4", "triangle", "square", "cube3", "s25", "s34", "s45", "g273", "g352", "g451", "tri9", "twin", "seg"],
)
def test_crossing_graph_matches_edge_by_edge_scan(make):
    """Reading each piece's plane and side off the decomposition, testing
    only the subwalls on that plane, and placing a rep strictly inside a
    separator read off its faces in its chamber 0 with no `locate`, give
    the graph the full scan gives.  Each piece's integer form, unreduced,
    is its rep.  A piece that carries a plane has its
    only zero sign there, and dest's chamber rep lies on the side the
    piece carries."""
    x = make()
    for f in x.ids:
        dec = arrangement._decompose(x, f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert graph_outcome(crossing_graph, x, f) == graph_outcome(crossing_graph_by_scan, x, f), f
        for _, dest, rep, (scaled, den), plane, side in dec.pieces:
            assert den > 0 and tuple(Fraction(c, den) for c in scaled) == rep
            if plane is not None:
                assert [i for i, s in enumerate(arrangement._signs(dec.cuts, *clear_denominators(rep))) if s == 0] == [plane]
                assert arrangement._signs(dec.cuts, *clear_denominators(dec.chambers[dest].rep))[plane] == side


def test_crossing_graph_reads_every_kind_of_piece():
    """The grids the scan is compared on have pieces of every kind: a
    wall facet, one cell facet between two subchambers, and pieces whose
    signs are taken (several cell facets, or a refined wall's exterior)."""
    kinds = set()
    for x in [cpn_xray(7, seeded_rows(2, 7, 1, grid=3)), cpn_xray(5, seeded_rows(3, 5, 1, grid=2))]:
        for f in x.ids:
            for source, _, _, _, plane, _ in arrangement._decompose(x, f).pieces:
                kinds.add("signs" if plane is None else "exterior" if source == EXTERIOR else "interior")
    assert kinds == {"signs", "exterior", "interior"}


@pytest.mark.parametrize(
    "make", [lambda: generators.standard_cube_xray(3), lambda: random_cpn(2, 6, 0), lambda: random_cpn(3, 4, 1)], ids=["cube3", "s26", "s34"]
)
def test_faces_only_graph_signs_and_locates_nothing(monkeypatch, make):
    """The crossing graph of a wall whose smaller walls are all faces, on
    a fresh X-ray with its decompositions built, calls neither `_signs`
    nor `locate`: each piece is a wall facet, and each separator's wall
    is that facet, read off its own faces."""
    x = make()
    walls = [f for f in x.ids if xray.subwall_facets(x, f) is not None and x.dim(f) > 0]
    assert walls
    for f in x.ids:
        arrangement._decompose(x, f)
    calls = dict.fromkeys(["_signs", "locate"], 0)
    for name in calls:

        def counting(*args, name=name, fn=getattr(arrangement, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(arrangement, name, counting)
    edges = sum(len(crossing_graph(x, f).edges) for f in walls)
    assert edges > 0
    assert calls == {"_signs": 0, "locate": 0}


def graph_outcome(build, x, f):
    try:
        return repr(build(x, f))
    except MalformedXray as e:
        return str(e)


def square_with_inner_segment():
    """The square [0,2]^2 with a segment stratum from (1,0) on its edge to
    a vertex (1,1) inside it.  The two cells of the cut x = 1 share a
    facet whose centroid is that vertex, an end of the segment, where
    the segment does not separate.  Loaded unchecked."""
    pts = {"a": ["0", "0"], "b": ["2", "0"], "c": ["0", "2"], "d": ["2", "2"], "p": ["1", "0"], "q": ["1", "1"]}
    walls = {"top": "abcd", "eab": "ab", "eac": "ac", "ebd": "bd", "ecd": "cd", "seg": "pq"}
    parents = {"top": [], "eab": ["top"], "eac": ["top"], "ebd": ["top"], "ecd": ["top"], "seg": ["top"]}
    parents.update(va=["eab", "eac"], vb=["eab", "ebd"], vc=["eac", "ecd"], vd=["ebd", "ecd"], vp=["eab", "seg"], vq=["seg"])
    walls.update({f"v{k}": k for k in pts})
    doc = {
        "torus_rank": 2,
        "half_dim": 2,
        "strata": [{"id": sid, "vertices": [pts[k] for k in ks], "parents": parents[sid]} for sid, ks in walls.items()],
        "vertex_data": {
            f"v{k}": {"weights": [["1", "0"], ["0", "1"]], "signature": 1, "poincare": [1], "euler": 1} for k in pts
        },
    }
    return xray.from_interchange(doc)


def square_with_twin_edge():
    """The unit square with its edge x = 0 copied under the id e9, above
    the same two vertices: a wall facet with two strata on it.  It fails
    validation and is loaded unchecked."""
    doc = xray.to_interchange(generators.standard_cube_xray(2))
    doc["strata"].append(next(dict(s, id="e9") for s in doc["strata"] if s["id"] == "e1-2"))
    for s in doc["strata"]:
        if s["id"] in ("v1", "v2"):
            s["parents"] = s["parents"] + ["e9"]
    return xray.from_interchange(doc)


def test_overlapping_exterior_separators_warn_once():
    """The exterior edge across a wall facet with two strata on it keeps
    both separators and warns once."""
    x = square_with_twin_edge()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = crossing_graph(x, "top")
    assert [str(w.message) for w in caught] == [
        "wall 'top': exterior facet at (0,1/2) has 2 overlapping separators; summing all contributions"
    ]
    (edge,) = [e for e in graph.edges if e.facet_rep == as_vec((0, "1/2"))]
    assert (edge.source, edge.dest) == (EXTERIOR, 0)
    assert [s.g for s in edge.separators] == ["e1-2", "e9"]
    assert len({(s.r, s.f, s.b) for s in edge.separators}) == 1
    assert all(len(e.separators) == 1 for e in graph.edges if e is not edge)


def locate_through_subwall_scan(x, f, q):
    """locate as it runs for a point on a cut plane: every subwall tested
    by `_subwall_holding`, then the closed chambers scanned."""
    point = "(" + ",".join(format_rational(c) for c in q) + ")"
    if not x.stratum(f).wall.contains(q):
        raise XrayError(f"point {point} not in wall '{f}'")
    dec = arrangement._decompose(x, f)
    scaled, den = clear_denominators(q)
    g = arrangement._subwall_holding(dec.subwalls, arrangement._signs(dec.cuts, scaled, den), scaled, den)
    if g is not None:
        raise SingularLevel(f"point {point} lies on subwall '{g}': singular point of this wall; query a smaller stratum")
    for chamber in dec.chambers:
        if chamber.cell.contains(q):
            return chamber
    raise XrayError(f"point {point} is in no subchamber of '{f}'")


def triangle_with_interior_vertex():
    """The toric triangle with one more vertex stratum inside the top
    wall and on no edge's line: a subwall no cut plane holds.  It fails
    validation and is loaded unchecked."""
    doc = xray.to_interchange(generators.standard_simplex_xray(2))
    doc["strata"].append({"id": "v9", "vertices": [["1/4", "1/4"]], "parents": ["top"]})
    doc["vertex_data"]["v9"] = {"weights": [["1", "0"], ["0", "1"]], "signature": 1, "poincare": [1], "euler": 1}
    return xray.from_interchange(doc)


@pytest.mark.parametrize(
    "make", SEEDED_AND_GRID + [triangle_with_interior_vertex], ids=["cp4", "ncp4", "s26", "s34", "s35", "s45", "g26", "g35", "g36", "tri9"]
)
def test_locate_off_every_plane_matches_subwall_scan(make):
    """For a point on no cut plane, locate tests only the subwalls no
    plane holds and looks the chamber up by sign vector; that gives the
    chamber, or the exception and text, that `_subwall_holding` over
    every subwall and the closed-chamber scan give.  Points: chamber
    reps and vertices, edge reps, each loose subwall's vertex centroid,
    and seeded affine combinations of them."""
    x = make()
    rng = random.Random(7)
    kinds = set()
    generic = 0
    for f in sorted(x.ids):
        if x.dim(f) == 0:
            continue
        dec = arrangement._decompose(x, f)
        points = probe_points(x, f, rng) + [centroid(sub.vertices) for _, sub in dec.loose]
        for q in points:
            if 0 in arrangement._signs(dec.cuts, *clear_denominators(q)):
                continue
            got = outcome(locate, x, f, q)
            assert got == outcome(locate_through_subwall_scan, x, f, q), (f, q)
            kinds.add("chamber" if isinstance(got, int) else got[0])
            generic += 1
    assert generic > 0 and "chamber" in kinds
    if make is triangle_with_interior_vertex:
        assert SingularLevel in kinds
