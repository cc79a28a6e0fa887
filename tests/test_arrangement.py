import random
from fractions import Fraction
from itertools import combinations

import pytest

import conftest
from xraycross import arrangement, exactgeom, generators, xray
from xraycross.arrangement import EXTERIOR, crossing_graph, locate, subchambers
from xraycross.errors import SingularLevel, XrayError
from xraycross.exactgeom import Polytope, clip_to_polytope, facet_polytopes, hull, side_functional, span_hyperplane
from xraycross.generators import ProjectionMatrix, cpn_xray, load_xray, save_xray
from xraycross.ratmath import as_vec, format_rational, sign, vdot, vscale
from xraycross.xray import stratum_weights_in
from conftest import CP4_ROWS, NCP4_ROWS, seeded_rows

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
        if not fspan.lin_contains(w):
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
                for v in x.vertices_below(sep.g):
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
                assert cell.cell.relative_interior_contains(cell.rep)
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


@pytest.mark.parametrize("name", ["cp4", "ncp4", "seeded3"])
def test_locate_by_sign_vector_tests_no_chamber(monkeypatch, request, name):
    """A point on no cut plane is placed by its sign vector: locate tests
    only the wall and the subwalls of dimension below k - 1 for
    containment, never a codimension-1 subwall or a chamber."""
    x = random_cpn(3, 4, 0) if name == "seeded3" else request.getfixturevalue(name)
    tested = []
    contains = Polytope.contains

    def recording(self, point):
        tested.append(self)
        return contains(self, point)

    hits = 0
    for f in x.ids:
        k = x.dim(f)
        if k == 0:
            continue
        expected = [x.stratum(f).wall] + [x.stratum(g).wall for g in sorted(x.below(f)) if x.dim(g) < k - 1]
        planes = cut_planes(x, f)
        for chamber in subchambers(x, f):
            if any(vdot(normal, chamber.rep) == offset for normal, offset in planes):
                continue
            tested.clear()
            with monkeypatch.context() as m:
                m.setattr(Polytope, "contains", recording)
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


@FRESH
def test_one_hyperplane_per_subwall(monkeypatch, make):
    """The cuts and the separator counts share one span_hyperplane call
    per codimension-1 subwall; no side functional is built."""
    x = make()  # fresh: the decomposition is cached on the X-ray
    calls = count_calls(monkeypatch, ["span_hyperplane", "side_functional"])
    for sid in x.ids:
        subchambers(x, sid)
        crossing_graph(x, sid)
    subwalls = sum(1 for f in x.ids for g in x.below(f) if x.dim(g) == x.dim(f) - 1)
    assert calls == {"span_hyperplane": subwalls, "side_functional": 0}


@FRESH
def test_cells_cut_without_hulls(monkeypatch, make):
    """Subchambers and crossing graphs take no hull and walk no face
    lattice, and every chamber's cell is in hull's canonical form."""
    x = make()
    calls = count_calls(monkeypatch, ["hull", "clip_halfspace", "faces", "facet_polytopes"])
    chambers = [c for sid in x.ids for c in subchambers(x, sid)]
    for sid in x.ids:
        crossing_graph(x, sid)
    assert calls == {"hull": 0, "clip_halfspace": 0, "faces": 0, "facet_polytopes": 0}
    monkeypatch.undo()
    for chamber in chambers:
        assert chamber.cell == hull(chamber.cell.vertices)


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
