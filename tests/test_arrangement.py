import random
from fractions import Fraction
from itertools import combinations

import pytest

from xraycross import arrangement, exactgeom
from xraycross.arrangement import EXTERIOR, crossing_graph, locate, subchambers
from xraycross.errors import SingularLevel, XrayError
from xraycross.exactgeom import clip_to_polytope, facet_polytopes, side_functional
from xraycross.generators import ProjectionMatrix, cpn_xray
from xraycross.ratmath import as_vec, sign, vdot, vscale
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: cpn_xray(4, ProjectionMatrix(CP4_ROWS)),
        lambda: cpn_xray(4, ProjectionMatrix(NCP4_ROWS)),
        lambda: random_cpn(2, 6, 0),
    ],
    ids=["cp4", "ncp4", "seeded"],
)
def test_one_hyperplane_per_subwall(monkeypatch, make):
    """The cuts and the separator counts share one span_hyperplane call
    per codimension-1 subwall; no side functional is built."""
    x = make()  # fresh: the decomposition is cached on the X-ray
    calls = {"span_hyperplane": 0, "side_functional": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        original = getattr(exactgeom, name)
        for module in (exactgeom, arrangement):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    for sid in x.ids:
        subchambers(x, sid)
        crossing_graph(x, sid)
    subwalls = sum(1 for f in x.ids for g in x.below(f) if x.dim(g) == x.dim(f) - 1)
    assert calls == {"span_hyperplane": subwalls, "side_functional": 0}
