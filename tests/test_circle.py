from dataclasses import fields, replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xraycross import circle
from xraycross.arrangement import EXTERIOR, crossing_graph, subchambers
from xraycross.circle import (
    CircleFixedData,
    FixedComponent,
    cross_check,
    from_rank1_xray,
    poincare_regular,
    restrict_to_line,
    signature_regular,
    signature_singular,
    wall_cross_delta,
)
from xraycross.engine import (
    EULER,
    INT_POLYNOMIAL,
    INTEGER,
    POINCARE,
    SIGNATURE,
    propagate,
    w_poincare,
    w_signature,
)
from xraycross.errors import SingularLevel, XrayError
from xraycross.intpoly import IntPolynomial
from xraycross.generators import cpn_xray
from xraycross.ratmath import format_point
from xraycross.xray import from_interchange, to_interchange
from conftest import edge_by_scan, edge_circle, seeded_rows
from test_acceptance import mirrored_rank1

DIAG = "w2-3-4-5"


def poly(*coeffs):
    return IntPolynomial(tuple(coeffs))


def cp3_data():
    one = IntPolynomial.one()
    return CircleFixedData(
        (
            FixedComponent(Fraction(0), (1, 1, 1), 1, one),
            FixedComponent(Fraction(1), (-1, 1, 1), 1, one),
            FixedComponent(Fraction(2), (-1, -1, 1), 1, one),
            FixedComponent(Fraction(3), (-1, -1, -1), 1, one),
        )
    )


def test_component_counts():
    c = FixedComponent(Fraction(1), (-1, 1, 1), 1, IntPolynomial.one())
    assert (c.f, c.b, c.q) == (2, 1, 3)


def test_component_counts_are_set_once_and_stay_out_of_repr_and_equality():
    c = FixedComponent(Fraction(1), (1, -1, 1), 1, IntPolynomial.one())
    assert [f.name for f in fields(c)] == ["level", "weights", "seed_signature", "seed_poincare"]
    assert repr(c) == (
        "FixedComponent(level=Fraction(1, 1), weights=(-1, 1, 1), seed_signature=1, "
        "seed_poincare=IntPolynomial(coeffs=(1,)))"
    )
    same = FixedComponent(Fraction(1), (-1, 1, 1), 1, IntPolynomial.one())
    assert c == same and hash(c) == hash(same)
    assert c != FixedComponent(Fraction(1), (-1, -1, 1), 1, IntPolynomial.one())
    assert c != replace(c, seed_signature=-1)
    flipped = replace(c, weights=(-1, -1, -1, 1))
    assert (flipped.f, flipped.b, flipped.q) == (1, 3, 4)
    for weights in ((1,), (-1,), (1, 1, -1, -1, -1), (-2, 3, 5)):
        comp = FixedComponent(Fraction(0), weights, 1, IntPolynomial.one())
        assert comp.f == sum(1 for w in weights if w > 0)
        assert comp.b == sum(1 for w in weights if w < 0)
        assert comp.q == len(weights)


def test_at_level_of_an_absent_level_is_empty():
    data = cp3_data()
    assert data.at_level(Fraction(1, 2)) == ()
    assert data.at_level(7) == ()
    assert CircleFixedData(()).at_level(0) == ()
    assert CircleFixedData(()).levels() == ()
    assert [c.weights for c in data.at_level(1)] == [(-1, 1, 1)]


def test_at_level_keeps_component_order():
    one = IntPolynomial.one()
    comps = (
        FixedComponent(Fraction(2), (1,), 1, one),
        FixedComponent(Fraction(0), (-1,), 2, one),
        FixedComponent(Fraction(2), (-1, -1), 3, one),
    )
    data = CircleFixedData(comps)
    assert data.levels() == (Fraction(0), Fraction(2))
    assert data.at_level(Fraction(2)) == (comps[0], comps[2])
    assert data == CircleFixedData(comps)
    assert repr(data).startswith("CircleFixedData(components=(FixedComponent(level=Fraction(2, 1)")


def test_at_level_hashes_no_fraction(monkeypatch):
    """A lookup keys the level index by (numerator, denominator), so it
    hashes no Fraction, and an int finds the same components as the
    equal Fraction."""
    one = IntPolynomial.one()
    comps = (
        FixedComponent(Fraction(2), (1,), 1, one),
        FixedComponent(Fraction(-3, 4), (-1,), 2, one),
        FixedComponent(Fraction(2), (-1, -1), 3, one),
    )
    data = CircleFixedData(comps)

    def no_hash(self):
        raise AssertionError("Fraction hashed in a level lookup")

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__hash__", no_hash)
        assert data.at_level(Fraction(2)) == data.at_level(2) == (comps[0], comps[2])
        assert data.at_level(Fraction(-3, 4)) == (comps[1],)
        assert data.at_level(Fraction(3, 4)) == data.at_level(0) == ()
    assert data.levels() == (Fraction(-3, 4), Fraction(2))
    assert data == CircleFixedData(comps)


def test_component_rejects_zero_weight():
    with pytest.raises(ValueError):
        FixedComponent(Fraction(0), (0, 1), 1, IntPolynomial.one())


def test_signature_regular_examples():
    data = cp3_data()
    assert signature_regular(data, Fraction(1, 2)) == 1
    assert signature_regular(data, Fraction(3, 2)) == 0
    assert signature_regular(data, Fraction(5, 2)) == 1
    assert signature_regular(data, Fraction(-5)) == 0
    assert signature_regular(data, Fraction(7)) == 0


def test_signature_regular_rejects_levels():
    with pytest.raises(SingularLevel, match="singular"):
        signature_regular(cp3_data(), Fraction(1))


def test_poincare_regular_examples():
    data = cp3_data()
    assert poincare_regular(data, Fraction(1, 2)) == poly(1, 0, 1, 0, 1)
    assert poincare_regular(data, Fraction(3, 2)) == poly(1, 0, 2, 0, 1)
    assert poincare_regular(data, Fraction(-1)) == IntPolynomial.zero()


def test_wall_cross_delta_examples():
    data = cp3_data()
    assert wall_cross_delta(data, Fraction(0), INTEGER) == 1
    assert wall_cross_delta(data, Fraction(1), INTEGER) == -1
    assert wall_cross_delta(data, Fraction(1), INT_POLYNOMIAL) == poly(0, 0, 1)
    with pytest.raises(XrayError, match="not a wall"):
        wall_cross_delta(data, Fraction(1, 2), INTEGER)
    with pytest.raises(ValueError):
        wall_cross_delta(data, Fraction(0), "GAUSSIAN")


def test_wall_cross_delta_cancellation():
    one = IntPolynomial.one()
    data = CircleFixedData(
        (
            FixedComponent(Fraction(1), (1,), 1, one),
            FixedComponent(Fraction(1), (-1,), 1, one),
        )
    )
    assert wall_cross_delta(data, Fraction(1), INTEGER) == 0


def test_signature_singular_cp3():
    data = cp3_data()
    assert signature_singular(data, Fraction(0)) == 0
    assert signature_singular(data, Fraction(1)) == 1
    assert signature_singular(data, Fraction(2)) == 1
    assert signature_singular(data, Fraction(3)) == 0


def test_signature_singular_matches_manual_split():
    data = cp3_data()
    c = Fraction(1)
    below = signature_regular(data, Fraction(1, 2))
    above = signature_regular(data, Fraction(3, 2))
    minus = [r for r in data.at_level(c) if r.b >= r.f]
    plus = [r for r in data.at_level(c) if r.b < r.f]
    from_below = below + sum(w_signature(r.f, r.b) * r.seed_signature for r in minus)
    from_above = above - sum(w_signature(r.f, r.b) * r.seed_signature for r in plus)
    assert from_below == from_above == signature_singular(data, c)


def test_signature_singular_balanced_component_contributes_zero():
    one = IntPolynomial.one()
    base = (
        FixedComponent(Fraction(0), (1, 1), 1, one),
        FixedComponent(Fraction(2), (-1, -1), 1, one),
    )
    balanced = CircleFixedData(base + (FixedComponent(Fraction(1), (1, -1), 5, one),))
    plain = CircleFixedData(base)
    assert signature_singular(balanced, Fraction(1)) == signature_regular(
        plain, Fraction(1)
    )


def test_signature_singular_requires_level():
    with pytest.raises(XrayError, match="not a wall"):
        signature_singular(cp3_data(), Fraction(1, 2))


def test_from_rank1_xray(cp3):
    data = from_rank1_xray(cp3)
    assert data.levels() == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    assert [(c.f, c.b) for c in data.components] == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert all(c.seed_signature == 1 for c in data.components)


def test_from_rank1_requires_rank_one(ncp4):
    with pytest.raises(ValueError):
        from_rank1_xray(ncp4)


def test_engine_matches_circle_on_cp3(cp3):
    data = from_rank1_xray(cp3)
    sig = propagate(cp3, SIGNATURE)
    poin = propagate(cp3, POINCARE)
    for k, a in enumerate((Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))):
        assert sig.value("top", k) == signature_regular(data, a)
        assert poin.value("top", k) == poincare_regular(data, a)


def test_restrict_to_line_alpha_beta(ncp4):
    sig = propagate(ncp4, SIGNATURE)
    poin = propagate(ncp4, POINCARE)
    data = restrict_to_line(ncp4, "top", 2, 1, sig_table=sig, poin_table=poin)
    assert len(data.components) == 1
    assert wall_cross_delta(data, Fraction(0), INTEGER) == -1
    assert sig.value("top", 1) - sig.value("top", 2) == -1


def test_restrict_to_line_exterior_beta_through_b(ncp4):
    sig = propagate(ncp4, SIGNATURE)
    poin = propagate(ncp4, POINCARE)
    data = restrict_to_line(ncp4, "top", EXTERIOR, 1, sig_table=sig, poin_table=poin)
    assert len(data.components) == 1
    assert data.components[0].seed_signature == 0
    assert (data.components[0].f, data.components[0].b) == (1, 0)
    assert wall_cross_delta(data, Fraction(0), INTEGER) == 0


def test_restrict_to_line_exterior_alpha_through_a(ncp4):
    sig = propagate(ncp4, SIGNATURE)
    poin = propagate(ncp4, POINCARE)
    data = restrict_to_line(
        ncp4,
        "top",
        EXTERIOR,
        2,
        sig_table=sig,
        poin_table=poin,
        facet_rep=(Fraction(13, 4), Fraction(3, 4)),
    )
    assert data.components[0].seed_signature == 1
    assert wall_cross_delta(data, Fraction(0), INTEGER) == 1


def test_restrict_to_line_generic_bottom(cp4):
    sig = propagate(cp4, SIGNATURE)
    poin = propagate(cp4, POINCARE)
    graph = crossing_graph(cp4, "top")
    bottom = next(
        e for e in graph.edges if e.source == EXTERIOR and e.facet_rep[1] == 0
    )
    data = restrict_to_line(
        cp4, "top", bottom.source, bottom.dest,
        sig_table=sig, poin_table=poin, facet_rep=bottom.facet_rep,
    )
    assert wall_cross_delta(data, Fraction(0), INTEGER) == 1


def test_restrict_to_line_rejects_non_adjacent(ncp4):
    with pytest.raises(XrayError, match="not adjacent"):
        restrict_to_line(ncp4, "top", 0, 2)


def test_restrict_matches_engine_on_every_top_edge(cp4, ncp4):
    for x in (cp4, ncp4):
        sig = propagate(x, SIGNATURE)
        poin = propagate(x, POINCARE)

        def value(table, node, zero):
            return zero if node == EXTERIOR else table.value("top", node)

        for edge in crossing_graph(x, "top").edges:
            data = restrict_to_line(
                x, "top", edge.source, edge.dest,
                sig_table=sig, poin_table=poin, facet_rep=edge.facet_rep,
            )
            want_s = value(sig, edge.dest, 0) - value(sig, edge.source, 0)
            want_p = value(poin, edge.dest, IntPolynomial.zero()) - value(
                poin, edge.source, IntPolynomial.zero()
            )
            assert wall_cross_delta(data, Fraction(0), INTEGER) == want_s
            assert wall_cross_delta(data, Fraction(0), INT_POLYNOMIAL) == want_p


@pytest.mark.parametrize(("d", "n", "seed", "grid"), [(2, 5, 0, None), (2, 5, 3, 2), (3, 4, 1, None), (3, 5, 2, 2)])
def test_restrict_to_line_picks_the_scanned_edge(d, n, seed, grid):
    """On every edge of every wall, restrict_to_line turns the same edge
    into a circle as the scan of the crossing graph: for the pair as
    given, for the reversed pair, and through the edge's facet."""
    x = cpn_xray(n, seeded_rows(d, n, seed, grid=grid))
    sig, poin = engine_tables(x)
    checked = 0
    for f in x.ids:
        if x.dim(f) == 0:
            continue
        for edge in crossing_graph(x, f).edges:
            for p1, p2 in ((edge.source, edge.dest), (edge.dest, edge.source)):
                for rep in (None, edge.facet_rep):
                    got = restrict_to_line(x, f, p1, p2, sig_table=sig, poin_table=poin, facet_rep=rep)
                    assert got == edge_circle(edge_by_scan(x, f, p1, p2, rep), sig, poin)
                    checked += 1
    assert checked > 0


def test_restrict_to_line_rejects_what_the_scan_rejects():
    """A pair with no edge between them, a node paired with itself, and a
    facet rep of another edge all raise the scan's XrayError."""
    x = cpn_xray(5, seeded_rows(2, 5, 0))
    sig, poin = engine_tables(x)
    edges = crossing_graph(x, "top").edges
    joined = {(e.source, e.dest) for e in edges} | {(e.dest, e.source) for e in edges}
    nodes = crossing_graph(x, "top").nodes
    apart = next((a, b) for a in nodes for b in nodes if a != b and (a, b) not in joined)
    other = next(e.facet_rep for e in edges if (e.source, e.dest) != (edges[0].source, edges[0].dest))
    for p1, p2, rep in (apart + (None,), (0, 0, None), (edges[0].source, edges[0].dest, other)):
        with pytest.raises(XrayError) as scanned:
            edge_by_scan(x, "top", p1, p2, rep)
        with pytest.raises(XrayError, match="not adjacent") as got:
            restrict_to_line(x, "top", p1, p2, sig_table=sig, poin_table=poin, facet_rep=rep)
        assert str(got.value) == str(scanned.value)


def engine_tables(x):
    return propagate(x, SIGNATURE), propagate(x, POINCARE)


def bump(table, chamber, by=1):
    """A copy of table with by added to the top wall's value at chamber."""
    values = dict(table.values)
    values[("top", chamber)] += by
    return replace(table, values=values)


def failing(report):
    return {line.name for line in report.lines if not line.passed}


def test_cross_check_passes_on_cp3(cp3):
    report = cross_check(cp3, "top", *engine_tables(cp3))
    assert report.passed
    assert len(report.lines) == 2 * len(subchambers(cp3, "top")) + len(from_rank1_xray(cp3).levels())
    assert [line.name for line in report.lines[:2]] == ["chamber 0 signature", "chamber 0 poincare"]
    assert report.lines[-1].name == "singular level 3 two-sided"


@pytest.mark.parametrize("name", ["cp4", "ncp4"])
def test_cross_check_passes_at_d2(name, request):
    x = request.getfixturevalue(name)
    report = cross_check(x, "top", *engine_tables(x))
    assert report.passed
    assert len(report.lines) == 2 * len(crossing_graph(x, "top").edges)


@pytest.mark.parametrize("name", ["cp4", "ncp4"])
def test_cross_check_builds_the_crossing_graph_once(monkeypatch, name, request):
    x = request.getfixturevalue(name)
    tables = engine_tables(x)
    calls = []

    def counting_graph(y, f):
        calls.append(f)
        return crossing_graph(y, f)

    monkeypatch.setattr(circle, "crossing_graph", counting_graph)
    assert cross_check(x, "top", *tables).passed
    assert calls == ["top"]


def test_cross_check_names_the_corrupted_chamber_on_cp3(cp3):
    sig, poin = engine_tables(cp3)
    assert failing(cross_check(cp3, "top", bump(sig, 1), poin)) == {"chamber 1 signature"}
    assert failing(cross_check(cp3, "top", sig, bump(poin, 2, IntPolynomial.one()))) == {"chamber 2 poincare"}


@pytest.mark.parametrize("name", ["cp4", "ncp4"])
def test_cross_check_names_the_corrupted_chamber_at_d2(name, request):
    x = request.getfixturevalue(name)
    sig, poin = engine_tables(x)
    edges = crossing_graph(x, "top").edges
    for chamber in range(len(subchambers(x, "top"))):
        touching = [e for e in edges if chamber in (e.source, e.dest)]
        assert touching
        want = {f"edge {e.source}->{e.dest} at {format_point(e.facet_rep)} signature delta" for e in touching}
        assert failing(cross_check(x, "top", bump(sig, chamber), poin)) == want


def test_cross_check_rejects_lower_walls_at_d1(cp3):
    with pytest.raises(ValueError, match="top wall"):
        cross_check(cp3, "v1", *engine_tables(cp3))


levels_strategy = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=8),
    min_size=1,
    max_size=5,
    unique=True,
)
weights_strategy = st.lists(
    st.sampled_from([-1, 1]), min_size=1, max_size=4
)


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-10, max_value=10, max_denominator=8),
            weights_strategy,
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[0],
    )
)
def test_telescoping(raw):
    components = tuple(
        FixedComponent(level, tuple(ws), seed, IntPolynomial((seed,)))
        for level, ws, seed in raw
    )
    data = CircleFixedData(components)
    lo = min(data.levels()) - 1
    hi = max(data.levels()) + 1
    total_sig = signature_regular(data, hi) - signature_regular(data, lo)
    total_poin = poincare_regular(data, hi) - poincare_regular(data, lo)
    sum_sig = sum(wall_cross_delta(data, c, INTEGER) for c in data.levels())
    sum_poin = IntPolynomial.zero()
    for c in data.levels():
        sum_poin = sum_poin + wall_cross_delta(data, c, INT_POLYNOMIAL)
    assert total_sig == sum_sig
    assert total_poin == sum_poin


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_even_rank_component_never_changes_signature(level, half, seed):
    data = CircleFixedData(
        (FixedComponent(level, (1,) * half + (-1,) * half, seed, IntPolynomial((seed,))),)
    )
    below = signature_regular(data, level - 1)
    above = signature_regular(data, level + 1)
    assert below == above == 0


def scan_signature(data, a):
    """signature_regular by a scan over the components, as first written."""
    return sum((-1) ** c.b * c.seed_signature for c in data.components if c.level < a and c.q % 2 == 1)


def scan_poincare(data, a):
    total = IntPolynomial.zero()
    for c in data.components:
        if c.level < a:
            total = total + c.seed_poincare * w_poincare(c.f, c.b)
    return total


# Levels from a small set, so that several components share a level.
small_levels = st.one_of(st.integers(min_value=-3, max_value=3), st.sampled_from([Fraction(-1, 2), Fraction(5, 3)]))
component_strategy = st.builds(
    lambda level, weights, seed, coeffs: FixedComponent(Fraction(level), tuple(weights), seed, IntPolynomial(tuple(coeffs))),
    small_levels,
    st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=5),
    st.integers(min_value=-4, max_value=4),
    st.lists(st.integers(min_value=-4, max_value=4), max_size=4),
)
query_points = st.one_of(
    st.integers(min_value=-5, max_value=5), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


@given(st.lists(component_strategy, max_size=8), st.lists(query_points, min_size=1, max_size=6))
def test_regular_values_match_scan(components, points):
    """signature_regular and poincare_regular read off prefix sums equal
    the scan over the components: repeated levels, even-q components,
    negative seeds, int and Fraction query points.  Every level still
    raises SingularLevel, and the sums, built by the first regular
    query, change neither repr nor equality."""
    data = CircleFixedData(tuple(components))
    text, fresh = repr(data), CircleFixedData(tuple(components))
    for a in points:
        if data.at_level(a):
            continue
        assert signature_regular(data, a) == scan_signature(data, a)
        assert poincare_regular(data, a) == scan_poincare(data, a)
    for c in data.levels():
        for regular in (signature_regular, poincare_regular):
            with pytest.raises(SingularLevel, match="singular"):
                regular(data, c)
    for a in (min(data.levels(), default=0) - 1, max(data.levels(), default=0) + 1):
        assert signature_regular(data, a) == scan_signature(data, a)
    assert repr(data) == text
    assert data == fresh and hash(data) == hash(fresh)


def singular_by_midpoints(data, c):
    """signature_singular's two one-sided sums as first written: the
    regular values are read at the midpoints between c and its
    neighbouring levels (one unit out past the first and last level),
    here by the scan over the components."""
    at = data.at_level(c)
    levels = data.levels()
    i = levels.index(c)
    just_below = (levels[i - 1] + c) / 2 if i else c - 1
    just_above = (c + levels[i + 1]) / 2 if i + 1 < len(levels) else c + 1
    from_below = scan_signature(data, just_below) + sum(
        w_signature(comp.f, comp.b) * comp.seed_signature for comp in at if comp.b >= comp.f
    )
    from_above = scan_signature(data, just_above) - sum(
        w_signature(comp.f, comp.b) * comp.seed_signature for comp in at if comp.b < comp.f
    )
    return from_below, from_above


@given(st.lists(component_strategy, min_size=1, max_size=8))
def test_signature_singular_matches_midpoints(components):
    """signature_singular, reading the regular values next to each level
    off the prefix sums, equals the midpoint formulation at every level,
    the first and last included, on random components with repeated
    levels, even-q components and negative seeds."""
    data = CircleFixedData(tuple(components))
    for c in data.levels():
        from_below, from_above = singular_by_midpoints(data, c)
        assert from_below == from_above == signature_singular(data, c)


@pytest.mark.parametrize(
    ("d", "n", "seed", "grid"), [(2, 5, 0, None), (2, 6, 1, 2), (3, 4, 1, None), (3, 5, 2, 2), (3, 5, 0, None)]
)
def test_edge_circle_equals_public_construction(d, n, seed, grid):
    """The circle built straight from each separator's counts equals the
    one built through FixedComponent and CircleFixedData from the
    weights (1,) * f + (-1,) * b, in value, repr, counts and level
    index, on every edge of every wall."""
    x = cpn_xray(n, seeded_rows(d, n, seed, grid=grid))
    sig, poin = engine_tables(x)
    edges = 0
    for f in x.ids:
        if x.dim(f) == 0:
            continue
        for edge in crossing_graph(x, f).edges:
            got = edge_circle(edge, sig, poin)
            want = CircleFixedData(
                tuple(
                    FixedComponent(Fraction(0), (1,) * s.f + (-1,) * s.b, sig.value(s.g, s.r), poin.value(s.g, s.r))
                    for s in edge.separators
                )
            )
            assert got == want and repr(got) == repr(want)
            assert [(c.f, c.b, c.q) for c in got.components] == [(c.f, c.b, c.q) for c in want.components]
            assert got.levels() == want.levels() == (Fraction(0),)
            assert got.at_level(0) == want.at_level(0) == got.components
            for ring in (INTEGER, INT_POLYNOMIAL):
                assert wall_cross_delta(got, 0, ring) == wall_cross_delta(want, Fraction(0), ring)
            edges += 1
    assert edges > 0


@st.composite
def restriction_inputs(draw):
    """(d, n, seed, grid) of a seeded CP^n projection at d in {2, 3}, on
    a small grid or not."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=d + 1, max_value={2: 5, 3: 4}[d]))
    grid = draw(st.sampled_from([None] + [g for g in (1, 2, 3) if (g + 1) ** d >= n + 1]))
    return d, n, draw(st.integers(min_value=0, max_value=10**6)), grid


@settings(deadline=None, max_examples=20)
@given(restriction_inputs())
def test_restrict_to_line_matches_counts_reference(args):
    """On every edge of every wall, in both orientations, the circle
    restrict_to_line builds from the X-ray's cached edge index has the
    components of a reference: FixedComponent._of_counts of each
    separator's (f, b), reseeded through `dataclasses.replace` with its
    lower values, compared field by field with the counts and both
    crossing coefficients.  Both wall_cross_deltas at 0 equal the sum
    of w(f, b) times the seed over the separators."""
    d, n, seed, grid = args
    x = cpn_xray(n, seeded_rows(d, n, seed, grid=grid))
    sig, poin = engine_tables(x)
    for f in x.ids:
        if x.dim(f) == 0:
            continue
        for edge in crossing_graph(x, f).edges:
            for e in (edge, edge.reversed()):
                data = restrict_to_line(x, f, e.source, e.dest, sig_table=sig, poin_table=poin, facet_rep=e.facet_rep)
                seeds = [(sig.value(s.g, s.r), poin.value(s.g, s.r)) for s in e.separators]
                want = [
                    replace(FixedComponent._of_counts(Fraction(0), s.f, s.b, 0, IntPolynomial.zero()), seed_signature=a, seed_poincare=p)
                    for s, (a, p) in zip(e.separators, seeds)
                ]
                assert len(data.components) == len(want)
                for got, ref in zip(data.components, want):
                    assert type(got) is FixedComponent
                    assert (got.level, got.weights, got.seed_signature, got.seed_poincare) == (
                        ref.level,
                        ref.weights,
                        ref.seed_signature,
                        ref.seed_poincare,
                    )
                    assert (got.f, got.b, got.q) == (ref.f, ref.b, ref.q)
                    assert got.poincare_cross == ref.poincare_cross == w_poincare(ref.f, ref.b)
                    assert got.signature_cross == ref.signature_cross == w_signature(ref.f, ref.b)
                assert data.levels() == (Fraction(0),) and data.at_level(0) == data.components
                assert wall_cross_delta(data, 0, INTEGER) == sum(w_signature(s.f, s.b) * a for s, (a, _) in zip(e.separators, seeds))
                assert wall_cross_delta(data, 0, INT_POLYNOMIAL) == sum(
                    (w_poincare(s.f, s.b) * p for s, (_, p) in zip(e.separators, seeds)), IntPolynomial.zero()
                )


def fresh(x):
    """A copy of x with nothing cached on it."""
    return from_interchange(to_interchange(x))


def rank1_inputs():
    """Seeded d = 1 CP^n X-rays and mirrored circle X-rays, whose fixed
    points carry zero (tangent) weights."""
    yield from (cpn_xray(6, seeded_rows(1, 6, seed)) for seed in range(3))
    rng = Random(7)
    yield from (mirrored_rank1(rng) for _ in range(8))


def test_from_rank1_xray_is_built_once_and_reads_integer_signs():
    """The rank-1 circle is cached on the X-ray, and its weight signs,
    read off the integer forms, are those of the Fraction weights, zero
    weights dropped."""
    tangent = 0
    for x in rank1_inputs():
        x = fresh(x)
        data = from_rank1_xray(x)
        assert from_rank1_xray(x) is data
        want = []
        for vid in x.vertex_ids:
            vd = x.stratum(vid).vertex_data
            signs = tuple(1 if w[0] > 0 else -1 for w in vd.weights if w[0] != 0)
            tangent += len(vd.weights) - len(signs)
            want.append(FixedComponent(x.stratum(vid).wall.vertices[0][0], signs, vd.seed_signature, vd.seed_poincare))
        assert data == CircleFixedData(tuple(sorted(want, key=lambda comp: comp.level)))
    assert tangent > 0


def counting_w_poincare(monkeypatch):
    calls = []

    def counting(f, b):
        calls.append((f, b))
        return w_poincare(f, b)

    monkeypatch.setattr(circle, "w_poincare", counting)
    return calls


@pytest.mark.parametrize(("d", "n", "seed"), [(2, 5, 0), (3, 4, 1)])
def test_restrict_to_line_builds_crossings_once_per_xray(monkeypatch, d, n, seed):
    """restrict_to_line and wall_cross_delta take each separator's
    w_poincare(f, b) from the X-ray's edge index: the first pass over a
    wall's edges computes each distinct (f, b) once, and a second pass,
    or cross_check, computes none and gives the same circles."""
    x = fresh(cpn_xray(n, seeded_rows(d, n, seed)))
    sig, poin = engine_tables(x)
    calls = counting_w_poincare(monkeypatch)

    def one_pass():
        out = []
        for edge in crossing_graph(x, "top").edges:
            for p1, p2 in ((edge.source, edge.dest), (edge.dest, edge.source)):
                data = restrict_to_line(x, "top", p1, p2, sig_table=sig, poin_table=poin, facet_rep=edge.facet_rep)
                out.append((data, wall_cross_delta(data, 0, INTEGER), wall_cross_delta(data, 0, INT_POLYNOMIAL)))
        return out

    first = one_pass()
    assert calls and len(calls) == len(set(calls))
    calls.clear()
    assert one_pass() == first
    assert cross_check(x, "top", sig, poin).passed
    assert calls == []


def test_rank1_circle_builds_crossings_once_per_xray(monkeypatch):
    """At d = 1 the cached circle's components keep their w_poincare(f, b):
    the prefix sums and wall_cross_delta compute each once per component,
    and later queries compute none."""
    x = fresh(cpn_xray(6, seeded_rows(1, 6, 3)))
    calls = counting_w_poincare(monkeypatch)

    def one_pass():
        data = from_rank1_xray(x)
        cells = subchambers(x, "top")
        return (
            [poincare_regular(data, cell.rep[0]) for cell in cells],
            [wall_cross_delta(data, c, INT_POLYNOMIAL) for c in data.levels()],
        )

    first = one_pass()
    assert 0 < len(calls) <= len(from_rank1_xray(x).components)
    calls.clear()
    assert one_pass() == first
    assert calls == []


def test_regular_values_count_levels_in_integers():
    """Regular values count the levels below a point in integers: on
    levels with different denominators and a grid of points beside and
    between them, the signature (whose seeds are distinct powers of two,
    so that it names the levels below) equals the scan's."""
    levels = (Fraction(-1, 2), Fraction(0), Fraction(5, 3), Fraction(7, 4), Fraction(3))
    data = CircleFixedData(
        tuple(FixedComponent(level, (1,), 2**k, IntPolynomial((1,))) for k, level in enumerate(levels))
    )
    points = {Fraction(num, den) for den in (5, 7, 12, 13) for num in range(-60, 60)}
    points |= {level + d for level in levels for d in (Fraction(1, 1000), Fraction(-1, 1000))}
    for a in sorted(points - set(levels)):
        assert signature_regular(data, a) == scan_signature(data, a)
