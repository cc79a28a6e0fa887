from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xraycross.arrangement import EXTERIOR, crossing_graph, subchambers
from xraycross.circle import (
    CircleFixedData,
    FixedComponent,
    cross_check,
    from_rank1_xray,
    from_records,
    poincare_regular,
    restrict_to_line,
    signature_regular,
    signature_singular,
    to_records,
    wall_cross_delta,
)
from xraycross.engine import (
    EULER,
    INT_POLYNOMIAL,
    INTEGER,
    POINCARE,
    SIGNATURE,
    propagate,
    w_signature,
)
from xraycross.errors import SingularLevel, XrayError
from xraycross.intpoly import IntPolynomial
from xraycross.ratmath import format_point

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


def test_records_roundtrip():
    data = cp3_data()
    records = to_records(data)
    assert records[0] == {
        "level": "0",
        "weights": [1, 1, 1],
        "signature": 1,
        "poincare": [1],
    }
    assert from_records(records) == data


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
