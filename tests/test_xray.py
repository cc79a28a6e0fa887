import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xraycross import xray
from xraycross.errors import MalformedXray
from xraycross.exactgeom import centroid, faces, hull, tight_mask
from xraycross.generators import cpn_xray, standard_cube_xray, standard_simplex_xray
from xraycross.intpoly import IntPolynomial
from xraycross.ratmath import (
    as_vec,
    format_rational,
    in_span,
    is_zero_vector,
    primitive_vector,
    rref,
    vadd,
    vscale,
    vsub,
)
from xraycross.xray import (
    Stratum,
    VertexData,
    Violation,
    WeightedXray,
    _cone_contains,
    _fmt_points,
    complex_dim_of_stratum,
    from_interchange,
    is_toric_structure_free,
    stratum_weights_in,
    to_interchange,
    canonical_json,
    transform,
    validate_all,
    validate_consistency,
    validate_darboux,
    validate_poset,
)
from conftest import seeded_rows

DIAG = "w2-3-4-5"


def seeds_one():
    return dict(seed_signature=1, seed_poincare=IntPolynomial.one(), seed_euler=1)


def test_weights_at_vertex_in_its_own_span(cp3):
    assert stratum_weights_in(cp3, "v1", "v1") == ()


def test_weights_in_edge_span(cp4):
    got = stratum_weights_in(cp4, "v1", "w1-2")
    assert got == (as_vec((4, 0)),)


def test_weights_of_diagonal_in_top(ncp4):
    got = stratum_weights_in(ncp4, DIAG, "top")
    assert len(got) == 4
    assert set(got) == {
        as_vec((-4, 0)),
        as_vec((-4, 4)),
        as_vec(("-5/2", "5/2")),
        as_vec(("-3/2", "3/2")),
    }


def test_weights_require_comparable_strata(cp4):
    with pytest.raises(ValueError, match="not below"):
        stratum_weights_in(cp4, "w1-2", "w1-3")


def test_complex_dims(cp3, cp4, ncp4):
    assert complex_dim_of_stratum(cp3, "v1") == 0
    assert complex_dim_of_stratum(ncp4, DIAG) == 3
    assert complex_dim_of_stratum(cp4, "top") == 4
    assert complex_dim_of_stratum(ncp4, "top") == 4


def test_toric_structure_free(cp4, ncp4):
    edges = [sid for sid in cp4.ids if sid.startswith("w")]
    assert len(edges) == 10
    assert all(is_toric_structure_free(cp4, sid) for sid in edges)
    assert not is_toric_structure_free(ncp4, DIAG)
    assert is_toric_structure_free(cp4, "v1")
    assert is_toric_structure_free(ncp4, "w1-2")


@pytest.mark.parametrize(
    "name", ["cp3", "cp4", "ncp4", "toric_triangle", "unit_square", "segment"]
)
def test_generators_pass_all_validators(name, request):
    x = request.getfixturevalue(name)
    assert validate_poset(x) == []
    assert validate_consistency(x) == []
    assert validate_darboux(x) == []
    assert validate_all(x) == []


def drop_stratum(x, sid):
    doc = to_interchange(x)
    doc["strata"] = [
        {**s, "parents": [p for p in s["parents"] if p != sid]}
        for s in doc["strata"]
        if s["id"] != sid
    ]
    doc["vertex_data"].pop(sid, None)
    return from_interchange(doc)


def test_missing_edge_is_face_violation(toric_triangle):
    broken = drop_stratum(toric_triangle, "e1-2")
    kinds = {v.kind for v in validate_poset(broken)}
    assert "face" in kinds


def test_missing_edge_breaks_darboux_at_both_endpoints(cp4):
    broken = drop_stratum(cp4, "w1-2")
    bad = [v for v in validate_darboux(broken) if v.kind == "darboux-subset"]
    assert {v.stratum for v in bad} >= {"v1", "v2"}


def test_duplicate_span_is_uniqueness_violation():
    seg1 = hull([as_vec((0,)), as_vec((1,))])
    seg2 = hull([as_vec((0,)), as_vec((2,))])
    strata = [
        Stratum("a", hull([as_vec((0,))]), ("s1", "s2"), (), VertexData((as_vec((1,)),), **seeds_one())),
        Stratum("b", hull([as_vec((1,))]), ("s1", "s2"), (), VertexData((as_vec((-1,)),), **seeds_one())),
        Stratum("c", hull([as_vec((2,))]), ("s2",), (), VertexData((as_vec((-1,)),), **seeds_one())),
        Stratum("s1", seg1, (), (), None),
        Stratum("s2", seg2, (), (), None),
    ]
    x = WeightedXray(1, 1, tuple(strata))
    kinds = {v.kind for v in validate_poset(x)}
    assert "span-uniqueness" in kinds


def test_single_vertex_xray_vacuously_consistent():
    lone = Stratum(
        "p",
        hull([as_vec((0,))]),
        (),
        (),
        VertexData((as_vec((0,)),), **seeds_one()),
    )
    x = WeightedXray(1, 1, (lone,))
    assert validate_consistency(x) == []
    assert validate_all(x) == []


def test_perturbed_weight_breaks_consistency(ncp4):
    doc = to_interchange(ncp4)
    doc["vertex_data"]["v2"]["weights"][0] = ["-4", "1"]
    broken = from_interchange(doc)
    assert any(v.kind == "consistency" for v in validate_consistency(broken))
    assert validate_darboux(broken) != []


def test_interchange_roundtrip(cp3, cp4, ncp4, unit_square):
    for x in (cp3, cp4, ncp4, unit_square):
        again = from_interchange(to_interchange(x))
        assert again == x
        assert again.fingerprint() == x.fingerprint()


def test_interchange_rejects_bad_rational(cp3):
    doc = to_interchange(cp3)
    doc["vertex_data"]["v1"]["weights"][0] = ["3/0"]
    with pytest.raises(MalformedXray, match="invalid rational"):
        from_interchange(doc)


def test_interchange_rejects_missing_vertex_data(cp3):
    doc = to_interchange(cp3)
    del doc["vertex_data"]["v2"]
    with pytest.raises(MalformedXray, match="v2"):
        from_interchange(doc)


def test_interchange_rejects_stray_vertex_data(cp3):
    doc = to_interchange(cp3)
    doc["vertex_data"]["top"] = doc["vertex_data"]["v1"]
    with pytest.raises(MalformedXray, match="top"):
        from_interchange(doc)


def test_interchange_rejects_wrong_weight_count(cp3):
    doc = to_interchange(cp3)
    doc["vertex_data"]["v3"]["weights"].append(["1"])
    with pytest.raises(MalformedXray, match="v3"):
        from_interchange(doc)


def test_interchange_rejects_unknown_parent(cp3):
    doc = to_interchange(cp3)
    doc["strata"][0] = {**doc["strata"][0], "parents": ["nope"]}
    with pytest.raises(MalformedXray):
        from_interchange(doc)


def test_transform_preserves_validity(ncp4):
    moved = transform(ncp4, ((1, 1), (0, 1)), (3, -2))
    assert validate_all(moved) == []
    assert moved.ids == ncp4.ids
    assert moved.stratum("v2").wall.vertices[0] == as_vec((7, -2))


def test_transform_rejects_singular_matrix(cp4):
    with pytest.raises(ValueError, match="singular|rank"):
        transform(cp4, ((1, 1), (1, 1)), (0, 0))


def test_vertex_data_weights_sorted():
    vd = VertexData((as_vec((2, 0)), as_vec((-1, 1))), **seeds_one())
    assert vd.weights == (as_vec((-1, 1)), as_vec((2, 0)))


def test_poset_shape(ncp4):
    assert ncp4.top_id == "top"
    assert ncp4.dim(DIAG) == 1
    assert ncp4.leq("v2", DIAG)
    assert not ncp4.leq(DIAG, "v2")
    assert set(ncp4.vertices_below(DIAG)) == {"v2", "v3", "v4", "v5"}
    assert ncp4.above("v1") == frozenset({"w1-2", "w1-3", "w1-4", "w1-5", "top"})


def test_rejects_vertex_data_on_positive_dim():
    seg = hull([as_vec((0,)), as_vec((1,))])
    bad = Stratum("s", seg, (), (), VertexData((as_vec((1,)),), **seeds_one()))
    with pytest.raises(MalformedXray):
        WeightedXray(1, 1, (bad,))


def test_rejects_child_wall_outside_parent():
    seg = hull([as_vec((0,)), as_vec((1,))])
    v = Stratum("v", hull([as_vec((5,))]), ("s",), (), VertexData((as_vec((1,)),), **seeds_one()))
    s = Stratum("s", seg, (), (), None)
    with pytest.raises(MalformedXray, match="not contained"):
        WeightedXray(1, 1, (v, s))


def test_rejects_order_cycle():
    seg = hull([as_vec((0,)), as_vec((1,))])
    a = Stratum("a", seg, ("b",), (), None)
    b = Stratum("b", seg, ("a",), (), None)
    with pytest.raises(MalformedXray, match="cycle"):
        WeightedXray(1, 1, (a, b))


def test_interchange_rejects_strata_not_a_list():
    doc = {"torus_rank": 1, "half_dim": 1, "strata": 5, "vertex_data": {}}
    with pytest.raises(MalformedXray, match="strata must be a list"):
        from_interchange(doc)


def test_interchange_rejects_vertices_not_a_list(cp3):
    doc = to_interchange(cp3)
    doc["strata"][0] = {**doc["strata"][0], "vertices": 5}
    with pytest.raises(MalformedXray, match=r"strata\[0\]: vertices must be a list"):
        from_interchange(doc)


def test_interchange_rejects_vertex_data_entry_not_an_object(cp3):
    doc = to_interchange(cp3)
    doc["vertex_data"]["v1"] = 5
    with pytest.raises(MalformedXray, match=r"vertex_data\['v1'\] must be an object"):
        from_interchange(doc)


def test_interchange_rejects_weights_not_a_list(cp3):
    doc = to_interchange(cp3)
    doc["vertex_data"]["v2"]["weights"] = 5
    with pytest.raises(MalformedXray, match=r"vertex_data\['v2'\]: weights must be a list"):
        from_interchange(doc)


def _cones_equal(a, b, dim):
    return all(_cone_contains(b, v, dim) for v in a) and all(_cone_contains(a, v, dim) for v in b)


def validate_darboux_all_subsets(x):
    """Reference: validate_darboux over all 2^|dirs| direction subsets, every
    subset compared with every stratum through the vertex."""
    d = x.torus_rank
    vio = set()
    for pid in x.vertex_ids:
        p = x.stratum(pid)
        point = p.wall.vertices[0]
        alpha = p.vertex_data.weights
        ups = [pid] + sorted(x.above(pid))
        tangent = {fid: [vsub(u, point) for u in x.stratum(fid).wall.vertices] for fid in ups}
        for fid in ups:
            span = x.stratum(fid).wall.span
            inspan = [w for w in alpha if span.lin_contains(w)]
            if not _cones_equal(tangent[fid], inspan, d):
                vio.add(Violation(pid, "darboux-cone", f"tangent cone of '{fid}' differs from the cone of its weights"))
        dirs = sorted({primitive_vector(w) for w in alpha if not is_zero_vector(w)})
        subsets = set()
        for size in range(len(dirs) + 1):
            for B in combinations(dirs, size):
                basis, pivots = rref(B)
                subsets.add(tuple(w for w in alpha if in_span(basis, pivots, w)))
        for S in sorted(subsets):
            matches = [fid for fid in ups if _cones_equal(tangent[fid], list(S), d)]
            if len(matches) != 1:
                detail = f"weight subset {_fmt_points(S)} is the tangent cone of {len(matches)} strata {matches}"
                vio.add(Violation(pid, "darboux-subset", detail))
    return sorted(vio)


def mutate_weight(x, seed):
    """Negate or replace one weight at one vertex."""
    rng = random.Random(seed)
    doc = to_interchange(x)
    vid = rng.choice(sorted(doc["vertex_data"]))
    ws = doc["vertex_data"][vid]["weights"]
    j = rng.randrange(len(ws))
    if seed % 2:
        ws[j] = [format_rational(-Fraction(c)) for c in ws[j]]
    else:
        ws[j] = [str(rng.randint(-3, 3)) for _ in ws[j]]
    return from_interchange(doc)


def test_darboux_matches_all_subsets(cp3, cp4, ncp4, toric_triangle, unit_square, segment):
    xs = [cp3, cp4, ncp4, toric_triangle, unit_square, segment, drop_stratum(cp4, "w1-2")]
    xs += [cpn_xray(n, seeded_rows(1, n, seed)) for n in (5, 7) for seed in range(2)]
    xs += [cpn_xray(5, seeded_rows(2, 5, seed)) for seed in range(2)]
    xs += [cpn_xray(4, seeded_rows(3, 4, 0))]
    xs += [cpn_xray(4, seeded_rows(2, 4, seed, grid=3)) for seed in range(6)]
    xs += [cpn_xray(4, seeded_rows(3, 4, seed, grid=3)) for seed in range(2)]
    xs += [mutate_weight(xs[k], seed) for seed, k in enumerate(range(7, len(xs)))]
    with_violations = 0
    for x in xs:
        got = validate_darboux(x)
        assert got == validate_darboux_all_subsets(x)
        with_violations += bool(got)
    assert with_violations >= 10


def test_darboux_rref_count_is_polynomial(monkeypatch):
    calls = []

    def counting_rref(rows):
        calls.append(rows)
        return rref(rows)

    x = cpn_xray(8, seeded_rows(2, 8, 0))
    monkeypatch.setattr(xray, "rref", counting_rref)
    assert validate_darboux(x) == []
    n = x.half_dim
    assert len(calls) <= len(x.vertex_ids) * sum(comb(n, s) for s in range(3))


def test_fingerprint_is_computed_once(monkeypatch, ncp4):
    x = from_interchange(to_interchange(ncp4))
    calls = []

    def counting_json(y):
        calls.append(y)
        return canonical_json(y)

    monkeypatch.setattr(xray, "canonical_json", counting_json)
    assert x.fingerprint() == x.fingerprint() == ncp4.fingerprint()
    assert len(calls) == 1


BOOLEAN_EDITS = {
    "torus_rank": lambda doc: doc.__setitem__("torus_rank", True),
    "half_dim": lambda doc: doc.__setitem__("half_dim", True),
    "signature": lambda doc: doc["vertex_data"]["v1"].__setitem__("signature", True),
    "euler": lambda doc: doc["vertex_data"]["v1"].__setitem__("euler", False),
    "poincare": lambda doc: doc["vertex_data"]["v1"].__setitem__("poincare", [True]),
    "weights": lambda doc: doc["vertex_data"]["v1"]["weights"].__setitem__(0, [True]),
    "vertices": lambda doc: doc["strata"][0].__setitem__("vertices", [[True]]),
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_EDITS))
def test_interchange_rejects_booleans(cp3, field):
    doc = to_interchange(cp3)
    BOOLEAN_EDITS[field](doc)
    with pytest.raises(MalformedXray, match=field):
        from_interchange(doc)


@pytest.mark.parametrize("name", ["cp4", "ncp4", "seeded"])
def test_darboux_compares_each_wall_cone_once(monkeypatch, request, name):
    x = cpn_xray(6, seeded_rows(2, 6, 0)) if name == "seeded" else request.getfixturevalue(name)
    calls = []
    compare = xray._tangent_cone_matches

    def counting_compare(wall, tight, point, gens, dim):
        calls.append((wall, point))
        return compare(wall, tight, point, gens, dim)

    monkeypatch.setattr(xray, "_tangent_cone_matches", counting_compare)
    assert validate_darboux(x) == []
    assert len(calls) == sum(1 + len(x.above(v)) for v in x.vertex_ids)


@pytest.mark.parametrize("x", [standard_simplex_xray(3), standard_cube_xray(2)], ids=["simplex3", "cube2"])
def test_darboux_at_wall_vertices_solves_nothing(monkeypatch, x):
    """Every fixed point is a vertex of every wall through it, so each
    cone comparison is read off facets and edges with no Gram solve."""
    calls = []
    solve = xray.solve_square

    def counting_solve(a, b):
        calls.append(a)
        return solve(a, b)

    monkeypatch.setattr(xray, "solve_square", counting_solve)
    assert validate_darboux(x) == []
    assert calls == []


@settings(deadline=None)
@given(
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    where=st.sampled_from(["vertex", "boundary", "interior"]),
    kind=st.sampled_from(["exact", "less", "more"]),
)
def test_tangent_cone_matches_cones_equal(k, seed, where, kind):
    """The facet-and-edge comparison agrees with comparing cones on all
    vertex directions, at a vertex, a boundary point that is no vertex
    and an interior point, for the exact generators, one fewer and one
    more in the wall's span."""
    rng = random.Random(seed)
    wall = hull([as_vec([rng.randint(-3, 3) for _ in range(k)]) for _ in range(rng.randint(1, k + 3))])
    verts = wall.vertices
    if where == "interior":
        point = centroid(verts)
    elif where == "boundary" and wall.dim >= 2:
        point = centroid(rng.choice(faces(wall, rng.randrange(1, wall.dim))).vertices)
    else:
        point = rng.choice(verts)
    if point in verts:
        edges = faces(wall, 1) if wall.dim else []
        gens = [vsub(q, point) for e in edges if point in e.vertices for q in e.vertices if q != point]
    else:
        gens = [vsub(q, point) for q in verts]
    gens = [vscale(g, Fraction(rng.randint(1, 3))) for g in gens]
    if kind == "less" and gens:
        gens.pop(rng.randrange(len(gens)))
    elif kind == "more":
        extra = as_vec([0] * k)
        for b in wall.span.basis:
            extra = vadd(extra, vscale(b, Fraction(rng.randint(-2, 2))))
        gens.append(extra)
    tight = tuple(tight_mask(wall, v) for v in verts)
    tangent = [vsub(q, point) for q in verts]
    assert xray._tangent_cone_matches(wall, tight, point, gens, k) == _cones_equal(tangent, gens, k)


def test_darboux_two_matches_and_cone_violation_match_all_subsets():
    seg1 = hull([as_vec((0,)), as_vec((1,))])
    seg2 = hull([as_vec((0,)), as_vec((2,))])
    strata = [
        Stratum("a", hull([as_vec((0,))]), ("s1", "s2"), (), VertexData((as_vec((1,)),), **seeds_one())),
        Stratum("b", hull([as_vec((1,))]), ("s1", "s2"), (), VertexData((as_vec((-1,)),), **seeds_one())),
        Stratum("c", hull([as_vec((2,))]), ("s2",), (), VertexData((as_vec((-1,)),), **seeds_one())),
        Stratum("s1", seg1, (), (), None),
        Stratum("s2", seg2, (), (), None),
    ]
    x = WeightedXray(1, 1, tuple(strata))
    got = validate_darboux(x)
    assert got == validate_darboux_all_subsets(x)
    lines = [str(v) for v in got]
    assert "[darboux-subset] a: weight subset {(1)} is the tangent cone of 2 strata ['s1', 's2']" in lines
    assert any(v.kind == "darboux-cone" and v.stratum == "b" for v in got)


def test_interchange_rejects_vertices_of_mixed_dimension(cp3):
    doc = to_interchange(cp3)
    i = next(i for i, s in enumerate(doc["strata"]) if s["id"] == "top")
    doc["strata"][i] = {**doc["strata"][i], "vertices": [["1"], ["1", "2"]]}
    with pytest.raises(MalformedXray, match=rf"strata\[{i}\]: vertices of mixed dimension"):
        from_interchange(doc)


@pytest.mark.parametrize("vertices", [[["1", "2"]], [[]]])
def test_interchange_rejects_vertices_of_wrong_length(cp3, vertices):
    doc = to_interchange(cp3)
    i = next(i for i, s in enumerate(doc["strata"]) if s["id"] == "top")
    doc["strata"][i] = {**doc["strata"][i], "vertices": vertices}
    length = len(vertices[0])
    with pytest.raises(MalformedXray, match=rf"strata\[{i}\]: vertices of stratum 'top' have length {length}, expected torus_rank 1"):
        from_interchange(doc)


def test_interchange_rejects_oversized_stratum_before_hull(monkeypatch):
    """torus_rank 12 with 40 vertices would ask hull for C(40, <=12)
    subsets; the document is refused before any hull runs."""

    def no_hull(points):
        raise AssertionError("hull called on oversized input")

    monkeypatch.setattr(xray, "hull", no_hull)
    rng = random.Random(12)
    vertices = [[str(rng.randint(0, 99)) for _ in range(12)] for _ in range(40)]
    doc = {"torus_rank": 12, "half_dim": 12, "strata": [{"id": "top", "vertices": vertices}], "vertex_data": {}}
    assert len({tuple(v) for v in vertices}) == 40
    with pytest.raises(MalformedXray, match=r"strata\[0\]: stratum 'top' has 40 distinct vertices at torus_rank 12"):
        from_interchange(doc)
