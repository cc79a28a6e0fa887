import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xraycross import ratmath, xray
from xraycross.circle import from_rank1_xray
from xraycross.errors import MalformedXray, ValidationFailed
from xraycross.exactgeom import faces, hull
from xraycross.generators import ProjectionMatrix, cpn_xray, load_xray, standard_cube_xray, standard_simplex_xray
from xraycross.intpoly import IntPolynomial
from xraycross.ratmath import (
    as_vec,
    clear_denominators,
    format_rational,
    idot,
    int_rank,
    primitive,
    rank,
    span_key,
    vdot,
    vsub,
)
from xraycross.xray import (
    Stratum,
    VertexData,
    Violation,
    WeightedXray,
    _fmt_points,
    complex_dim_of_stratum,
    from_interchange,
    is_toric_structure_free,
    stratum_weights_in,
    to_interchange,
    canonical_json,
    validate_all,
    validate_consistency,
    validate_darboux,
    validate_poset,
)
from conftest import seeded_rows, transform, vertices_below
from test_exactgeom import centroid, faces_by_facet_hulls, tight_mask
from test_ratmath import (
    in_span,
    is_zero_vector,
    lin_contains,
    primitive_ints,
    primitive_vector,
    reduce_mod,
    rref,
    rref_by_fractions,
    solve_square_by_fractions,
    vadd,
    vscale,
)

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


@pytest.mark.parametrize(
    ("d", "n", "seed", "grid"), [(1, 6, 0, None), (2, 5, 0, None), (2, 6, 1, 2), (3, 5, 1, None), (3, 5, 2, 2)]
)
def test_weights_in_are_cleared_once_per_vertex(monkeypatch, d, n, seed, grid):
    """stratum_weights_in keeps the weights a per-call Fraction test keeps,
    in order, and scaled_weights_in gives the rows of those weights in
    `VertexData.int_weights`.  Each vertex's weights are cleared to
    integers once, when its vertex data is made, each row D > 0 times its
    weight: no weight query clears anything.  The validators, both
    weight queries and the rank-1 circle read those rows, so after
    validate_all none of them clears anything.  No
    cache entry grows past one per stratum: nothing is kept per (vertex,
    wall) pair."""
    x = cpn_xray(n, seeded_rows(d, n, seed, grid=grid))
    fresh_keys = len(x._cache)
    pairs = [(g, f) for f in sorted(x.ids) for g in sorted(x.ids) if x.leq(g, f)]
    cleared = []
    real = xray.clear_denominators

    def counting(v):
        cleared.append(v)
        return real(v)

    monkeypatch.setattr(xray, "clear_denominators", counting)
    for g, f in pairs:
        vd = x.stratum(vertices_below(x, g)[0]).vertex_data
        span = x.stratum(f).wall.span
        keep = [span.lin_holds(real(w)[0]) for w in vd.weights]
        assert stratum_weights_in(x, g, f) == tuple(w for w, k in zip(vd.weights, keep) if k)
        assert xray.scaled_weights_in(x, g, f) == tuple(r for r, k in zip(vd.int_weights[0], keep) if k)
    assert cleared == []
    for g, f in pairs:
        stratum_weights_in(x, g, f)
        xray.scaled_weights_in(x, g, f)
    assert cleared == []

    y = cpn_xray(n, seeded_rows(d, n, seed, grid=grid))
    assert validate_all(y) == []
    cleared.clear()
    for g, f in pairs:
        stratum_weights_in(y, g, f)
        xray.scaled_weights_in(y, g, f)
    if d == 1:
        from_rank1_xray(y)
    assert cleared == []
    for v in y.vertex_ids:
        vd = y.stratum(v).vertex_data
        rows, den = vd.int_weights
        assert den > 0 and len(rows) == len(vd.weights)
        assert all(tuple(c * den for c in w) == row for w, row in zip(vd.weights, rows))
    assert len(y._cache) <= fresh_keys + 3
    assert all(len(entry) <= len(y.strata) for entry in y._cache.values() if isinstance(entry, dict))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=4).filter(any))
def test_line_key_is_span_key_of_the_ray(v):
    """The closed-form key of one direction is the key elimination gives."""
    ray = primitive(v)
    assert xray._line_key(ray) == span_key((ray,)) == span_key((v,))


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
    assert set(vertices_below(ncp4, DIAG)) == {"v2", "v3", "v4", "v5"}
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


def test_child_vertex_on_parent_vertex_over_another_denominator_is_contained():
    """A child's vertex 0 equals the parent's vertex 0 over another
    common denominator (3 against 1).  Built from separate tuples, no
    vertex is known by identity, so both are tested against the parent's
    equations and facets."""
    seg = hull([as_vec((0,)), as_vec((1,))])
    child = Stratum("c", hull([as_vec((0,)), as_vec(("1/3",))]), ("s",), (), None)
    x = WeightedXray(1, 1, (child, Stratum("s", seg, (), (), None)))
    assert seg.int_vertices[1] % child.wall.int_vertices[1] != 0
    assert x.stratum("c").parents == ("s",)
    outside = Stratum("c", hull([as_vec((0,)), as_vec(("4/3",))]), ("s",), (), None)
    with pytest.raises(MalformedXray, match="not contained"):
        WeightedXray(1, 1, (outside, Stratum("s", seg, (), (), None)))


def test_rejects_child_wall_outside_parent_at_a_shared_vertex():
    """One child vertex equals a parent vertex, the other lies outside.
    Built from separate tuples, both are tested against the parent."""
    seg = hull([as_vec((0,)), as_vec(("1/2",))])
    child = Stratum("c", hull([as_vec((0,)), as_vec((1,))]), ("s",), (), None)
    assert seg.int_vertices[1] % child.wall.int_vertices[1] == 0
    with pytest.raises(MalformedXray, match="wall of 'c' is not contained in wall of its parent 's'"):
        WeightedXray(1, 1, (child, Stratum("s", seg, (), (), None)))


def test_rejects_child_outside_parent_past_a_vertex_shared_by_identity():
    """The child's vertex 0 is the parent's vertex 0, the same tuple, so
    it is known without a test; the child's other vertex is still tested
    and lies outside."""
    zero = as_vec((0,))
    seg = hull([zero, as_vec((1,))])
    child = hull([zero, as_vec((2,))])
    assert child.vertices[0] is seg.vertices[0]
    with pytest.raises(MalformedXray, match="wall of 'c' is not contained in wall of its parent 's'"):
        WeightedXray(1, 1, (Stratum("c", child, ("s",), (), None), Stratum("s", seg, (), (), None)))


def test_rejects_second_child_outside_parent_past_a_point_that_passed():
    """Child 'a' is the point 1/2, inside the parent, so that tuple passes
    once; child 'b' shares it and has another vertex outside, which is
    still tested."""
    seg = hull([as_vec((0,)), as_vec((1,))])
    half = as_vec(("1/2",))
    a = Stratum("a", hull([half]), ("s",), (), VertexData((as_vec((1,)),), **seeds_one()))
    b = Stratum("b", hull([half, as_vec((2,))]), ("s",), (), None)
    assert b.wall.vertices[0] is a.wall.vertices[0]
    s = Stratum("s", seg, (), (), None)
    WeightedXray(1, 1, (a, s))
    with pytest.raises(MalformedXray, match="wall of 'b' is not contained in wall of its parent 's'"):
        WeightedXray(1, 1, (a, b, s))


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


def _cone_contains(gens, w, dim):
    """Is the rational vector w a nonnegative combination of the rational
    gens?  Scaling w and each generator by a positive number leaves the
    answer unchanged, so `xray._in_cone` decides it on their distinct
    nonzero integer forms."""
    gs = sorted({clear_denominators(g)[0] for g in gens if not is_zero_vector(g)})
    return xray._in_cone(gs, clear_denominators(w)[0], dim)


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
            inspan = [w for w in alpha if lin_contains(span, w)]
            if not _cones_equal(tangent[fid], inspan, d):
                vio.add(Violation(pid, "darboux-cone", f"tangent cone of '{fid}' differs from the cone of its weights"))
        dirs = sorted({primitive_vector(w) for w in alpha if not is_zero_vector(w)})
        subsets = set()
        for size in range(len(dirs) + 1):
            for B in combinations(dirs, size):
                basis, pivots = rref_by_fractions(B)
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


def cone_contains_by_fractions(gens, w, dim):
    """Reference: the conic Caratheodory search with a Fraction Gram solve
    and a Fraction reconstruction."""
    if is_zero_vector(w):
        return True
    gs = sorted({g for g in gens if not is_zero_vector(g)})
    for size in range(1, min(len(gs), dim) + 1):
        for sub in combinations(gs, size):
            gram = [tuple(vdot(a, b) for b in sub) for a in sub]
            try:
                lam = solve_square_by_fractions(gram, tuple(vdot(a, w) for a in sub))
            except ValueError:
                continue
            if any(c < 0 for c in lam):
                continue
            recon = [Fraction(0)] * len(w)
            for c, g in zip(lam, sub):
                recon = [r + c * gi for r, gi in zip(recon, g)]
            if tuple(recon) == w:
                return True
    return False


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32))
def test_cone_contains_matches_fractions(seed):
    """Seeded generators in Q^1..Q^3, zero, repeated and dependent ones
    included, against members, non-members and boundary directions."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)

    def vec():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))

    gens = [vec() for _ in range(rng.randint(0, 4))]
    gens += [vscale(rng.choice(gens), Fraction(rng.randint(1, 3), 2)) for _ in range(rng.randint(0, 2)) if gens]
    probes = [vec() for _ in range(3)] + gens
    probes += [vadd(vscale(a, Fraction(rng.randint(0, 2))), b) for a, b in combinations(gens, 2)][:4]
    for w in probes:
        assert _cone_contains(gens, w, dim) == cone_contains_by_fractions(gens, w, dim)


def validate_consistency_by_reduce_mod(x):
    """Reference: weight classes as Fraction coset representatives mod
    the wall span (`reduce_mod` on its RREF basis)."""
    vio = set()
    for g in x.strata:
        vs = vertices_below(x, g.id)
        if len(vs) < 2:
            continue
        span = g.wall.span

        def classes(vid):
            return sorted(reduce_mod(span.basis, span.pivots, w) for w in x.stratum(vid).vertex_data.weights)

        ref = classes(vs[0])
        for v in vs[1:]:
            if classes(v) != ref:
                detail = f"weight classes at '{v}' differ from '{vs[0]}' modulo the wall span"
                vio.add(Violation(g.id, "consistency", detail))
    return sorted(vio)


def rescaled_triangle(scale=1):
    """The standard triangle with its weights rescaled along their rays,
    so that the vertices' weights have common denominators 6, 2 and 3 and
    every class modulo every edge still agrees; v3's weight off the edge
    e1-3, (-1/3, 1/3), is then multiplied by scale."""
    doc = to_interchange(standard_simplex_xray(2))
    w = Fraction(1, 3) * scale
    weights = {
        "v1": [["0", "1/3"], ["1/2", "0"]],
        "v2": [["0", "-1"], ["1/2", "-1/2"]],
        "v3": [["-1", "0"], [format_rational(-w), format_rational(w)]],
    }
    for vid, ws in weights.items():
        doc["vertex_data"][vid]["weights"] = ws
    return from_interchange(doc)


@pytest.mark.parametrize(
    "scale, dens, flagged", [(1, [6, 2, 3], []), (Fraction(3, 2), [6, 2, 2], ["e1-3"])], ids=["equal-classes", "rescaled-weight"]
)
def test_consistency_compares_classes_over_different_denominators(scale, dens, flagged):
    """Vertices whose weight rows have different denominators agree when
    their classes do; a weight off an edge's span, rescaled along its
    ray, leaves the Darboux check clean but moves its class there."""
    x = rescaled_triangle(scale)
    assert [x.stratum(v).vertex_data.int_weights[1] for v in x.vertex_ids] == dens
    got = validate_consistency(x)
    assert [v.stratum for v in got] == flagged
    assert got == validate_consistency_by_reduce_mod(x)
    assert validate_poset(x) == validate_darboux(x) == []


def test_consistency_matches_reduce_mod_classes(cp3, cp4, ncp4, toric_triangle, unit_square, segment):
    xs = [cp3, cp4, ncp4, toric_triangle, unit_square, segment, rescaled_triangle(), rescaled_triangle(Fraction(3, 2))]
    xs += [cpn_xray(n, seeded_rows(d, n, seed)) for d, n, seed in ((1, 5, 0), (1, 7, 1), (2, 4, 2), (2, 5, 3), (3, 4, 4))]
    xs += [mutate_weight(x, seed) for x in xs for seed in range(4)]
    with_violations = 0
    for x in xs:
        got = validate_consistency(x)
        assert got == validate_consistency_by_reduce_mod(x)
        with_violations += bool(got)
    assert with_violations >= 10


def validate_poset_by_faces(x):
    """Reference: the face check on hulled faces (`faces_by_facet_hulls`)
    matched against every chain member by full Polytope equality, the
    span check over every pair above every stratum, and one `top`
    violation unless exactly one stratum has nothing above it."""
    vio = set()
    tops = sorted(t for t in x.ids if not x.above(t))
    if len(tops) != 1:
        vio.add(Violation(tops[0] if tops else "", "top", f"expected a unique maximal stratum, found {tops}"))
    for a in x.ids:
        for b in x.above(a):
            if x.dim(a) >= x.dim(b):
                vio.add(Violation(a, "dimension", f"dim {x.dim(a)} wall below dim {x.dim(b)} wall '{b}'"))
    for s in x.strata:
        for k in range(0, s.wall.dim + 1):
            for face in faces_by_facet_hulls(s.wall, k):
                matches = [t for t in x.ids if x.leq(t, s.id) and x.stratum(t).wall == face]
                if len(matches) != 1:
                    where = _fmt_points(face.vertices)
                    vio.add(Violation(s.id, "face", f"face {where} is the wall of {len(matches)} chain members {matches}"))
    for j in x.ids:
        ups = sorted({j} | set(x.above(j)))
        for a, b in combinations(ups, 2):
            if x.stratum(a).wall.span.basis == x.stratum(b).wall.span.basis:
                vio.add(Violation(a, "span-uniqueness", f"strata '{a}' and '{b}' above a common stratum share a wall span"))
    return sorted(vio)


def tangent_cone_matches_by_fractions(wall, tight, point, gens, dim):
    """Reference: `_tangent_cone_matches` on Fraction weights, each
    cleared and made primitive again for every wall."""
    verts = wall.vertices
    i = verts.index(point) if point in verts else None
    here = tight_mask(wall, point) if i is None else tight[i]
    normals = [n for b, (n, _) in enumerate(wall.int_facets) if here >> b & 1]
    if any(idot(n, clear_denominators(w)[0]) > 0 for w in gens for n in normals):
        return False
    dirs = {primitive_vector(w) for w in gens if not is_zero_vector(w)}
    if i is None:
        return all(_cone_contains(dirs, u, dim) for u in {primitive_vector(vsub(q, point)) for q in verts})
    for j, t in enumerate(tight):
        common = here & t
        if j == i or any(k != i and k != j and s & common == common for k, s in enumerate(tight)):
            continue
        if primitive_vector(vsub(verts[j], point)) not in dirs:
            return False
    return True


def validate_darboux_by_scan(x):
    """Reference: validate_darboux with Fraction weights and a scan of
    the passed walls' bases for every direction subset."""
    d = x.torus_rank
    vio = set()
    for pid in x.vertex_ids:
        p = x.stratum(pid)
        point = p.wall.vertices[0]
        alpha = p.vertex_data.weights
        passed = []
        for fid in [pid] + sorted(x.above(pid)):
            wall = x.stratum(fid).wall
            tight = tuple(tight_mask(wall, v) for v in wall.vertices)
            inspan = alpha if wall.dim == d else [w for w in alpha if lin_contains(wall.span, w)]
            if tangent_cone_matches_by_fractions(wall, tight, point, inspan, d):
                passed.append((wall.span.basis, fid))
            else:
                vio.add(Violation(pid, "darboux-cone", f"tangent cone of '{fid}' differs from the cone of its weights"))
        dirs = sorted({primitive_vector(w) for w in alpha if not is_zero_vector(w)})
        spans = {rref(B) for size in range(min(len(dirs), d - 1) + 1) for B in combinations(dirs, size)}
        whole = rref(dirs)
        if len(whole[1]) == d:
            spans.add(whole)
        for basis, _ in spans:
            matches = [fid for b, fid in passed if b == basis]
            if len(matches) != 1:
                S = tuple(w for w in alpha if rank(basis + (w,)) == len(basis))
                detail = f"weight subset {_fmt_points(S)} is the tangent cone of {len(matches)} strata {matches}"
                vio.add(Violation(pid, "darboux-subset", detail))
    return sorted(vio)


def twin_stratum(x, sid):
    """A second stratum with sid's wall and parents, above all that sid covers."""
    doc = to_interchange(x)
    twin = f"{sid}-twin"
    for s in doc["strata"]:
        if sid in s["parents"]:
            s["parents"] = s["parents"] + [twin]
    doc["strata"].append({**next(s for s in doc["strata"] if s["id"] == sid), "id": twin})
    if sid in doc["vertex_data"]:
        doc["vertex_data"][twin] = doc["vertex_data"][sid]
    return from_interchange(doc)


def drop_parent(x, seed):
    """Remove one covering relation: the child leaves the parent's chain."""
    rng = random.Random(seed)
    doc = to_interchange(x)
    s = rng.choice([s for s in doc["strata"] if s["parents"]])
    s["parents"] = [p for p in s["parents"] if p != rng.choice(s["parents"])]
    return from_interchange(doc)


def validator_corpus(fixtures):
    """About 400 X-rays: the fixtures, seeded and grid CP^n at d = 1..3,
    and a mutate_weight, a drop_stratum and either a twin_stratum or a
    drop_parent copy of each."""
    xs = list(fixtures)
    xs += [cpn_xray(n, seeded_rows(1, n, seed)) for n in range(2, 9) for seed in range(4)]
    xs += [cpn_xray(n, seeded_rows(2, n, seed)) for n in range(3, 7) for seed in range(4)]
    xs += [cpn_xray(n, seeded_rows(3, n, seed)) for n in (4, 5) for seed in range(2)]
    xs += [cpn_xray(n, seeded_rows(2, n, seed, grid=g)) for n in range(3, 7) for g in (2, 3) for seed in range(6)]
    xs += [cpn_xray(n, seeded_rows(3, n, seed, grid=2)) for n in (4, 5) for seed in range(4)]
    rng = random.Random(0)
    base = list(xs)
    xs += [mutate_weight(x, seed) for seed, x in enumerate(base)]
    xs += [drop_stratum(x, rng.choice([s for s in x.ids if s != x.top_id])) for x in base]
    xs += [
        twin_stratum(x, rng.choice([s for s in x.ids if s != x.top_id])) if k % 2 else drop_parent(x, k)
        for k, x in enumerate(base)
    ]
    return xs


def test_validators_match_references_on_corpus(cp3, cp4, ncp4, toric_triangle, unit_square, segment):
    """All three validators give the references' violation lists, word
    for word, on X-rays with and without violations."""
    xs = validator_corpus([cp3, cp4, ncp4, toric_triangle, unit_square, segment])
    with_violations = 0
    kinds = set()
    for x in xs:
        poset, consistency, darboux = validate_poset(x), validate_consistency(x), validate_darboux(x)
        assert poset == validate_poset_by_faces(x)
        assert consistency == validate_consistency_by_reduce_mod(x)
        assert darboux == validate_darboux_by_scan(x)
        with_violations += bool(poset or consistency or darboux)
        kinds |= {v.kind for v in poset}
    assert len(xs) >= 390
    assert with_violations >= 250
    assert kinds >= {"face", "span-uniqueness"}


def test_darboux_rref_count_is_polynomial(monkeypatch):
    """Every weight-subset span is keyed once per subset of < d directions,
    plus the whole set, at each vertex: no exponential scan."""
    calls = []
    real = xray.span_key

    def counting_span_key(rows):
        calls.append(rows)
        return real(rows)

    x = cpn_xray(8, seeded_rows(2, 8, 0))
    monkeypatch.setattr(xray, "span_key", counting_span_key)
    assert validate_darboux(x) == []
    n = x.half_dim
    assert 0 < len(calls) <= len(x.vertex_ids) * sum(comb(n, s) for s in range(3))


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

    def counting_compare(wall, at, gens):
        calls.append((wall, at))
        return compare(wall, at, gens)

    monkeypatch.setattr(xray, "_tangent_cone_matches", counting_compare)
    assert validate_darboux(x) == []
    assert len(calls) == sum(1 + len(x.above(v)) for v in x.vertex_ids)


def test_darboux_subsets_eliminate_once_per_subset(monkeypatch):
    """A lone d = 3 vertex with 40 weights, some repeated, some opposite,
    one zero: no stratum but the vertex matches a subset, so nearly every
    subset key is a violation.  Its weight subset S comes off the
    directions the key was made from, so the only eliminations are one
    per subset of two directions and one for all of them, and the
    violations are those of one rank test per weight and key."""
    rng = random.Random(3)
    d, n = 3, 40
    weights = [as_vec((0, 0, 0))]
    while len(weights) < n:
        w = as_vec([Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(d)])
        if any(w):
            weights.append(w)
            if rng.random() < 0.2 and len(weights) < n:
                weights.append(tuple(-c * 2 for c in w) if rng.random() < 0.5 else w)
    vd = VertexData(tuple(weights), **seeds_one())
    x = WeightedXray(d, n, (Stratum("p", hull([as_vec((1, 0, 2))]), (), (), vd),))
    rays = [primitive(r) for r in vd.int_weights[0]]
    dirs = sorted({r for r in rays if any(r)})

    calls = []
    eliminate = ratmath._eliminate

    def counting_eliminate(mat):
        calls.append(len(mat))
        return eliminate(mat)

    monkeypatch.setattr(ratmath, "_eliminate", counting_eliminate)
    got = validate_darboux(x)
    monkeypatch.undo()
    assert len(calls) <= comb(len(dirs), 2) + 1

    keys = {span_key(B) for size in (1, 2) for B in combinations(dirs, size)}
    whole = span_key(dirs)
    assert len(whole) == d
    keys.add(whole)
    want = []
    for key in keys:
        S = tuple(w for w, r in zip(vd.weights, rays) if int_rank(key + (r,)) == len(key))
        message = f"weight subset {_fmt_points(S)} is the tangent cone of 0 strata []"
        want.append(Violation("p", "darboux-subset", message))
    assert got == sorted(want)


def lone_vertex_document(d, weights):
    """The interchange document of one vertex at the origin with the
    given integer weights and every seed 1."""
    entry = {"weights": [[str(c) for c in w] for w in weights], "signature": 1, "poincare": [1], "euler": 1}
    return {"torus_rank": d, "half_dim": len(weights), "strata": [{"id": "p", "vertices": [["0"] * d]}], "vertex_data": {"p": entry}}


@pytest.mark.parametrize("d,most", [(3, 199), (4, 49)])
def test_interchange_bounds_darboux_direction_subsets(d, most):
    """A vertex whose distinct weight directions have more subsets of at
    most d - 1 members than MAX_HULL_SUBSETS, the keys `validate_darboux`
    would make, is refused at load; one at the bound loads.  Directions
    are lines: twenty weights opposite to others add none.  The weights
    lie on the moment curve, so no three are coplanar with 0."""
    moment = [[i**j for j in range(d)] for i in range(most + 1)]
    assert sum(comb(most, j) for j in range(d)) <= xray.MAX_HULL_SUBSETS < sum(comb(most + 1, j) for j in range(d))
    opposite = [[-c for c in w] for w in moment[:20]]
    assert from_interchange(lone_vertex_document(d, moment[:most] + opposite)).vertex_ids == ("p",)
    with pytest.raises(MalformedXray) as refused:
        from_interchange(lone_vertex_document(d, moment + opposite))
    assert str(refused.value) == (
        f"vertex_data['p']: {most + 1} distinct weight directions at torus_rank {d}, "
        f"more than {xray.MAX_HULL_SUBSETS} direction subsets to check"
    )


def test_interchange_refuses_many_direction_subsets_quickly(monkeypatch):
    """The lone d = 4 vertex with 120 random weights, whose validation
    once took 17 s, is refused in under a second.  A document whose
    half_dim allows no more subsets than the bound counts no direction,
    as every CP^n the benchmark builds."""
    rng = random.Random(5)
    doc = lone_vertex_document(4, [[rng.randint(-50, 50) for _ in range(4)] for _ in range(120)])
    start = time.perf_counter()
    with pytest.raises(MalformedXray, match="distinct weight directions at torus_rank 4"):
        from_interchange(doc)
    assert time.perf_counter() - start < 1
    calls = []
    line_key = xray._line_key
    monkeypatch.setattr(xray, "_line_key", lambda ray: calls.append(ray) or line_key(ray))
    for x in [cpn_xray(7, seeded_rows(2, 7, 1)), cpn_xray(6, seeded_rows(3, 6, 1))]:
        from_interchange(to_interchange(x))
    assert calls == []


@pytest.mark.parametrize("x", [standard_simplex_xray(3), standard_cube_xray(2)], ids=["simplex3", "cube2"])
def test_darboux_at_wall_vertices_solves_nothing(monkeypatch, x):
    """Every fixed point is a vertex of every wall through it, so each
    cone comparison is read off facets and edges with no Gram solve."""
    calls = []
    solve = xray.solve_scaled

    def counting_solve(a, b):
        calls.append(a)
        return solve(a, b)

    monkeypatch.setattr(xray, "solve_scaled", counting_solve)
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
    tangent = [vsub(q, point) for q in verts]
    rays = [primitive_ints(g) for g in gens]
    assert xray._tangent_cone_matches(wall, clear_denominators(point), rays) == _cones_equal(tangent, gens, k)


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


def chain_strata(length):
    """length strata on one segment, each the only parent of the one before."""
    seg = hull([as_vec((0,)), as_vec((1,))])
    return [Stratum(f"s{i:04d}", seg, (f"s{i + 1:04d}",) if i + 1 < length else ()) for i in range(length)]


def test_deep_parent_chain_builds_without_recursion():
    """1 500 strata deep, past the interpreter's recursion limit: the
    ancestor sets are filled in topological order."""
    x = WeightedXray(1, 1, tuple(chain_strata(1500)))
    assert len(x.above("s0000")) == 1499
    assert x.below("s1499") == frozenset(x.ids) - {"s1499"}
    assert x.stratum("s0700").parents == ("s0701",)
    assert x.stratum("s0700").children == ("s0699",)


def test_cycle_above_a_deep_chain_is_malformed():
    strata = chain_strata(1500)
    strata[-1] = Stratum("s1499", strata[-1].wall, ("s1400",))
    with pytest.raises(MalformedXray, match="cycle in stratum order through 's1400'"):
        WeightedXray(1, 1, tuple(strata))


def no_hull(points):
    raise AssertionError("hull called on out-of-bounds input")


def test_interchange_rejects_too_many_strata_before_hull(monkeypatch):
    monkeypatch.setattr(xray, "hull", no_hull)
    count = xray.MAX_STRATA + 1
    doc = {"torus_rank": 1, "half_dim": 1, "strata": [{"id": f"s{i}", "vertices": [["0"]]} for i in range(count)], "vertex_data": {}}
    with pytest.raises(MalformedXray, match=rf"strata: {count} strata, more than {xray.MAX_STRATA}"):
        from_interchange(doc)


@pytest.mark.parametrize("where", ["vertex", "numerator", "denominator"])
def test_interchange_rejects_long_rationals_before_hull(monkeypatch, cp3, where):
    """A rational past the digit bound in the last stratum's vertices or
    in a weight is refused before any stratum is hulled."""
    monkeypatch.setattr(xray, "hull", no_hull)
    digits = "7" * (xray.MAX_RATIONAL_DIGITS + 1)
    doc = to_interchange(cp3)
    if where == "vertex":
        last = len(doc["strata"]) - 1
        doc["strata"][last]["vertices"][0] = [digits]
        path = rf"strata\[{last}\]\.vertices\[0\]\[0\]"
    else:
        vid = sorted(doc["vertex_data"])[-1]
        doc["vertex_data"][vid]["weights"][1] = [digits if where == "numerator" else f"1/{digits}"]
        path = rf"vertex_data\['{vid}'\]\.weights\[1\]\[0\]"
    with pytest.raises(MalformedXray, match=rf"{path}: numerator or denominator of more than {xray.MAX_RATIONAL_DIGITS} digits"):
        from_interchange(doc)


def test_interchange_rejects_long_common_denominator_before_hull(monkeypatch):
    """199 points in convex position at d = 2 with distinct 3-digit
    denominators are within the subset and digit bounds, but the lcm of
    their denominators has 185 digits: hulling them took 3.4 s, and the
    document is refused in well under a second, before any hull."""
    monkeypatch.setattr(xray, "hull", no_hull)
    denominators = random.Random(0).sample(range(100, 1000), 199)
    vertices = [[str(i), f"{i * i * q + 1}/{q}"] for i, q in enumerate(denominators)]
    doc = {"torus_rank": 2, "half_dim": 2, "strata": [{"id": "top", "vertices": vertices}], "vertex_data": {}}
    start = time.perf_counter()
    with pytest.raises(MalformedXray, match=r"strata\[0\]: stratum 'top' has 19901 vertex subsets to hull over a common denominator"):
        from_interchange(doc)
    assert time.perf_counter() - start < 1


def test_hull_work_bound_leaves_room_for_long_rationals():
    """A seeded (3, 5) CP^n X-ray whose top wall has distinct 100-digit
    denominators is within every bound and loads back unchanged."""
    rows = tuple(
        tuple(Fraction(10**99 + 7 * (i + 6 * r), 10**99 + 11 * (i + 6 * r) + 1) for i in range(6)) for r in range(3)
    )
    x = cpn_xray(5, ProjectionMatrix(rows))
    assert from_interchange(to_interchange(x)) == x


def test_largest_generated_input_is_within_bounds():
    """delzant --cube 4, 81 strata, loads back unchanged."""
    x = standard_cube_xray(4)
    assert from_interchange(to_interchange(x)) == x


def two_segments_doc():
    """Two disjoint unit segments at d = 1: t1 = [0, 1] over a and b,
    t2 = [5, 6] over c and e, each a valid X-ray of CP^1 on its own."""
    seeds = {"signature": 1, "poincare": [1], "euler": 1}
    return {
        "torus_rank": 1,
        "half_dim": 1,
        "strata": [
            {"id": "a", "vertices": [["0"]], "parents": ["t1"]},
            {"id": "b", "vertices": [["1"]], "parents": ["t1"]},
            {"id": "c", "vertices": [["5"]], "parents": ["t2"]},
            {"id": "e", "vertices": [["6"]], "parents": ["t2"]},
            {"id": "t1", "vertices": [["0"], ["1"]], "parents": []},
            {"id": "t2", "vertices": [["5"], ["6"]], "parents": []},
        ],
        "vertex_data": {
            "a": {"weights": [["1"]], **seeds},
            "b": {"weights": [["-1"]], **seeds},
            "c": {"weights": [["1"]], **seeds},
            "e": {"weights": [["-1"]], **seeds},
        },
    }


NO_STRATA_DOC = {"torus_rank": 1, "half_dim": 1, "strata": [], "vertex_data": {}}


@pytest.mark.parametrize(
    ("doc", "line"),
    [
        (two_segments_doc(), "[top] t1: expected a unique maximal stratum, found ['t1', 't2']"),
        (NO_STRATA_DOC, "[top] : expected a unique maximal stratum, found []"),
    ],
    ids=["two-tops", "no-strata"],
)
def test_poset_requires_one_maximal_stratum(tmp_path, doc, line):
    """Several maximal strata, or none, are one `top` violation, so a
    checked load refuses what the queries, which start from the top,
    cannot use; every other validator passes on both documents."""
    x = from_interchange(doc)
    assert [str(v) for v in validate_poset(x)] == [line]
    assert validate_consistency(x) == validate_darboux(x) == []
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationFailed) as caught:
        load_xray(path)
    assert [str(v) for v in caught.value.violations] == [line]
    assert load_xray(path, checked=False).ids == x.ids


REPEATED_BAD_VECTORS = {
    # each edit of cp3's document, whose strata are top, v1, v2, v3, v4 in
    # that order: a bad list met twice, or a good list of strings met
    # again with other types
    "bad-twice": (
        lambda doc: [doc["strata"][i].__setitem__("vertices", [["1", "2/0"]]) for i in (1, 2)],
        "strata[1].vertices[0]: invalid rational '2/0'",
    ),
    "bad-weight-twice": (
        lambda doc: doc["vertex_data"]["v2"].__setitem__("weights", [["x"], ["1"], ["x"]]),
        "vertex_data['v2'].weights[0]: invalid rational 'x'",
    ),
    "long-twice": (
        lambda doc: [doc["vertex_data"][v]["weights"].__setitem__(1, ["1/" + "7" * 501]) for v in ("v3", "v4")],
        "vertex_data['v3'].weights[1][0]: numerator or denominator of more than 500 digits",
    ),
    "float-after-string": (
        lambda doc: doc["vertex_data"]["v2"].__setitem__("weights", [["1"], [1.0], ["2"]]),
        "vertex_data['v2'].weights[1]: cannot make a rational from 1.0",
    ),
    "bool-after-string": (
        lambda doc: doc["vertex_data"]["v2"].__setitem__("weights", [["1"], [True], ["2"]]),
        "vertex_data['v2'].weights[1]: expected a vector, got [True]",
    ),
    "float-after-int": (
        lambda doc: doc["vertex_data"]["v2"].__setitem__("weights", [[1], [1.0], ["2"]]),
        "vertex_data['v2'].weights[1]: cannot make a rational from 1.0",
    ),
    "bool-after-int": (
        lambda doc: doc["vertex_data"]["v2"].__setitem__("weights", [[1], [True], ["2"]]),
        "vertex_data['v2'].weights[1]: expected a vector, got [True]",
    ),
    "string-after-bad": (
        lambda doc: doc["vertex_data"]["v2"].__setitem__("weights", [[1.5], ["1"], ["2"]]),
        "vertex_data['v2'].weights[0]: cannot make a rational from 1.5",
    ),
}


@pytest.mark.parametrize("name", sorted(REPEATED_BAD_VECTORS))
def test_interchange_errors_unchanged_for_repeated_vectors(cp3, name):
    """Each coordinate list is parsed once per document, and the texts
    stay those of a parse at every occurrence: the first bad occurrence
    is named, and a list of strings met before does not let the same
    values through as floats or booleans."""
    edit, text = REPEATED_BAD_VECTORS[name]
    doc = to_interchange(cp3)
    edit(doc)
    with pytest.raises(MalformedXray) as caught:
        from_interchange(doc)
    assert str(caught.value) == text


def canonical_json_by_dumps(x):
    """Reference: the canonical form as json.dumps writes it."""
    return json.dumps(to_interchange(x), sort_keys=True, indent=2) + "\n"


CANONICAL_BASES = {
    "cp3": lambda: cpn_xray(3, ProjectionMatrix(((0, 1, 2, 3),))),
    "ncp4": lambda: cpn_xray(4, ProjectionMatrix(((0, 4, 0, Fraction(3, 2), Fraction(5, 2)), (0, 0, 4, Fraction(5, 2), Fraction(3, 2))))),
    "simplex2": lambda: standard_simplex_xray(2),
    "cube3": lambda: standard_cube_xray(3),
}
ID_CHARS = st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t é ☃\U0001f600'), st.characters())
SEEDS = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))


@st.composite
def relabelled_xrays(draw):
    """A fixture, Delzant or seeded CP^n X-ray with its ids wrapped in
    drawn text (quotes, backslashes, control and non-ASCII characters)
    and its seeds redrawn: negative and many-digit signatures and Euler
    characteristics, and Poincare seeds that may be zero, written []."""
    base = draw(st.sampled_from(sorted(CANONICAL_BASES) + ["seeded"]))
    if base == "seeded":
        d = draw(st.integers(1, 3))
        n = draw(st.integers(d + 1, 5))
        x = cpn_xray(n, seeded_rows(d, n, draw(st.integers(0, 50))))
    else:
        x = CANONICAL_BASES[base]()
    doc = to_interchange(x)
    prefix = draw(st.text(ID_CHARS, max_size=3))
    names = {s["id"]: prefix + s["id"] + draw(st.text(ID_CHARS, max_size=2)) for s in doc["strata"]}
    assume(len(set(names.values())) == len(names))
    for s in doc["strata"]:
        s["id"] = names[s["id"]]
        s["parents"] = [names[p] for p in s["parents"]]
    vertex_data = {}
    for sid, vd in doc["vertex_data"].items():
        vd["signature"], vd["euler"] = draw(SEEDS), draw(SEEDS)
        vd["poincare"] = draw(st.lists(SEEDS, max_size=3))
        vertex_data[names[sid]] = vd
    doc["vertex_data"] = vertex_data
    return from_interchange(doc)


@settings(deadline=None, max_examples=150)
@given(relabelled_xrays())
def test_canonical_json_matches_json_dumps(x):
    assert canonical_json(x) == canonical_json_by_dumps(x)


def test_canonical_json_writes_other_seed_types_as_json_dumps():
    """Seeds given as booleans by a caller of the constructors are
    written as json.dumps writes them."""
    strata = [
        Stratum(s.id, s.wall, s.parents, (), None if s.vertex_data is None else VertexData(s.vertex_data.weights, True, s.vertex_data.seed_poincare, False))
        for s in cpn_xray(3, ProjectionMatrix(((0, 1, 2, 3),))).strata
    ]
    x = WeightedXray(1, 3, tuple(strata))
    assert '"signature": true' in canonical_json(x)
    assert canonical_json(x) == canonical_json_by_dumps(x)
