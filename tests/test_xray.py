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
    clear_denominators,
    format_rational,
    idot,
    is_zero_vector,
    primitive_ints,
    rank,
    rref,
    vadd,
    vdot,
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
from test_exactgeom import faces_by_facet_hulls
from test_ratmath import in_span, primitive_vector, reduce_mod, rref_by_fractions, solve_square_by_fractions

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
        vs = x.vertices_below(g.id)
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


def test_consistency_matches_reduce_mod_classes(cp3, cp4, ncp4, toric_triangle, unit_square, segment):
    xs = [cp3, cp4, ncp4, toric_triangle, unit_square, segment]
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
    matched against every chain member by full Polytope equality, and
    the span check over every pair above every stratum."""
    vio = set()
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
            if x.stratum(a).wall.span.same_lin(x.stratum(b).wall.span):
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
            inspan = alpha if wall.dim == d else [w for w in alpha if wall.span.lin_contains(w)]
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
    tight = tuple(tight_mask(wall, v) for v in verts)
    tangent = [vsub(q, point) for q in verts]
    rays = [primitive_ints(g) for g in gens]
    assert xray._tangent_cone_matches(wall, tight, point, rays, k) == _cones_equal(tangent, gens, k)


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


def test_largest_generated_input_is_within_bounds():
    """delzant --cube 4, 81 strata, loads back unchanged."""
    x = standard_cube_xray(4)
    assert from_interchange(to_interchange(x)) == x
