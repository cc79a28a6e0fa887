import json
from fractions import Fraction
from itertools import combinations

import pytest

from xraycross import generators, xray
from xraycross.errors import MalformedXray, ValidationFailed
from xraycross.exactgeom import Polytope, hull
from xraycross.generators import (
    ProjectionMatrix,
    cpn_xray,
    delzant_xray,
    load_xray,
    save_xray,
    standard_cube_xray,
    standard_simplex_xray,
)
from xraycross.intpoly import IntPolynomial
from xraycross.ratmath import as_vec, vsub
from xraycross.xray import Stratum, VertexData, WeightedXray, canonical_json, from_interchange, to_interchange
from conftest import CP3_ROWS, CP4_ROWS, DIAG, NCP4_ROWS, seeded_rows, transform
from test_exactgeom import span_from_points


def test_cp3_structure(cp3):
    assert len(cp3.strata) == 5
    assert set(cp3.ids) == {"v1", "v2", "v3", "v4", "top"}
    assert cp3.stratum("v1").vertex_data.weights == (
        as_vec((1,)),
        as_vec((2,)),
        as_vec((3,)),
    )
    assert cp3.stratum("v3").vertex_data.weights == (
        as_vec((-2,)),
        as_vec((-1,)),
        as_vec((1,)),
    )


def test_cp4_generic_structure(cp4):
    assert len(cp4.strata) == 16
    edges = [sid for sid in cp4.ids if sid.startswith("w")]
    assert len(edges) == 10
    assert "w4-5" in cp4.ids


def test_ncp4_structure(ncp4):
    assert len(ncp4.strata) == 11
    assert DIAG in ncp4.ids
    assert "w2-3" not in ncp4.ids
    assert "w4-5" not in ncp4.ids
    assert {"w1-2", "w1-3", "w1-4", "w1-5"} <= set(ncp4.ids)
    assert set(ncp4.stratum(DIAG).wall.vertices) == {as_vec((4, 0)), as_vec((0, 4))}


def test_vertex_seeds_are_one(cp4):
    for vid in cp4.vertex_ids:
        vd = cp4.stratum(vid).vertex_data
        assert vd.seed_signature == 1
        assert vd.seed_poincare.coeffs == (1,)
        assert vd.seed_euler == 1


def test_duplicate_columns_rejected():
    with pytest.raises(ValueError, match="not isolated"):
        cpn_xray(2, ProjectionMatrix(((0, 1, 0),)))


def test_rank_deficient_matrix_rejected():
    with pytest.raises(ValueError, match="rank"):
        ProjectionMatrix(((1, 2, 3), (2, 4, 6)))


def test_column_count_must_match_n():
    with pytest.raises(ValueError, match="column"):
        cpn_xray(3, ProjectionMatrix(((0, 1, 2),)))


def test_cp1():
    x = cpn_xray(1, ProjectionMatrix(((0, 1),)))
    assert len(x.strata) == 3


def test_toric_counts(toric_triangle, unit_square, segment):
    assert len(toric_triangle.strata) == 7
    assert len(unit_square.strata) == 9
    assert len(segment.strata) == 3


def test_simplex_dimension_guard():
    with pytest.raises(ValueError):
        standard_simplex_xray(0)
    with pytest.raises(ValueError):
        standard_cube_xray(0)


def test_non_simple_polytope_rejected():
    octahedron = hull(
        [
            as_vec((1, 0, 0)),
            as_vec((-1, 0, 0)),
            as_vec((0, 1, 0)),
            as_vec((0, -1, 0)),
            as_vec((0, 0, 1)),
            as_vec((0, 0, -1)),
        ]
    )
    with pytest.raises(ValueError, match="non-simple"):
        delzant_xray(octahedron, {})


def test_delzant_missing_weights_rejected():
    tri = hull([as_vec((0, 0)), as_vec((1, 0)), as_vec((0, 1))])
    with pytest.raises(ValueError, match="weights"):
        delzant_xray(tri, {as_vec((0, 0)): (as_vec((1, 0)), as_vec((0, 1)))})


def test_delzant_wrong_weights_fail_validation():
    tri = hull([as_vec((0, 0)), as_vec((1, 0)), as_vec((0, 1))])
    weights = {
        as_vec((0, 0)): (as_vec((1, 0)), as_vec((0, 1))),
        as_vec((1, 0)): (as_vec((-1, 0)), as_vec((0, 1))),
        as_vec((0, 1)): (as_vec((1, 0)), as_vec((0, 1))),
    }
    with pytest.raises(ValidationFailed):
        delzant_xray(tri, weights)


def test_save_load_roundtrip(tmp_path, cp3, ncp4):
    for x in (cp3, ncp4):
        path = tmp_path / f"{x.fingerprint()}.json"
        save_xray(x, path)
        assert load_xray(path) == x


def test_canonical_file_bytes(tmp_path, cp3):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_xray(cp3, p1)
    save_xray(load_xray(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_rational(tmp_path, cp3):
    import json

    doc = to_interchange(cp3)
    doc["vertex_data"]["v1"]["weights"][0] = ["3/0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedXray, match="invalid rational"):
        load_xray(path)


def test_load_rejects_wrong_weight_count(tmp_path, cp3):
    import json

    doc = to_interchange(cp3)
    doc["vertex_data"]["v2"]["weights"] = [["1"], ["2"]]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedXray, match="v2"):
        load_xray(path)


def test_load_rejects_json_syntax_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"torus_rank": 1,', encoding="utf-8")
    with pytest.raises(MalformedXray, match="line"):
        load_xray(path)


def test_load_rejects_overlong_integer(tmp_path):
    """json.loads raises a bare ValueError past Python's 4300-digit
    integer limit; it is reported as a parse error like any other."""
    path = tmp_path / "digits.json"
    path.write_text('{"euler": 1' + "0" * 5000 + "}", encoding="utf-8")
    with pytest.raises(MalformedXray, match="parse error: .*4300 digits"):
        load_xray(path)


UNPARSABLE = {"not-utf8": b'{"euler": "\xff"}', "nested": b"[" * 200_000}


@pytest.mark.parametrize("name", sorted(UNPARSABLE))
def test_load_rejects_unparsable_file(tmp_path, name):
    """A file that is not UTF-8, and one nested past the recursion limit,
    are parse errors like any other; a missing file is still an OSError."""
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNPARSABLE[name])
    with pytest.raises(MalformedXray, match="parse error: "):
        load_xray(path)
    with pytest.raises(OSError):
        load_xray(tmp_path / "missing.json")


def test_load_rejects_invalid_xray(tmp_path, cp4):
    import json

    doc = to_interchange(cp4)
    doc["strata"] = [
        {**s, "parents": [p for p in s["parents"] if p != "w1-2"]}
        for s in doc["strata"]
        if s["id"] != "w1-2"
    ]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationFailed):
        load_xray(path)
    unchecked = load_xray(path, checked=False)
    assert len(unchecked.strata) == 15


def test_affine_equivariance(ncp4):
    a = ((1, 1), (0, 1))
    rows = tuple(
        tuple(sum(Fraction(a[i][k]) * Fraction(NCP4_ROWS[k][j]) for k in range(2)) for j in range(5))
        for i in range(2)
    )
    direct = cpn_xray(4, ProjectionMatrix(rows))
    mapped = transform(ncp4, a, (0, 0))
    assert direct == mapped


def test_affine_equivariance_generic(cp4):
    a = ((2, 1), (1, 1))
    rows = tuple(
        tuple(sum(Fraction(a[i][k]) * Fraction(CP4_ROWS[k][j]) for k in range(2)) for j in range(5))
        for i in range(2)
    )
    direct = cpn_xray(4, ProjectionMatrix(rows))
    mapped = transform(cp4, a, (0, 0))
    assert direct == mapped


def cpn_xray_all_subsets(n, pi):
    """Reference: cpn_xray by testing every one of the 2^(n+1) column subsets."""
    d = pi.d
    cols = [pi.column(j) for j in range(n + 1)]
    everyone = tuple(range(n + 1))
    subsets = [everyone]
    for size in range(1, n + 1):
        for K in combinations(range(n + 1), size):
            span = span_from_points([cols[k] for k in K])
            if span.dim >= d:
                continue
            if any(span.contains(cols[j]) for j in range(n + 1) if j not in K):
                continue
            subsets.append(K)

    def name(K):
        if K == everyone:
            return "top"
        if len(K) == 1:
            return f"v{K[0] + 1}"
        return "w" + "-".join(str(k + 1) for k in K)

    strata = []
    for K in subsets:
        vertex_data = None
        if len(K) == 1:
            weights = tuple(vsub(cols[j], cols[K[0]]) for j in range(n + 1) if j != K[0])
            vertex_data = VertexData(weights, 1, IntPolynomial.one(), 1)
        parents = tuple(name(P) for P in subsets if set(K) < set(P))
        strata.append(Stratum(name(K), hull([cols[k] for k in K]), parents, (), vertex_data))
    return WeightedXray(d, n, tuple(strata))


def test_cpn_flats_match_all_subsets():
    cases = [ProjectionMatrix(rows) for rows in (CP3_ROWS, CP4_ROWS, NCP4_ROWS)]
    cases += [seeded_rows(1, n, seed) for n in (6, 8) for seed in range(3)]
    cases += [seeded_rows(2, n, seed) for n in (4, 6) for seed in range(3)]
    cases += [seeded_rows(3, 5, seed) for seed in range(3)]
    cases += [seeded_rows(2, 5, seed, grid=3) for seed in range(12)]
    cases += [seeded_rows(3, 5, seed, grid=3) for seed in range(6)]
    for pi in cases:
        n = pi.cols - 1
        assert canonical_json(cpn_xray(n, pi)) == canonical_json(cpn_xray_all_subsets(n, pi))


def test_cpn_all_columns_on_one_line():
    pi = ProjectionMatrix(((0, 1, 2, 3), (1, 2, 3, 4)))
    x = cpn_xray(3, pi)
    assert set(x.ids) == {"top", "v1", "v2", "v3", "v4"}
    assert x.dim("top") == 1
    assert canonical_json(x) == canonical_json(cpn_xray_all_subsets(3, pi))


def test_cpn_span_count_is_polynomial(monkeypatch):
    """cpn_xray reduces one flat per column subset of size <= d (one
    `int_rref` of its column differences), not one per subset of all
    n + 1 columns."""
    calls = []
    int_rref = generators.int_rref

    def counting(rows):
        calls.append(rows)
        return int_rref(rows)

    monkeypatch.setattr(generators, "int_rref", counting)
    n = 12
    x = cpn_xray(n, ProjectionMatrix((tuple(range(n + 1)),)))
    assert len(x.strata) == n + 2
    assert len(calls) <= n + 1


# Seeded and grid CP^n inputs at d = 1-3, grids giving collinear and
# coplanar columns.
BUILD_CASES = [(1, 6, 0, None), (1, 5, 1, 6), (2, 6, 1, None), (2, 7, 3, 3), (3, 5, 0, None), (3, 6, 2, 2)]


@pytest.mark.parametrize(("d", "n", "seed", "grid"), BUILD_CASES)
def test_one_hull_per_stratum(monkeypatch, d, n, seed, grid):
    """`cpn_xray` and `from_interchange` each take one `hull` per stratum,
    points and segments included, however cheaply those are read off."""
    calls = []
    real = generators.hull

    def counting(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(generators, "hull", counting)
    monkeypatch.setattr(xray, "hull", counting)
    x = cpn_xray(n, seeded_rows(d, n, seed, grid=grid))
    assert len(calls) == len(x.strata)
    calls.clear()
    y = from_interchange(json.loads(canonical_json(x)))
    assert len(calls) == len(y.strata)
    assert canonical_json(y) == canonical_json(x)


@pytest.mark.parametrize(("d", "n", "seed", "grid"), BUILD_CASES)
def test_wall_containment_knows_shared_points_by_identity(monkeypatch, d, n, seed, grid):
    """`cpn_xray` and `from_interchange` hand each point to every wall on
    it as one tuple, which `hull` keeps, so `WeightedXray` tests a point
    against a parent's wall only when it is not one of the parent's
    vertices, and once per parent: `Polytope.holds` runs once per parent
    and distinct point of its children that is not its vertex.  A copied
    tuple would be tested again."""
    calls = []
    real = Polytope.holds

    def counting(self, scaled, den):
        calls.append(self)
        return real(self, scaled, den)

    def expected(x):
        total = 0
        for s in x.strata:
            points = {v for c in s.children for v in x.stratum(c).wall.vertices}
            total += len(points - set(s.wall.vertices))
        return total

    monkeypatch.setattr(Polytope, "holds", counting)
    x = cpn_xray(n, seeded_rows(d, n, seed, grid=grid))
    assert len(calls) == expected(x)
    calls.clear()
    y = from_interchange(json.loads(canonical_json(x)))
    assert len(calls) == expected(y)
