import pytest

from xraycross import engine
from xraycross.arrangement import EXTERIOR, crossing_graph, locate, subchambers
from xraycross.engine import (
    EULER,
    POINCARE,
    SIGNATURE,
    RecursiveInvariantSpec,
    check_dim4_positivity,
    check_parity,
    check_sig_equals_poincare_at_i,
    delzant_shortcut,
    propagate,
    serialize_table,
    w_euler,
    w_poincare,
    w_signature,
)
from xraycross.errors import PropagationError
from xraycross.intpoly import IntPolynomial
from xraycross.ratmath import as_vec
from xraycross.xray import from_interchange, to_interchange

DIAG = "w2-3-4-5"


def poly(*coeffs):
    return IntPolynomial(tuple(coeffs))


def test_w_signature_examples():
    assert w_signature(3, 0) == 1
    assert w_signature(2, 1) == -1
    assert w_signature(2, 2) == 0
    assert w_signature(0, 0) == 0
    assert w_signature(0, 3) == -1


def test_w_poincare_examples():
    assert w_poincare(3, 0) == poly(1, 0, 1, 0, 1)
    assert w_poincare(2, 1) == poly(0, 0, 1)
    assert w_poincare(1, 2) == poly(0, 0, -1)
    assert w_poincare(1, 1) == IntPolynomial.zero()
    assert w_poincare(1, 0) == IntPolynomial.one()


def test_w_euler_examples():
    assert w_euler(3, 0) == 3
    assert w_euler(2, 1) == 1
    for k in range(5):
        assert w_euler(k, k) == 0


def test_w_identities_through_ten():
    for f in range(11):
        for b in range(11):
            re, im = w_poincare(f, b).at_i()
            assert im == 0
            assert re == w_signature(f, b)
            assert w_poincare(f, b)(-1) == w_euler(f, b)


def test_w_antisymmetry():
    for f in range(11):
        for b in range(11):
            assert w_signature(f, b) == -w_signature(b, f)
            assert w_poincare(f, b) == -w_poincare(b, f)
            assert w_euler(f, b) == -w_euler(b, f)


def test_cp3_signature_chambers(cp3):
    table = propagate(cp3, SIGNATURE)
    assert [table.value("top", k) for k in range(3)] == [1, 0, 1]
    for vid in cp3.vertex_ids:
        assert table.value(vid, 0) == 1


def test_cp3_poincare_chambers(cp3):
    table = propagate(cp3, POINCARE)
    assert table.value("top", 0) == poly(1, 0, 1, 0, 1)
    assert table.value("top", 1) == poly(1, 0, 2, 0, 1)
    assert table.value("top", 2) == poly(1, 0, 1, 0, 1)


def test_cp3_euler_chambers(cp3):
    table = propagate(cp3, EULER)
    assert [table.value("top", k) for k in range(3)] == [3, 4, 3]


def test_ncp4_signature(ncp4):
    table = propagate(ncp4, SIGNATURE)
    a = locate(ncp4, DIAG, as_vec((3, 1))).index
    b = locate(ncp4, DIAG, as_vec((2, 2))).index
    c = locate(ncp4, DIAG, as_vec((1, 3))).index
    assert (table.value(DIAG, a), table.value(DIAG, b), table.value(DIAG, c)) == (1, 0, 1)
    alpha = locate(ncp4, "top", as_vec((2, "1/2"))).index
    beta = locate(ncp4, "top", as_vec(("3/2", "3/2"))).index
    gamma = locate(ncp4, "top", as_vec(("1/2", 2))).index
    assert (table.value("top", alpha), table.value("top", beta), table.value("top", gamma)) == (1, 0, 1)


def test_ncp4_poincare(ncp4):
    table = propagate(ncp4, POINCARE)
    cpn_like = poly(1, 0, 1, 0, 1)
    middle = poly(1, 0, 2, 0, 1)
    assert table.value(DIAG, 2) == cpn_like
    assert table.value(DIAG, 1) == middle
    assert table.value(DIAG, 0) == cpn_like
    assert table.value("top", 2) == cpn_like
    assert table.value("top", 1) == middle
    assert table.value("top", 0) == cpn_like


def test_cp4_signature_multiset_and_adjacency(cp4):
    table = propagate(cp4, SIGNATURE)
    values = {k: table.value("top", k) for k in range(7)}
    assert sorted(values.values()) == [-1, 0, 0, 0, 1, 1, 1]
    central = [k for k, v in values.items() if v == -1]
    assert len(central) == 1
    neighbors = set()
    for e in crossing_graph(cp4, "top").edges:
        if e.source == central[0]:
            neighbors.add(e.dest)
        elif e.dest == central[0]:
            neighbors.add(e.source)
    assert EXTERIOR not in neighbors
    assert len(neighbors) == 3
    assert all(values[k] == 0 for k in neighbors)
    outer = set(values) - neighbors - set(central)
    assert all(values[k] == 1 for k in outer)


def test_tables_cover_every_subchamber(ncp4):
    table = propagate(ncp4, SIGNATURE)
    for sid in ncp4.ids:
        for cell in subchambers(ncp4, sid):
            assert (sid, cell.index) in table.values


def test_path_independence_every_edge(cp4, ncp4):
    for x in (cp4, ncp4):
        for spec in (SIGNATURE, POINCARE, EULER):
            table = propagate(x, spec)
            for sid in x.ids:
                if x.dim(sid) == 0:
                    continue
                lower = {}
                for below in x.below(sid):
                    for cell in subchambers(x, below):
                        lower[(below, cell.index)] = table.value(below, cell.index)
                for e in crossing_graph(x, sid).edges:
                    total = spec.zero()
                    for s in e.separators:
                        total = total + spec.wall_cross(s.f, s.b) * lower[(s.g, s.r)]
                    left = spec.zero() if e.source == EXTERIOR else table.value(sid, e.source)
                    right = spec.zero() if e.dest == EXTERIOR else table.value(sid, e.dest)
                    assert right - left == total


def test_delzant_shortcut_generic(cp4):
    sig = propagate(cp4, SIGNATURE)
    poin = propagate(cp4, POINCARE)
    eul = propagate(cp4, EULER)
    report = delzant_shortcut(cp4, sig, poin, eul)
    assert report.passed
    edge_lines = [l for l in report.lines if l.name.startswith("delzant w")]
    assert len(edge_lines) == 30


def test_delzant_shortcut_skips_diagonal(ncp4):
    sig = propagate(ncp4, SIGNATURE)
    report = delzant_shortcut(ncp4, sig)
    assert report.passed
    assert any(l.name.startswith("delzant w1-") for l in report.lines)
    assert not any(DIAG in l.name for l in report.lines)


def test_delzant_shortcut_toric(toric_triangle, unit_square):
    for x in (toric_triangle, unit_square):
        report = delzant_shortcut(
            x, propagate(x, SIGNATURE), propagate(x, POINCARE), propagate(x, EULER)
        )
        assert report.passed
        names = {l.name for l in report.lines}
        assert f"delzant {x.top_id}/0 signature" in names


def test_gaussian_check_passes(cp3, cp4, ncp4):
    for x in (cp3, cp4, ncp4):
        report = check_sig_equals_poincare_at_i(
            x, propagate(x, SIGNATURE), propagate(x, POINCARE)
        )
        assert report.passed
        assert len(report.lines) > 1


def test_gaussian_check_hypothesis_short_circuit(cp3):
    doc = to_interchange(cp3)
    doc["vertex_data"]["v1"]["signature"] = 2
    doc["vertex_data"]["v1"]["euler"] = 2
    broken = from_interchange(doc)
    report = check_sig_equals_poincare_at_i(broken, None, None)
    assert not report.passed
    assert len(report.lines) == 1
    assert "hypothesis not met" in report.lines[0].detail


def test_parity_check(cp3, cp4, ncp4):
    for x in (cp3, cp4, ncp4):
        report = check_parity(x, propagate(x, SIGNATURE), propagate(x, EULER))
        assert report.passed


def test_parity_hypothesis_short_circuit(cp3):
    doc = to_interchange(cp3)
    doc["vertex_data"]["v2"]["signature"] = 2
    broken = from_interchange(doc)
    report = check_parity(broken, None, None)
    assert not report.passed
    assert "different parity" in report.lines[0].detail


def test_dim4_check_cp3(cp3):
    report = check_dim4_positivity(cp3, propagate(cp3, POINCARE), propagate(cp3, SIGNATURE))
    assert report.passed
    details = {l.name: l.detail for l in report.lines}
    assert details["dim4 top/0"] == "b1 0, b2 1, signature 1, p = 1"
    assert details["dim4 top/1"] == "b1 0, b2 2, signature 0, p = 1"
    assert details["dim4 top/2"] == "b1 0, b2 1, signature 1, p = 1"


def test_dim4_check_ncp4_diagonal(ncp4):
    report = check_dim4_positivity(ncp4, propagate(ncp4, POINCARE), propagate(ncp4, SIGNATURE))
    assert report.passed
    names = {l.name for l in report.lines}
    assert f"dim4 {DIAG}/1" in names
    line = next(l for l in report.lines if l.name == f"dim4 {DIAG}/1")
    assert "b2 2, signature 0, p = 1" in line.detail


def test_propagation_detects_inconsistent_seeds(cp3):
    doc = to_interchange(cp3)
    doc["vertex_data"]["v1"]["signature"] = 2
    broken = from_interchange(doc)
    with pytest.raises(PropagationError, match="path-dependent"):
        propagate(broken, SIGNATURE)


def test_custom_invariant_spec(cp3):
    clone = RecursiveInvariantSpec(
        name="euler-clone",
        ring="INTEGER",
        wall_cross=lambda f, b: f - b,
        seed=lambda vd: vd.seed_euler,
    )
    assert propagate(cp3, clone).values == propagate(cp3, EULER).values


def test_serialize_table(cp3):
    rows = serialize_table(cp3, propagate(cp3, POINCARE))
    assert {"stratum", "subchamber", "rep", "value"} <= set(rows[0])
    top_rows = [r for r in rows if r["stratum"] == "top"]
    assert top_rows[0]["rep"] == ["1/2"]
    assert top_rows[0]["value"] == [1, 0, 1, 0, 1]
    vertex_rows = [r for r in rows if r["stratum"] == "v1"]
    assert vertex_rows[0]["value"] == [1]


def backward_tree_edges(graph):
    """Tree edges of a breadth-first walk from the exterior, each node's
    neighbours taken in node order, that the walk crosses from dest to
    source."""
    neighbours = {node: [] for node in graph.nodes}
    for e in graph.edges:
        neighbours[e.source].append((e.dest, 0))
        neighbours[e.dest].append((e.source, 1))
    seen = {EXTERIOR}
    frontier = [EXTERIOR]
    backward = 0
    for node in frontier:
        for other, against in sorted(neighbours[node], key=lambda n: n[0]):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
                backward += against
    return backward


@pytest.mark.parametrize("name", ["cp3", "cp4", "ncp4"])
def test_propagate_computes_each_crossing_once(monkeypatch, request, name):
    """One crossing sum per edge, plus one per tree edge crossed
    backward: a tree edge crossed forward is not recomputed by the cycle
    check."""
    x = request.getfixturevalue(name)
    graphs = [crossing_graph(x, sid) for sid in x.ids if x.dim(sid) > 0]
    expected = sum(len(g.edges) + backward_tree_edges(g) for g in graphs)
    assert expected < sum(len(g.edges) + len(g.nodes) - 1 for g in graphs)
    calls = []
    delta = engine._edge_delta

    def counting(*args):
        calls.append(args)
        return delta(*args)

    monkeypatch.setattr(engine, "_edge_delta", counting)
    for spec in (SIGNATURE, POINCARE, EULER):
        calls.clear()
        propagate(x, spec)
        assert len(calls) == expected


@pytest.mark.parametrize(
    ("name", "message"),
    [
        ("cp4", "wall 'top': lopsided is path-dependent between chambers 0 and 1: difference -2, crossing sum 1"),
        ("ncp4", f"wall '{DIAG}': lopsided is path-dependent between chambers 1 and 2: difference -2, crossing sum 1"),
    ],
)
def test_one_sided_crossing_is_path_dependent(request, name, message):
    """A crossing function that is not antisymmetric, w(f, b) = f, gives
    each edge a different sum in its two directions; the cycle check
    names the first edge whose sum disagrees with the walk."""
    x = request.getfixturevalue(name)
    lopsided = RecursiveInvariantSpec("lopsided", "INTEGER", lambda f, b: f, lambda vd: vd.seed_signature)
    with pytest.raises(PropagationError) as err:
        propagate(x, lopsided)
    assert str(err.value) == message
