from collections import Counter, deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xraycross import engine
from xraycross.arrangement import EXTERIOR, crossing_graph, locate, subchambers
from xraycross.circle import cross_check, wall_cross_delta
from xraycross.engine import (
    EULER,
    POINCARE,
    SIGNATURE,
    CheckLine,
    RecursiveInvariantSpec,
    Report,
    check_dim4_positivity,
    check_parity,
    check_seeds,
    check_sig_equals_poincare_at_i,
    delzant_shortcut,
    propagate,
    serialize_table,
    w_euler,
    w_poincare,
    w_signature,
)
from xraycross.errors import PropagationError
from xraycross.generators import cpn_xray
from xraycross.intpoly import IntPolynomial
from xraycross.ratmath import as_vec, format_point, format_rational
from xraycross.xray import from_interchange, to_interchange
from conftest import edge_by_scan, edge_circle, seeded_rows

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
    report = delzant_shortcut(ncp4, sig, propagate(ncp4, POINCARE), propagate(ncp4, EULER))
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


SEED_BREAKS = {
    "signature": (2, {
        "signature = P(i)": "hypothesis not met: vertex 'v2' has seed signature 2 but seed P(i) = 1+0i",
        "parity": "hypothesis not met: vertex 'v2' has seeds 2 and 1 of different parity",
        "dimension-4 positivity": "hypothesis not met: vertex 'v2' seeds are not all 1",
    }),
    "euler": (2, {
        "signature = P(i)": None,
        "parity": "hypothesis not met: vertex 'v2' has seeds 1 and 2 of different parity",
        "dimension-4 positivity": "hypothesis not met: vertex 'v2' seeds are not all 1",
    }),
    "poincare": ([1, 1], {
        "signature = P(i)": "hypothesis not met: vertex 'v2' has seed signature 1 but seed P(i) = 1+1i",
        "parity": None,
        "dimension-4 positivity": "hypothesis not met: vertex 'v2' seeds are not all 1",
    }),
}


@pytest.mark.parametrize("name", ["cp3", "ncp4"])
@pytest.mark.parametrize("seed", sorted(SEED_BREAKS))
def test_hypothesis_lines_in_full(request, name, seed):
    """With v2's seed broken, each identity check whose hypothesis fails
    is the one line (title, "hypothesis", False, detail) in full; a check
    whose hypothesis still holds reports exactly as on the intact X-ray,
    since the tables it reads are unchanged."""
    x = request.getfixturevalue(name)
    value, expected = SEED_BREAKS[seed]
    doc = to_interchange(x)
    doc["vertex_data"]["v2"][seed] = value
    broken = from_interchange(doc)

    def reports(y):
        def table(spec):
            try:
                return propagate(y, spec)
            except PropagationError:
                return None

        sig, poin, euler = (table(spec) for spec in (SIGNATURE, POINCARE, EULER))
        return (
            check_sig_equals_poincare_at_i(y, sig, poin),
            check_parity(y, sig, euler),
            check_dim4_positivity(y, poin, sig),
        )

    for report, intact in zip(reports(broken), reports(x)):
        detail = expected[report.title]
        if detail is None:
            assert report == intact and report.passed
        else:
            assert [(report.title, l.name, l.passed, l.detail) for l in report.lines] == [
                (report.title, "hypothesis", False, detail)
            ]


@pytest.mark.parametrize("seed", sorted(SEED_BREAKS))
def test_failing_seed_gate_reports_afresh_on_every_call(cp3, seed):
    """The seed-hypothesis scan is made once per X-ray, but a failing
    gate still returns a new one-line report on each call: two calls
    give equal reports that are distinct objects, as are their lines
    and line tuples."""
    value, expected = SEED_BREAKS[seed]
    doc = to_interchange(cp3)
    doc["vertex_data"]["v2"][seed] = value
    broken = from_interchange(doc)
    checks = {
        "signature = P(i)": lambda: check_sig_equals_poincare_at_i(broken, None, None),
        "parity": lambda: check_parity(broken, None, None),
        "dimension-4 positivity": lambda: check_dim4_positivity(broken, None, None),
    }
    failing = 0
    for title, check in checks.items():
        if expected[title] is None:
            continue
        first, second = check(), check()
        want = Report(title, (CheckLine("hypothesis", False, expected[title]),))
        assert first == second == want
        assert first is not second and first.lines is not second.lines
        assert first.lines[0] is not second.lines[0]
        failing += 1
    assert failing >= 2


FIXTURES = ["cp3", "cp4", "ncp4", "toric_triangle", "unit_square"]
IDENTITY_NAMES = ["signature = P(i)", "euler = P(-1)", "signature = euler (mod 2)"]


@pytest.mark.parametrize("name", FIXTURES)
def test_check_seeds_lines(request, name):
    """Three lines per vertex, in vertex order, all passing on the fixtures."""
    x = request.getfixturevalue(name)
    report = check_seeds(x)
    assert len(report.lines) == 3 * len(x.vertex_ids)
    assert [l.name for l in report.lines] == [f"seed {v}: {i}" for v in x.vertex_ids for i in IDENTITY_NAMES]
    assert report.passed


@pytest.mark.parametrize("seed", sorted(SEED_BREAKS))
def test_check_seeds_names_what_breaks(cp3, seed):
    """With v2's seed broken, exactly the identities it breaks fail, with
    the values shown; a gated check fails just when its identity does."""
    doc = to_interchange(cp3)
    doc["vertex_data"]["v2"][seed] = SEED_BREAKS[seed][0]
    broken = from_interchange(doc)
    failed = {l.name: l.detail for l in check_seeds(broken).lines if not l.passed}
    assert failed == {
        "signature": {
            "seed v2: signature = P(i)": "signature 2, P(i) = 1+0i",
            "seed v2: signature = euler (mod 2)": "signature 2, euler 1",
        },
        "euler": {
            "seed v2: euler = P(-1)": "euler 2, P(-1) = 1",
            "seed v2: signature = euler (mod 2)": "signature 1, euler 2",
        },
        "poincare": {
            "seed v2: signature = P(i)": "signature 1, P(i) = 1+1i",
            "seed v2: euler = P(-1)": "euler 1, P(-1) = 0",
        },
    }[seed]
    gates = SEED_BREAKS[seed][1]
    assert ("seed v2: signature = P(i)" in failed) == (gates["signature = P(i)"] is not None)
    assert ("seed v2: signature = euler (mod 2)" in failed) == (gates["parity"] is not None)


@pytest.mark.parametrize("name", FIXTURES)
def test_table_check_lines_in_full(request, name):
    """Every per-entry line of both table checks, against the identities
    written out here, including entries that fail: the tables are
    shifted so that some values break each identity."""
    x = request.getfixturevalue(name)
    sig, poin, euler = (propagate(x, spec) for spec in (SIGNATURE, POINCARE, EULER))
    keys = sorted(sig.values)
    shifted = engine.InvariantTable("signature", sig.fingerprint, {k: sig.values[k] + i % 3 for i, k in enumerate(keys)})
    for s in (sig, shifted):
        expected = []
        for sid, c in keys:
            p = poin.value(sid, c)
            re = sum(p.coefficient(k) * (1, 0, -1, 0)[k % 4] for k in range(p.degree + 1))
            im = sum(p.coefficient(k) * (0, 1, 0, -1)[k % 4] for k in range(p.degree + 1))
            value = s.value(sid, c)
            expected.append((f"P(i) {sid}/{c}", re == value and im == 0, f"signature {value}, P(i) = {re}{im:+}i"))
        report = check_sig_equals_poincare_at_i(x, s, poin)
        assert [(l.name, l.passed, l.detail) for l in report.lines] == expected
        expected = [
            (f"parity {sid}/{c}", (s.value(sid, c) + euler.value(sid, c)) % 2 == 0,
             f"signature {s.value(sid, c)}, euler {euler.value(sid, c)}")
            for sid, c in keys
        ]
        report = check_parity(x, s, euler)
        assert [(l.name, l.passed, l.detail) for l in report.lines] == expected
    assert not check_parity(x, shifted, euler).passed
    assert not check_sig_equals_poincare_at_i(x, shifted, poin).passed


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


@pytest.mark.parametrize("name", ["cp4", "ncp4"])
def test_serialize_table_reads_each_stratum_once(name, request, monkeypatch):
    """One subchambers lookup per stratum on an X-ray's first table, and
    none on later ones: the reps are formatted once per X-ray, and each
    row still gets its own rep list."""
    x = fresh(request.getfixturevalue(name))
    table = propagate(x, SIGNATURE)
    expected = [
        {"stratum": sid, "subchamber": c, "rep": [format_rational(v) for v in subchambers(x, sid)[c].rep], "value": table.value(sid, c)}
        for sid, c in sorted(table.values)
    ]
    calls = []

    def counting(x, sid):
        calls.append(sid)
        return subchambers(x, sid)

    monkeypatch.setattr(engine, "subchambers", counting)
    first = serialize_table(x, table)
    assert first == expected
    assert sorted(calls) == sorted(set(x.ids))
    calls.clear()
    first[0]["rep"].append("changed")
    again = serialize_table(x, propagate(x, EULER))
    assert calls == []
    assert [row["rep"] for row in again] == [row["rep"] for row in expected]
    assert len({id(row["rep"]) for row in again}) == len(again)


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


def fresh(x):
    """A copy of x with no cached geometry or plan."""
    return from_interchange(to_interchange(x))


LOPSIDED = RecursiveInvariantSpec("lopsided", "INTEGER", lambda f, b: f, lambda vd: vd.seed_signature)


def reference_edge_delta(spec, values, edge, backward):
    """The change in spec's value crossing edge, from source to dest, or
    from dest to source when backward, one separator at a time."""
    total = spec.zero()
    for sep in edge.separators:
        try:
            lower = values[(sep.g, sep.r)]
        except KeyError:
            raise PropagationError(f"missing lower value for subchamber {sep.r} of '{sep.g}'") from None
        cross = spec.wall_cross(sep.b, sep.f) if backward else spec.wall_cross(sep.f, sep.b)
        total = total + cross * lower
    return total


def reference_propagate(x, spec):
    """propagate with nothing compiled: each wall's breadth-first walk is
    taken from its crossing graph on every call, and every crossing sum
    is taken from the edge's separators."""
    values = {}
    for sid in sorted(x.ids, key=lambda s: (x.dim(s), s)):
        if x.dim(sid) == 0:
            values[(sid, 0)] = spec.seed(x.stratum(sid).vertex_data)
            continue
        graph = crossing_graph(x, sid)
        oriented = {node: [] for node in graph.nodes}
        for i, edge in enumerate(graph.edges):
            oriented[edge.source].append((edge.dest, i, False))
            oriented[edge.dest].append((edge.source, i, True))
        level = {EXTERIOR: spec.zero()}
        crossed = set()
        queue = deque([EXTERIOR])
        while queue:
            node = queue.popleft()
            for dest, i, backward in sorted(oriented[node], key=lambda step: step[0]):
                if dest not in level:
                    level[dest] = level[node] + reference_edge_delta(spec, values, graph.edges[i], backward)
                    if not backward:
                        crossed.add(i)
                    queue.append(dest)
        unreached = [node for node in graph.nodes if node not in level]
        if unreached:
            raise PropagationError(f"wall '{sid}': subchambers {unreached} unreachable from the exterior")
        for i, edge in enumerate(graph.edges):
            if i in crossed:
                continue
            observed = level[edge.dest] - level[edge.source]
            expected = reference_edge_delta(spec, values, edge, False)
            if observed != expected:
                raise PropagationError(
                    f"wall '{sid}': {spec.name} is path-dependent between chambers "
                    f"{edge.source} and {edge.dest}: difference {observed}, crossing sum {expected}"
                )
        for node in sorted(level):
            if node != EXTERIOR:
                values[(sid, node)] = level[node]
    return engine.InvariantTable(spec.name, x.fingerprint(), values)


def reference_serialize_table(x, table):
    """serialize_table formatting each row's rep anew."""
    return [
        {
            "stratum": sid,
            "subchamber": c,
            "rep": [format_rational(v) for v in subchambers(x, sid)[c].rep],
            "value": list(value.coeffs) if isinstance(value, IntPolynomial) else value,
        }
        for (sid, c), value in sorted(table.values.items())
    ]


def reference_cross_check(x, f, sig, poin):
    """cross_check with each d >= 2 edge's circle built from the edge the
    crossing-graph scan finds for its endpoints and facet."""
    if x.torus_rank == 1:
        return cross_check(x, f, sig, poin)

    def at(table, node, zero):
        return zero if node == EXTERIOR else table.value(f, node)

    lines = []
    for edge in crossing_graph(x, f).edges:
        data = edge_circle(edge_by_scan(x, f, edge.source, edge.dest, edge.facet_rep), sig, poin)
        name = f"edge {edge.source}->{edge.dest} at {format_point(edge.facet_rep)}"
        for kind, table, ring, zero in (
            ("signature", sig, engine.INTEGER, 0),
            ("poincare", poin, engine.INT_POLYNOMIAL, IntPolynomial.zero()),
        ):
            want = at(table, edge.dest, zero) - at(table, edge.source, zero)
            got = wall_cross_delta(data, 0, ring)
            lines.append(CheckLine(f"{name} {kind} delta", want == got, f"engine {want}, circle {got}"))
    return Report("circle oracle", tuple(lines))


def outcome(propagator, x, spec):
    try:
        return propagator(x, spec)
    except PropagationError as e:
        return str(e)


def assert_matches_reference(x):
    """Tables (values and their order), serialized rows and circle-oracle
    reports of the compiled engine equal the reference's, and the
    lopsided spec gives the same table or fails with the same message."""
    tables = {}
    for spec in (SIGNATURE, POINCARE, EULER, LOPSIDED):
        got, want = outcome(propagate, x, spec), outcome(reference_propagate, x, spec)
        assert got == want, spec.name
        if isinstance(got, str):
            continue
        assert list(got.values.items()) == list(want.values.items())
        assert serialize_table(x, got) == reference_serialize_table(x, want)
        tables[spec.name] = (got, want)
    (sig, ref_sig), (poin, ref_poin) = tables["signature"], tables["poincare"]
    walls = [x.top_id] if x.torus_rank == 1 else [f for f in x.ids if x.dim(f) > 0]
    for f in walls:
        assert cross_check(x, f, sig, poin) == reference_cross_check(x, f, ref_sig, ref_poin)


@pytest.mark.parametrize("name", ["cp3", "cp4", "ncp4", "toric_triangle", "unit_square", "segment"])
def test_engine_matches_reference_on_fixtures(request, name):
    assert_matches_reference(request.getfixturevalue(name))


@st.composite
def cpn_inputs(draw):
    """(d, n, seed, grid) of a seeded CP^n projection at d in {1, 2, 3},
    on a small grid or not."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=d + 1, max_value={1: 6, 2: 5, 3: 5}[d]))
    grid = draw(st.sampled_from([None] + [g for g in (2, 3, 6) if (g + 1) ** d >= n + 1]))
    return d, n, draw(st.integers(min_value=0, max_value=10**6)), grid


@settings(deadline=None, max_examples=25)
@given(cpn_inputs())
def test_engine_matches_reference_on_seeded_cpn(args):
    d, n, seed, grid = args
    assert_matches_reference(cpn_xray(n, seeded_rows(d, n, seed, grid=grid)))


@pytest.mark.parametrize("name", ["cp3", "cp4", "ncp4", "seeded3"])
def test_propagation_plan_is_built_once_per_xray(monkeypatch, request, name):
    """Every spec walks one plan per X-ray: the first propagate reads
    each wall's crossing graph once, and later ones, with any spec,
    read none and find the same plan.  The plan holds each oriented
    (f, b) its terms cross once, and a spec computes w(f, b) exactly
    once per such pair, on its first call on the X-ray, and never
    again.  No per-spec copy of the plan is kept."""
    x = fresh(cpn_xray(4, seeded_rows(3, 4, 0)) if name == "seeded3" else request.getfixturevalue(name))
    graphs = []

    def counting_graph(y, f):
        graphs.append(f)
        return crossing_graph(y, f)

    monkeypatch.setattr(engine, "crossing_graph", counting_graph)
    propagate(x, SIGNATURE)
    assert sorted(graphs) == sorted(f for f in x.ids if x.dim(f) > 0)
    graphs.clear()
    plan = engine._plan(x)
    pairs = plan.pairs
    assert pairs and len(set(pairs)) == len(pairs)
    used = {
        pairs[i]
        for _, wall in plan.strata
        if wall is not None
        for edges in (wall.steps, wall.recheck)
        for _, _, terms in edges
        for _, i in terms
    }
    assert used == set(pairs)
    # every edge is crossed forward by the walk or by the cycle check
    forward = {(s.f, s.b) for f in x.ids if x.dim(f) for e in crossing_graph(x, f).edges for s in e.separators}
    assert forward <= used <= forward | {(b, f) for f, b in forward}

    def counting_clone(crossings):
        def cross(f, b):
            crossings[(f, b)] += 1
            return f - b

        return RecursiveInvariantSpec("euler-clone", "INTEGER", cross, lambda vd: vd.seed_euler)

    counts = (Counter(), Counter())
    clones = tuple(counting_clone(c) for c in counts)
    for spec in (POINCARE, EULER):
        propagate(x, spec)
    tables = [propagate(x, spec).values for _ in range(2) for spec in clones]
    assert all(c == Counter(dict.fromkeys(pairs, 1)) for c in counts)
    assert all(t == propagate(x, EULER).values for t in tables)
    assert engine._plan(x) is plan and graphs == []
    assert not any(isinstance(key, tuple) and key[0] == "spec plan" for key in x._cache)


@pytest.mark.parametrize("name", FIXTURES)
def test_tables_with_other_keys_are_read_as_they_stand(request, name):
    """A table whose key set differs from the X-ray's, here a copy with
    one entry dropped, is sorted as it stands: its check lines and rows
    are those of the full table without the dropped entry's.  A copy
    with every key, inserted in reverse order, reads the X-ray's cached
    order and gives the full table's lines and rows."""
    x = fresh(request.getfixturevalue(name))
    sig, poin, euler = (propagate(x, spec) for spec in (SIGNATURE, POINCARE, EULER))
    keys = sorted(sig.values)
    full = (
        check_parity(x, sig, euler).lines,
        check_sig_equals_poincare_at_i(x, sig, poin).lines,
        serialize_table(x, sig),
    )
    for gone in (keys[0], keys[len(keys) // 2], keys[-1]):
        dropped = replace(sig, values={k: v for k, v in sig.values.items() if k != gone})
        sid, c = gone
        assert check_parity(x, dropped, euler).lines == tuple(l for l in full[0] if l.name != f"parity {sid}/{c}")
        assert check_sig_equals_poincare_at_i(x, dropped, poin).lines == tuple(
            l for l in full[1] if l.name != f"P(i) {sid}/{c}"
        )
        rows = serialize_table(x, dropped)
        assert rows == [r for r in full[2] if (r["stratum"], r["subchamber"]) != gone]
        assert rows == reference_serialize_table(x, dropped)
    backward = replace(sig, values={k: sig.values[k] for k in reversed(keys)})
    assert check_parity(x, backward, euler).lines == full[0]
    assert check_sig_equals_poincare_at_i(x, backward, poin).lines == full[1]
    assert serialize_table(x, backward) == full[2] == reference_serialize_table(x, sig)


@pytest.mark.parametrize(
    ("name", "message"),
    [
        ("cp4", "wall 'top': lopsided is path-dependent between chambers 0 and 1: difference -2, crossing sum 1"),
        ("ncp4", f"wall '{DIAG}': lopsided is path-dependent between chambers 1 and 2: difference -2, crossing sum 1"),
    ],
)
def test_lopsided_after_other_specs_keeps_its_message(request, name, message):
    """Each spec keeps crossing coefficients of its own beside the shared
    plan: a spec run after SIGNATURE (and again after that) fails with
    the same message as on its own."""
    x = fresh(request.getfixturevalue(name))
    propagate(x, SIGNATURE)
    for _ in range(2):
        with pytest.raises(PropagationError) as err:
            propagate(x, LOPSIDED)
        assert str(err.value) == message
    assert propagate(x, SIGNATURE).values == propagate(fresh(x), SIGNATURE).values


def test_check_line_contract(cp4):
    """A check line keeps its record contract: the same three attribute
    names, `detail` defaulting to "", a dataclass-style repr, no
    assignment, and the lines a check builds equal, with the same hash,
    to lines built by the constructor."""
    line = CheckLine("P(i) top/0", True, "signature 1, P(i) = 1+0i")
    assert repr(line) == "CheckLine(name='P(i) top/0', passed=True, detail='signature 1, P(i) = 1+0i')"
    assert (line.name, line.passed, line.detail) == ("P(i) top/0", True, "signature 1, P(i) = 1+0i")
    assert CheckLine._fields == ("name", "passed", "detail")
    assert CheckLine("x", False).detail == ""
    assert CheckLine("x", False) == CheckLine("x", False, "")
    assert not hasattr(line, "__dict__")
    for field in CheckLine._fields:
        with pytest.raises(AttributeError):
            setattr(line, field, None)
    x = fresh(cp4)
    sig, poin, euler = (propagate(x, spec) for spec in (SIGNATURE, POINCARE, EULER))
    lines = check_parity(x, sig, euler).lines + check_sig_equals_poincare_at_i(x, sig, poin).lines
    assert lines
    for line in lines:
        assert type(line) is CheckLine
        built = CheckLine(line.name, line.passed, line.detail)
        assert line == built and hash(line) == hash(built) and repr(line) == repr(built)


@pytest.mark.parametrize("name", ["cp3", "cp4", "ncp4", "seeded3"])
def test_rechecked_edges_counts_the_cycle_check(request, name):
    """rechecked_edges is the number of edges the walk does not cross
    forward: every edge but the tree edges crossed from source to dest."""
    x = cpn_xray(4, seeded_rows(3, 4, 0)) if name == "seeded3" else request.getfixturevalue(name)
    graphs = [crossing_graph(x, sid) for sid in x.ids if x.dim(sid) > 0]
    assert engine.rechecked_edges(x) == sum(len(g.edges) - (len(g.nodes) - 1) + backward_tree_edges(g) for g in graphs)


@pytest.mark.parametrize("name", ["cp4", "ncp4"])
def test_missing_lower_value_raises_where_the_walk_meets_it(monkeypatch, request, name):
    """A separator naming a subchamber that does not exist, one
    separator of the top wall at a time, fails propagate with the
    reference walk's error: the missing value where the walk first
    looks it up, even where its w(f, b) is 0 (as for every term of
    `flat`), or the path-dependence the cycle check finds before that."""
    x = request.getfixturevalue(name)
    real = crossing_graph
    graph = real(x, x.top_id)
    flat = RecursiveInvariantSpec("flat", "INTEGER", lambda f, b: 0, lambda vd: vd.seed_signature)
    messages = set()
    for i, j in ((i, j) for i, edge in enumerate(graph.edges) for j in range(len(edge.separators))):
        edge = graph.edges[i]
        seps = edge.separators
        bad = replace(edge, separators=seps[:j] + (replace(seps[j], r=99),) + seps[j + 1 :])
        broken = replace(graph, edges=graph.edges[:i] + (bad,) + graph.edges[i + 1 :])

        def patched(y, f, broken=broken):
            return broken if f == x.top_id else real(y, f)

        y = fresh(x)
        with monkeypatch.context() as m:
            m.setattr(engine, "crossing_graph", patched)
            m.setitem(globals(), "crossing_graph", patched)
            for spec in (SIGNATURE, POINCARE, EULER, LOPSIDED, flat):
                got, want = outcome(propagate, y, spec), outcome(reference_propagate, y, spec)
                assert isinstance(got, str) and got == want, (i, j, spec.name)
                messages.add(got)
    assert any(m.startswith("missing lower value for subchamber 99 of") for m in messages)
    assert any("path-dependent" in m for m in messages)


def test_checks_on_an_unpropagated_xray_build_no_geometry(monkeypatch, cp4):
    """Tables propagated on one copy of an X-ray, checked on a fresh copy
    that was never propagated, give the same lines and build no crossing
    graph or plan on it."""
    sig, poin, euler = (propagate(cp4, spec) for spec in (SIGNATURE, POINCARE, EULER))
    want = (check_parity(cp4, sig, euler), check_sig_equals_poincare_at_i(cp4, sig, poin))
    x = fresh(cp4)
    calls = []
    monkeypatch.setattr(engine, "crossing_graph", lambda y, f: calls.append(f))
    assert (check_parity(x, sig, euler), check_sig_equals_poincare_at_i(x, sig, poin)) == want
    assert calls == [] and "propagation plan" not in x._cache
