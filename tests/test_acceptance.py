"""Acceptance checks: one test per criterion, each printing PASS or FAIL.

Every value here is exact; there are no tolerances anywhere.  The
random rank-1 family pairs each fixed component with a sign-reversed
partner carrying the same seeds, which is what makes an arbitrary draw
close up around the exterior the way a compact manifold's X-ray must.
"""

import time
from fractions import Fraction
from random import Random

import pytest

from xraycross.arrangement import EXTERIOR, crossing_graph, locate, subchambers
from xraycross.circle import (
    from_rank1_xray,
    poincare_regular,
    signature_regular,
    signature_singular,
)
from xraycross.engine import (
    EULER,
    POINCARE,
    SIGNATURE,
    check_dim4_positivity,
    check_parity,
    delzant_shortcut,
    propagate,
    w_euler,
    w_poincare,
    w_signature,
)
from xraycross.exactgeom import hull, side_functional
from xraycross.intpoly import IntPolynomial
from xraycross.ratmath import as_vec
from xraycross.xray import Stratum, VertexData, WeightedXray, validate_all
from conftest import transform, vertices_below
from test_ratmath import lin_contains, sign

DIAG = "w2-3-4-5"
P_CPN = IntPolynomial((1, 0, 1, 0, 1))
P_MID = IntPolynomial((1, 0, 2, 0, 1))


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{label}{': ' + detail if detail else ''}"


def mirrored_rank1(rng: Random) -> WeightedXray:
    """Random valid rank-1 X-ray built from sign-mirrored component pairs."""
    pairs = rng.randint(1, 3)
    n = rng.randint(2, 4)
    levels: set[Fraction] = set()
    while len(levels) < 2 * pairs:
        levels.add(Fraction(rng.randint(-24, 24), rng.randint(1, 4)))
    ordered = sorted(levels)
    interior = ordered[1:-1]
    rng.shuffle(interior)

    placements: list[tuple[Fraction, tuple[int, ...], dict]] = []
    for j in range(pairs):
        if j == 0:
            signs = [1] + [rng.choice((1, 1, 0)) for _ in range(n - 1)]
            at, mirror_at = ordered[0], ordered[-1]
        else:
            signs = [1, -1] + [rng.choice((1, -1, 0)) for _ in range(n - 2)]
            at, mirror_at = interior.pop(), interior.pop()
        weights = tuple(s * rng.randint(1, 4) for s in signs)
        seeds = dict(
            seed_signature=rng.randint(-5, 5),
            seed_poincare=IntPolynomial(
                tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
            ),
            seed_euler=rng.randint(-5, 5),
        )
        placements.append((at, weights, seeds))
        placements.append((mirror_at, tuple(-w for w in weights), seeds))

    placements.sort(key=lambda t: t[0])
    strata = [
        Stratum(
            f"v{i + 1}",
            hull([as_vec((at,))]),
            ("top",),
            (),
            VertexData(tuple(as_vec((w,)) for w in weights), **seeds),
        )
        for i, (at, weights, seeds) in enumerate(placements)
    ]
    strata.append(Stratum("top", hull([as_vec((ordered[0],)), as_vec((ordered[-1],))])))
    return WeightedXray(1, n, tuple(strata))


@pytest.fixture(scope="module")
def rank1_family():
    rng = Random(20260816)
    family = []
    for _ in range(50):
        x = mirrored_rank1(rng)
        assert validate_all(x) == []
        family.append((x, from_rank1_xray(x)))
    return family


def test_criterion_1_cp3_circle_values(cp3):
    sig = propagate(cp3, SIGNATURE)
    poin = propagate(cp3, POINCARE)
    sigs = tuple(sig.value("top", i) for i in range(3))
    poins = tuple(poin.value("top", i) for i in range(3))
    ok = sigs == (1, 0, 1) and poins == (P_CPN, P_MID, P_CPN)
    _verdict("criterion 1 circle cp3 chamber values", ok, f"sig {sigs}, poincare {poins}")


def test_criterion_2_generic_cp4_multiset_and_adjacency(cp4):
    sig = propagate(cp4, SIGNATURE)
    cells = subchambers(cp4, "top")
    values = {cell.index: sig.value("top", cell.index) for cell in cells}
    multiset_ok = len(cells) == 7 and sorted(values.values()) == [-1, 0, 0, 0, 1, 1, 1]

    neighbors: dict[int, set] = {cell.index: set() for cell in cells}
    for e in crossing_graph(cp4, "top").edges:
        if e.source != EXTERIOR:
            neighbors[e.source].add(e.dest)
        if e.dest != EXTERIOR:
            neighbors[e.dest].add(e.source)
    center = [i for i, v in values.items() if v == -1]
    adjacency_ok = len(center) == 1
    if adjacency_ok:
        ring = {j for j in neighbors[center[0]] if j != EXTERIOR}
        outer = set(values) - ring - set(center)
        adjacency_ok = (
            len(ring) == 3
            and all(values[j] == 0 for j in ring)
            and len(outer) == 3
            and all(values[j] == 1 for j in outer)
            and all(EXTERIOR in neighbors[j] for j in outer)
        )
    _verdict(
        "criterion 2 generic cp4 signature multiset and adjacency",
        multiset_ok and adjacency_ok,
        f"values {values}",
    )


def test_criterion_3_nongeneric_cp4_worked_example(ncp4):
    sig = propagate(ncp4, SIGNATURE)
    poin = propagate(ncp4, POINCARE)

    def at(sid, point):
        cell = locate(ncp4, sid, as_vec(point))
        return sig.value(sid, cell.index), poin.value(sid, cell.index)

    got = {
        "A": at(DIAG, (Fraction(13, 4), Fraction(3, 4))),
        "B": at(DIAG, (2, 2)),
        "C": at(DIAG, (Fraction(3, 4), Fraction(13, 4))),
        "alpha": at("top", (Fraction(13, 6), Fraction(1, 2))),
        "beta": at("top", (Fraction(4, 3), Fraction(4, 3))),
        "gamma": at("top", (Fraction(1, 2), Fraction(13, 6))),
    }
    want = {
        "A": (1, P_CPN),
        "B": (0, P_MID),
        "C": (1, P_CPN),
        "alpha": (1, P_CPN),
        "beta": (0, P_MID),
        "gamma": (1, P_CPN),
    }
    _verdict("criterion 3 non-generic cp4 worked example", got == want, f"got {got}")


def test_criterion_4_engine_matches_circle_oracles(rank1_family):
    bad = []
    for x, data in rank1_family:
        sig = propagate(x, SIGNATURE)
        poin = propagate(x, POINCARE)
        for cell in subchambers(x, "top"):
            a = cell.rep[0]
            if sig.value("top", cell.index) != signature_regular(data, a):
                bad.append(f"signature at {a}")
            if poin.value("top", cell.index) != poincare_regular(data, a):
                bad.append(f"poincare at {a}")
        if signature_regular(data, data.levels()[-1] + 1) != 0:
            bad.append("nonzero above the top level")
    _verdict(
        "criterion 4 engine equals circle oracles on 50 random rank-1 X-rays",
        not bad,
        "; ".join(bad),
    )


def test_criterion_5_wall_crossing_identities():
    bad = []
    for f in range(11):
        for b in range(11):
            re, im = w_poincare(f, b).at_i()
            if (re, im) != (w_signature(f, b), 0):
                bad.append(f"w_signature({f},{b})")
            if w_poincare(f, b)(-1) != w_euler(f, b):
                bad.append(f"w_euler({f},{b})")
    _verdict("criterion 5 crossing-function identities, 121 cases", not bad, "; ".join(bad))


def test_criterion_6_singular_signature_two_sided(cp3, rank1_family):
    datasets = [from_rank1_xray(cp3)] + [data for _, data in rank1_family]
    for data in datasets:
        for c in data.levels():
            signature_singular(data, c)
    cp3_at_q = signature_singular(datasets[0], 1)
    _verdict(
        "criterion 6 singular signature two-sided on every level",
        cp3_at_q == 1,
        f"cp3 at level 1 gave {cp3_at_q}",
    )


def _counts_from_vertex(x, f, edge, separator, vertex):
    fspan = x.stratum(f).wall.span
    cells = subchambers(x, f)
    toward = cells[edge.dest].rep if edge.dest != EXTERIOR else cells[edge.source].rep
    ell = side_functional(fspan, x.stratum(separator.g).wall.span, toward)
    fwd = bwd = 0
    for w in x.stratum(vertex).vertex_data.weights:
        if not lin_contains(fspan, w):
            continue
        s = sign(ell.on_vector(w))
        fwd, bwd = fwd + (s > 0), bwd + (s < 0)
    return (bwd, fwd) if edge.dest == EXTERIOR else (fwd, bwd)


def _random_unimodular(rng: Random):
    m = [[1, 0], [0, 1]]
    for _ in range(4):
        k = rng.randint(-2, 2)
        if rng.random() < 0.5:
            m[0] = [m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]]
        else:
            m[1] = [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]
    if rng.random() < 0.5:
        m = [m[1], m[0]]
    return tuple(tuple(row) for row in m)


def test_criterion_7_property_suite(cp3, cp4, ncp4, toric_triangle, unit_square):
    started = time.perf_counter()
    fixtures = (cp3, cp4, ncp4, toric_triangle, unit_square)
    bad = []

    for x in fixtures:
        tables = {spec.name: propagate(x, spec) for spec in (SIGNATURE, POINCARE, EULER)}
        for spec in (SIGNATURE, POINCARE, EULER):
            table = tables[spec.name]
            for sid in x.ids:
                if x.dim(sid) == 0:
                    continue
                for e in crossing_graph(x, sid).edges:
                    total = spec.zero()
                    for s in e.separators:
                        total = total + spec.wall_cross(s.f, s.b) * table.value(s.g, s.r)
                    left = spec.zero() if e.source == EXTERIOR else table.value(sid, e.source)
                    right = spec.zero() if e.dest == EXTERIOR else table.value(sid, e.dest)
                    if right - left != total:
                        bad.append(f"path dependence at {sid} edge {e.source}->{e.dest}")
        if not check_parity(x, tables["signature"], tables["euler"]).passed:
            bad.append("parity")
        shortcut = delzant_shortcut(
            x, tables["signature"], tables["poincare"], tables["euler"]
        )
        if not shortcut.passed:
            bad.append("delzant shortcut")

    for x in (cp4, ncp4):
        for sid in x.ids:
            if x.dim(sid) == 0:
                continue
            for e in crossing_graph(x, sid).edges:
                for s in e.separators:
                    for v in vertices_below(x, s.g):
                        if _counts_from_vertex(x, sid, e, s, v) != (s.f, s.b):
                            bad.append(f"vertex-dependent counts at {sid}/{s.g}")

    rng = Random(20260816)
    base = {spec.name: propagate(ncp4, spec) for spec in (SIGNATURE, POINCARE, EULER)}
    for _ in range(5):
        matrix = _random_unimodular(rng)
        shift = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
        moved = transform(ncp4, matrix, shift)
        for spec in (SIGNATURE, POINCARE, EULER):
            table = propagate(moved, spec)
            for (sid, idx), val in base[spec.name].values.items():
                rep = subchambers(ncp4, sid)[idx].rep
                image = tuple(
                    sum(matrix[i][j] * rep[j] for j in range(2)) + shift[i]
                    for i in range(2)
                )
                cells = subchambers(moved, sid)
                j = 0 if len(cells) == 1 else locate(moved, sid, image).index
                if table.value(sid, j) != val:
                    bad.append(f"affine variance at {sid}/{idx} under {matrix}")

    elapsed = time.perf_counter() - started
    if elapsed >= 30:
        bad.append(f"runtime {elapsed:.1f}s")
    _verdict("criterion 7 property suite", not bad, "; ".join(sorted(set(bad))))


def test_criterion_8_dimension_4_positivity(cp3, ncp4):
    sig3, poin3 = propagate(cp3, SIGNATURE), propagate(cp3, POINCARE)
    report3 = check_dim4_positivity(cp3, poin3, sig3)
    sig4, poin4 = propagate(ncp4, SIGNATURE), propagate(ncp4, POINCARE)
    report4 = check_dim4_positivity(ncp4, poin4, sig4)
    b_line = next(line for line in report4.lines if line.name == f"dim4 {DIAG}/1")
    ok = (
        report3.passed
        and len(report3.lines) == 3
        and report4.passed
        and b_line.passed
        and "b2 2, signature 0, p = 1" in b_line.detail
    )
    _verdict(
        "criterion 8 dimension-4 signature and positivity",
        ok,
        f"cp3 {report3.lines}, diagonal B {b_line}",
    )
