"""Recursive invariant propagation over subchambers.

A recursive invariant is determined by a wall-crossing function w(f, b)
and seed values on vertex strata: crossing a wall changes the invariant
by the sum of w(f_i, b_i) times the invariant of each separating
subchamber, and the invariant of the empty (exterior) reduction is 0.
Propagation therefore runs bottom-up in wall dimension, seeding vertex
strata and breadth-first-filling each crossing graph from its exterior
node; every edge the walk did not cross forward is then re-checked, so
a path-dependent input cannot produce a silently wrong table.  The walk
depends on the crossing graph alone and is cached on the X-ray.

Argument convention used everywhere: the first argument f counts
weights pointing toward the destination chamber, the second b counts
weights pointing back.  Hence w_signature(f,b) = (-1)^b for odd f+b,
w_poincare(f,b) = (t^{2b} - t^{2f})/(1 - t^2), w_euler(f,b) = f - b.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .arrangement import EXTERIOR, CrossingEdge, crossing_graph, subchambers
from .errors import PropagationError
from .intpoly import IntPolynomial
from .ratmath import format_rational
from .xray import VertexData, WeightedXray, complex_dim_of_stratum, is_toric_structure_free

INTEGER = "INTEGER"
INT_POLYNOMIAL = "INT_POLYNOMIAL"


def w_signature(f: int, b: int) -> int:
    if (f + b) % 2 == 0:
        return 0
    return -1 if b % 2 else 1


def w_poincare(f: int, b: int) -> IntPolynomial:
    if f == b:
        return IntPolynomial.zero()
    if f > b:
        coeffs = [0] * (2 * f - 2 + 1)
        for k in range(b, f):
            coeffs[2 * k] = 1
    else:
        coeffs = [0] * (2 * b - 2 + 1)
        for k in range(f, b):
            coeffs[2 * k] = -1
    return IntPolynomial(tuple(coeffs))


def w_euler(f: int, b: int) -> int:
    return f - b


@dataclass(frozen=True)
class RecursiveInvariantSpec:
    """Ring kind, wall-crossing function, and vertex-seed extractor.

    The ring must be commutative; values need +, -, and * with the
    wall_cross outputs.  INTEGER and INT_POLYNOMIAL cover the built-ins.
    """

    name: str
    ring: str
    wall_cross: Callable[[int, int], object]
    seed: Callable[[VertexData], object]

    def zero(self):
        return IntPolynomial.zero() if self.ring == INT_POLYNOMIAL else 0


SIGNATURE = RecursiveInvariantSpec("signature", INTEGER, w_signature, lambda vd: vd.seed_signature)
POINCARE = RecursiveInvariantSpec("poincare", INT_POLYNOMIAL, w_poincare, lambda vd: vd.seed_poincare)
EULER = RecursiveInvariantSpec("euler", INTEGER, w_euler, lambda vd: vd.seed_euler)


@dataclass(frozen=True)
class InvariantTable:
    name: str
    fingerprint: str
    values: Mapping[tuple[str, int], object]

    def value(self, stratum: str, chamber: int):
        return self.values[(stratum, chamber)]


@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    title: str
    lines: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)


def _edge_delta(spec: RecursiveInvariantSpec, values, edge: CrossingEdge, backward: bool):
    """The change in spec's value crossing edge, from source to dest, or
    from dest to source when backward: f and b swap roles."""
    total = spec.zero()
    for sep in edge.separators:
        try:
            lower = values[(sep.g, sep.r)]
        except KeyError:
            raise PropagationError(
                f"missing lower value for subchamber {sep.r} of '{sep.g}'"
            ) from None
        cross = spec.wall_cross(sep.b, sep.f) if backward else spec.wall_cross(sep.f, sep.b)
        total = total + cross * lower
    return total


@dataclass(frozen=True)
class _Walk:
    """One crossing graph's breadth-first walk from the exterior.

    steps:     (node, dest, edge index, backward) in visiting order: dest
               is reached from node across edges[edge index], against
               the edge's orientation when backward.
    unreached: the nodes the walk never reaches.
    recheck:   the indices of the edges the cycle check recomputes, in
               graph order: every edge except those the walk crosses
               forward, whose difference is the crossing sum by
               construction.
    """

    edges: tuple[CrossingEdge, ...]
    steps: tuple[tuple[int, int, int, bool], ...]
    unreached: tuple[int, ...]
    recheck: tuple[int, ...]


def _walk(x: WeightedXray, sid: str) -> _Walk:
    """The walk of sid's crossing graph, cached on the X-ray: it depends
    on the graph alone, so every spec propagated on x shares it."""
    key = ("walk", sid)
    if key in x._cache:
        return x._cache[key]
    graph = crossing_graph(x, sid)
    oriented: dict[int, list[tuple[int, int, bool]]] = {node: [] for node in graph.nodes}
    for i, edge in enumerate(graph.edges):
        oriented[edge.source].append((edge.dest, i, False))
        oriented[edge.dest].append((edge.source, i, True))
    seen = {EXTERIOR}
    steps = []
    queue = deque([EXTERIOR])
    while queue:
        node = queue.popleft()
        for dest, i, backward in sorted(oriented[node], key=lambda step: step[0]):
            if dest not in seen:
                seen.add(dest)
                steps.append((node, dest, i, backward))
                queue.append(dest)
    crossed = {i for _, _, i, backward in steps if not backward}
    walk = _Walk(
        graph.edges,
        tuple(steps),
        tuple(node for node in graph.nodes if node not in seen),
        tuple(i for i in range(len(graph.edges)) if i not in crossed),
    )
    x._cache[key] = walk
    return walk


def propagate(x: WeightedXray, spec: RecursiveInvariantSpec) -> InvariantTable:
    """Invariant values of every subchamber of every wall.

    Requires an X-ray that passes the validators; on inconsistent input
    the cycle check aborts rather than return a path-dependent table.
    """
    values: dict[tuple[str, int], object] = {}
    for sid in sorted(x.ids, key=lambda s: (x.dim(s), s)):
        if x.dim(sid) == 0:
            values[(sid, 0)] = spec.seed(x.stratum(sid).vertex_data)
            continue
        walk = _walk(x, sid)
        edges = walk.edges
        level: dict[int, object] = {EXTERIOR: spec.zero()}
        for node, dest, i, backward in walk.steps:
            level[dest] = level[node] + _edge_delta(spec, values, edges[i], backward)
        if walk.unreached:
            raise PropagationError(
                f"wall '{sid}': subchambers {list(walk.unreached)} unreachable from the exterior"
            )
        for i in walk.recheck:
            edge = edges[i]
            observed = level[edge.dest] - level[edge.source]
            expected = _edge_delta(spec, values, edge, False)
            if observed != expected:
                raise PropagationError(
                    f"wall '{sid}': {spec.name} is path-dependent between chambers "
                    f"{edge.source} and {edge.dest}: difference {observed}, "
                    f"crossing sum {expected}"
                )
        for node in sorted(level):
            if node != EXTERIOR:
                values[(sid, node)] = level[node]
    return InvariantTable(spec.name, x.fingerprint(), values)


def delzant_shortcut(
    x: WeightedXray,
    table: InvariantTable,
    poincare_table: InvariantTable | None = None,
    euler_table: InvariantTable | None = None,
) -> Report:
    """Structure-free toric walls must carry the constant value 1.

    Checks the signature table and, when supplied, the Poincare and
    Euler tables; every subreduction over such a wall is a point.
    """
    lines = []
    one = IntPolynomial.one()
    for sid in x.ids:
        if not is_toric_structure_free(x, sid):
            continue
        cells = subchambers(x, sid)
        for cell in cells:
            checks = [("signature", table.value(sid, cell.index), 1)]
            if poincare_table is not None:
                checks.append(("poincare", poincare_table.value(sid, cell.index), one))
            if euler_table is not None:
                checks.append(("euler", euler_table.value(sid, cell.index), 1))
            for label, got, want in checks:
                lines.append(
                    CheckLine(
                        f"delzant {sid}/{cell.index} {label}",
                        got == want,
                        f"value {got}, expected {want}",
                    )
                )
    return Report("delzant shortcut", tuple(lines))


def check_sig_equals_poincare_at_i(
    x: WeightedXray, sig: InvariantTable, poin: InvariantTable
) -> Report:
    """Signature must equal the Poincare polynomial evaluated at i.

    Holds whenever every vertex seed does; seeds violating the
    hypothesis short-circuit to a single explanatory line.
    """
    for vid in x.vertex_ids:
        vd = x.stratum(vid).vertex_data
        re, im = vd.seed_poincare.at_i()
        if im != 0 or re != vd.seed_signature:
            return Report(
                "signature = P(i)",
                (
                    CheckLine(
                        "hypothesis",
                        False,
                        f"hypothesis not met: vertex '{vid}' has seed signature "
                        f"{vd.seed_signature} but seed P(i) = {re}{im:+}i",
                    ),
                ),
            )
    lines = []
    for (sid, chamber), value in sorted(sig.values.items()):
        re, im = poin.value(sid, chamber).at_i()
        lines.append(
            CheckLine(
                f"P(i) {sid}/{chamber}",
                im == 0 and re == value,
                f"signature {value}, P(i) = {re}{im:+}i",
            )
        )
    return Report("signature = P(i)", tuple(lines))


def check_parity(x: WeightedXray, sig: InvariantTable, euler: InvariantTable) -> Report:
    """Signature and Euler characteristic agree mod 2 on every subchamber,
    provided every vertex seed pair does."""
    for vid in x.vertex_ids:
        vd = x.stratum(vid).vertex_data
        if (vd.seed_signature - vd.seed_euler) % 2 != 0:
            return Report(
                "parity",
                (
                    CheckLine(
                        "hypothesis",
                        False,
                        f"hypothesis not met: vertex '{vid}' has seeds "
                        f"{vd.seed_signature} and {vd.seed_euler} of different parity",
                    ),
                ),
            )
    lines = []
    for (sid, chamber), value in sorted(sig.values.items()):
        e = euler.value(sid, chamber)
        lines.append(
            CheckLine(
                f"parity {sid}/{chamber}",
                (value - e) % 2 == 0,
                f"signature {value}, euler {e}",
            )
        )
    return Report("parity", tuple(lines))


def check_dim4_positivity(
    x: WeightedXray, poin: InvariantTable, sig: InvariantTable
) -> Report:
    """Four-dimensional reductions have signature 2 - b2 and p = 1.

    Applies to subchambers of strata whose reduced spaces have real
    dimension 4, when all vertex seeds are 1 (isolated fixed points):
    exactly one 2-class has positive self-intersection.
    """
    one = IntPolynomial.one()
    for vid in x.vertex_ids:
        vd = x.stratum(vid).vertex_data
        if (vd.seed_signature, vd.seed_poincare, vd.seed_euler) != (1, one, 1):
            return Report(
                "dimension-4 positivity",
                (
                    CheckLine(
                        "hypothesis",
                        False,
                        f"hypothesis not met: vertex '{vid}' seeds are not all 1",
                    ),
                ),
            )
    lines = []
    for sid in x.ids:
        if complex_dim_of_stratum(x, sid) - x.dim(sid) != 2:
            continue
        for cell in subchambers(x, sid):
            p = poin.value(sid, cell.index)
            s = sig.value(sid, cell.index)
            b1, b2 = p.coefficient(1), p.coefficient(2)
            lines.append(
                CheckLine(
                    f"dim4 {sid}/{cell.index}",
                    s == 2 - b2,
                    f"b1 {b1}, b2 {b2}, signature {s}, p = {format_rational(Fraction(s + b2, 2))}",
                )
            )
    return Report("dimension-4 positivity", tuple(lines))


def serialize_table(x: WeightedXray, table: InvariantTable) -> list[dict]:
    """Rows of (stratum, subchamber, rep, value), values JSON-ready."""
    chambers = {sid: subchambers(x, sid) for sid in {sid for sid, _ in table.values}}
    rows = []
    for (sid, chamber) in sorted(table.values):
        rep = chambers[sid][chamber].rep
        value = table.value(sid, chamber)
        rows.append(
            {
                "stratum": sid,
                "subchamber": chamber,
                "rep": [format_rational(c) for c in rep],
                "value": list(value.coeffs) if isinstance(value, IntPolynomial) else value,
            }
        )
    return rows
