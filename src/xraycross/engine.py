"""Recursive invariant propagation over subchambers.

A recursive invariant is determined by a wall-crossing function w(f, b)
and seed values on vertex strata: crossing a wall changes the invariant
by the sum of w(f_i, b_i) times the invariant of each separating
subchamber, and the invariant of the empty (exterior) reduction is 0.
Propagation therefore runs bottom-up in wall dimension, seeding vertex
strata and breadth-first-filling each crossing graph from its exterior
node; every edge the walk did not cross forward is then re-checked, so
a path-dependent input cannot produce a silently wrong table.  The walk
depends on the X-ray alone, so it is compiled once per X-ray into one
propagation plan cached on it, which every spec walks: the distinct
oriented count pairs (f, b) its crossings meet, each stored once, and
the strata in (dim, id) order with, for each wall, its steps and
re-check edges, each carrying its separators already oriented as
((g, r), i) terms, i indexing the pairs.  Beside the plan, each spec
propagated on the X-ray caches one tuple of its crossing
coefficients, w(f, b) for each pair in order, so each w is computed
once per X-ray and spec.  A propagate call only looks lower values up,
multiplies and sums: it looks every term's lower value up, so a
missing one raises where the walk meets it, and multiplies only by a
nonzero w.  Every re-check edge still recomputes its sum and compares
it on every call.
No sum is padded with zeros: a crossing sum starts from its first
product, and `IntPolynomial` returns the operand itself for p + 0 and
p * 1, so the many crossings that leave a value unchanged build no new
polynomial.

The checks and `serialize_table` read the tables in sorted key order.
That order, the check-line names and the serialized row heads (stratum,
subchamber, formatted rep) depend on the X-ray alone and are cached on
it too; a table with any other key set is sorted as it stands.  So is
each table check's seed-hypothesis verdict, which reads the vertex
seeds alone; the reports themselves are built on every call, each
check line one tuple.

Argument convention used everywhere: the first argument f counts
weights pointing toward the destination chamber, the second b counts
weights pointing back.  Hence w_signature(f,b) = (-1)^b for odd f+b,
w_poincare(f,b) = (t^{2b} - t^{2f})/(1 - t^2), w_euler(f,b) = f - b.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .arrangement import EXTERIOR, CrossingGraph, crossing_graph, subchambers
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
    return IntPolynomial._of(coeffs)


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


class CheckLine(NamedTuple):
    """One line of a report.  A line is one tuple, with no instance dict,
    so the thousands a re-query's table checks build are cheap to make
    and to collect; like a frozen record, its fields cannot be set."""

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


def _edge_delta(values, terms: tuple[tuple[tuple[str, int], int], ...], crossings: tuple, zero):
    """The change in a spec's value across one oriented crossing: the
    sum of w times the lower value of (g, r) over its ((g, r), i) terms,
    w being crossings[i], the spec's coefficient for the plan's i-th
    (f, b) pair.  Every term's lower value is looked up, so a missing
    one raises wherever the walk meets it, even where w is 0; only
    nonzero w are multiplied and summed.  The sum starts from the first
    product, and zero is returned when every w is 0."""
    total = None
    for key, i in terms:
        try:
            lower = values[key]
        except KeyError:
            raise PropagationError(
                f"missing lower value for subchamber {key[1]} of '{key[0]}'"
            ) from None
        w = crossings[i]
        if w:
            total = w * lower if total is None else total + w * lower
    return zero if total is None else total


@dataclass(frozen=True)
class _WallPlan:
    """One wall's breadth-first walk from the exterior, compiled.

    steps:     (node, dest, terms) in visiting order: dest is reached
               from node, and terms are the crossing's separators
               oriented from node to dest.
    unreached: the nodes the walk never reaches.
    recheck:   (source, dest, terms) for the edges the cycle check
               recomputes, in graph order: every edge except those the
               walk crosses forward, whose difference is the crossing
               sum by construction.
    chambers:  the wall's subchamber indices, ascending.

    A term is ((g, r), i): the separator's lower key and the index, in
    the plan's pairs, of its (f, b) counts oriented as the term is.
    """

    steps: tuple[tuple[int, int, tuple], ...]
    unreached: tuple[int, ...]
    recheck: tuple[tuple[int, int, tuple], ...]
    chambers: tuple[int, ...]


class _Plan(NamedTuple):
    """The propagation plan of an X-ray.

    pairs:  every distinct oriented (f, b) its terms cross, each once,
            in the order the walk first meets it.
    strata: every stratum in (dim, id) order with its wall's walk (None
            for a vertex).
    """

    pairs: tuple[tuple[int, int], ...]
    strata: tuple[tuple[str, _WallPlan | None], ...]


def _wall_plan(graph: CrossingGraph, pairs: dict[tuple[int, int], int]) -> _WallPlan:
    """The walk of one crossing graph, each node's neighbours taken in
    node order; each (f, b) a term crosses is indexed in pairs, a new
    one at the end."""

    def terms(i: int, backward: bool) -> tuple:
        return tuple(
            ((sep.g, sep.r), pairs.setdefault((sep.b, sep.f) if backward else (sep.f, sep.b), len(pairs)))
            for sep in graph.edges[i].separators
        )

    oriented: dict[int, list[tuple[int, int, bool]]] = {node: [] for node in graph.nodes}
    for i, edge in enumerate(graph.edges):
        oriented[edge.source].append((edge.dest, i, False))
        oriented[edge.dest].append((edge.source, i, True))
    seen = {EXTERIOR}
    steps = []
    crossed = set()
    queue = deque([EXTERIOR])
    while queue:
        node = queue.popleft()
        for dest, i, backward in sorted(oriented[node], key=lambda step: step[0]):
            if dest not in seen:
                seen.add(dest)
                steps.append((node, dest, terms(i, backward)))
                if not backward:
                    crossed.add(i)
                queue.append(dest)
    return _WallPlan(
        tuple(steps),
        tuple(node for node in graph.nodes if node not in seen),
        tuple((edge.source, edge.dest, terms(i, False)) for i, edge in enumerate(graph.edges) if i not in crossed),
        tuple(sorted(node for node in graph.nodes if node != EXTERIOR)),
    )


def _plan(x: WeightedXray) -> _Plan:
    """x's propagation plan, cached on the X-ray: it depends on the
    crossing graphs alone, so every spec propagated on x shares it."""
    plan = x._cache.get("propagation plan")
    if plan is None:
        pairs: dict[tuple[int, int], int] = {}
        strata = tuple(
            (sid, _wall_plan(crossing_graph(x, sid), pairs) if x.dim(sid) else None)
            for sid in sorted(x.ids, key=lambda s: (x.dim(s), s))
        )
        plan = x._cache["propagation plan"] = _Plan(tuple(pairs), strata)
    return plan


def _crossings(x: WeightedXray, spec: RecursiveInvariantSpec, plan: _Plan) -> tuple:
    """spec.wall_cross(f, b) for each of the plan's pairs, in order,
    cached on x under ("crossings", spec): each w is computed once per
    X-ray and spec."""
    key = ("crossings", spec)
    crossings = x._cache.get(key)
    if crossings is None:
        crossings = x._cache[key] = tuple(spec.wall_cross(f, b) for f, b in plan.pairs)
    return crossings


def rechecked_edges(x: WeightedXray) -> int:
    """How many crossing-graph edges the cycle check recomputes on each
    propagate call over x: every edge the walk does not cross forward."""
    return sum(len(wall.recheck) for _, wall in _plan(x).strata if wall is not None)


def propagate(x: WeightedXray, spec: RecursiveInvariantSpec) -> InvariantTable:
    """Invariant values of every subchamber of every wall.

    Requires an X-ray that passes the validators; on inconsistent input
    the cycle check aborts rather than return a path-dependent table.
    """
    plan = _plan(x)
    crossings = _crossings(x, spec, plan)
    zero = spec.zero()
    values: dict[tuple[str, int], object] = {}
    for sid, wall in plan.strata:
        if wall is None:
            values[(sid, 0)] = spec.seed(x.stratum(sid).vertex_data)
            continue
        level: dict[int, object] = {EXTERIOR: zero}
        for node, dest, terms in wall.steps:
            level[dest] = level[node] + _edge_delta(values, terms, crossings, zero)
        if wall.unreached:
            raise PropagationError(
                f"wall '{sid}': subchambers {list(wall.unreached)} unreachable from the exterior"
            )
        for source, dest, terms in wall.recheck:
            expected = _edge_delta(values, terms, crossings, zero)
            # dest - source == expected, tested without forming the
            # difference: most crossings leave the value unchanged, and
            # then the sum is level[source] itself
            if level[source] + expected != level[dest]:
                raise PropagationError(
                    f"wall '{sid}': {spec.name} is path-dependent between chambers "
                    f"{source} and {dest}: difference {level[dest] - level[source]}, "
                    f"crossing sum {expected}"
                )
        for node in wall.chambers:
            values[(sid, node)] = level[node]
    return InvariantTable(spec.name, x.fingerprint(), values)


def delzant_shortcut(
    x: WeightedXray,
    table: InvariantTable,
    poincare_table: InvariantTable,
    euler_table: InvariantTable,
) -> Report:
    """Structure-free toric walls must carry the constant value 1.

    Checks the signature, Poincare and Euler tables; every subreduction
    over such a wall is a point.
    """
    lines = []
    checks = (("signature", table, 1), ("poincare", poincare_table, IntPolynomial.one()), ("euler", euler_table, 1))
    for sid in x.ids:
        if not is_toric_structure_free(x, sid):
            continue
        for cell in subchambers(x, sid):
            for label, t, want in checks:
                got = t.value(sid, cell.index)
                lines.append(CheckLine(f"delzant {sid}/{cell.index} {label}", got == want, f"value {got}, expected {want}"))
    return Report("delzant shortcut", tuple(lines))


@dataclass(frozen=True)
class _Identity:
    """A relation among the (signature, Poincare, Euler) values of one
    reduction: numbers picks out what it compares and holds compares
    it; detail (a check line's) and why (how a vertex seed breaks it)
    are format strings over those numbers."""

    name: str
    numbers: Callable[..., tuple]
    holds: Callable[..., bool]
    detail: str
    why: str

    def verdict(self, s, p, e) -> tuple[bool, str]:
        n = self.numbers(s, p, e)
        return self.holds(*n), self.detail.format(*n)


# The seed identities, each stated once, in the order check_seeds reports them.
_AT_I, _AT_MINUS_1, _PARITY = _IDENTITIES = (
    _Identity("signature = P(i)", lambda s, p, e: (s, *p.at_i()), lambda s, re, im: im == 0 and re == s,
              "signature {}, P(i) = {}{:+}i", "has seed signature {} but seed P(i) = {}{:+}i"),
    _Identity("euler = P(-1)", lambda s, p, e: (e, p(-1)), lambda e, v: e == v,
              "euler {}, P(-1) = {}", "has seed euler {} but seed P(-1) = {}"),
    _Identity("signature = euler (mod 2)", lambda s, p, e: (s, e), lambda s, e: (s - e) % 2 == 0,
              "signature {}, euler {}", "has seeds {} and {} of different parity"),
)
# Not an identity: check_dim4_positivity's hypothesis of isolated fixed points.
_ALL_ONE = _Identity("seeds all 1", lambda *n: n, lambda *n: n == (1, IntPolynomial.one(), 1), "", "seeds are not all 1")


def _seeds(x: WeightedXray):
    """(vid, its (signature, Poincare, Euler) seeds) for each vertex, in order."""
    for vid in x.vertex_ids:
        vd = x.stratum(vid).vertex_data
        yield vid, (vd.seed_signature, vd.seed_poincare, vd.seed_euler)


def check_seeds(x: WeightedXray) -> Report:
    """Every vertex seed against each identity: three lines per vertex,
    `seed <vid>: <identity>`, in vertex order."""
    lines = (CheckLine(f"seed {vid}: {i.name}", *i.verdict(*seeds)) for vid, seeds in _seeds(x) for i in _IDENTITIES)
    return Report("seeds", tuple(lines))


def _gate(x: WeightedXray, title: str, ident: _Identity) -> Report | None:
    """The one-line failing report of the check titled title when some
    vertex seed breaks ident, naming the first such vertex and how; None
    when every seed satisfies it.  The scan reads the seeds alone, so
    its verdict (the line's detail, or None) is cached on x under
    ("seed gate", ident's name); the report is built anew on each call."""
    key = ("seed gate", ident.name)
    try:
        detail = x._cache[key]
    except KeyError:
        detail = x._cache[key] = _unmet(x, ident)
    return None if detail is None else Report(title, (CheckLine("hypothesis", False, detail),))


def _unmet(x: WeightedXray, ident: _Identity) -> str | None:
    """How the first vertex seed that breaks ident breaks it, or None."""
    numbers, holds = ident.numbers, ident.holds
    for vid, seeds in _seeds(x):
        n = numbers(*seeds)
        if not holds(*n):
            return f"hypothesis not met: vertex '{vid}' {ident.why.format(*n)}"
    return None


def _table_keys(x: WeightedXray) -> tuple[frozenset, tuple[tuple[str, int], ...]] | None:
    """(the keys of every table propagate gives on x, those keys sorted),
    read off the propagation plan and cached on x; None while x has no
    plan, so that reading a table builds no geometry."""
    out = x._cache.get("table keys")
    if out is None:
        plan = x._cache.get("propagation plan")
        if plan is None:
            return None
        keys = [(sid, c) for sid, wall in plan.strata for c in (wall.chambers if wall else (0,))]
        out = x._cache["table keys"] = (frozenset(keys), tuple(sorted(keys)))
    return out


def _heads(x: WeightedXray, values: Mapping, kind, head: Callable) -> tuple[tuple, tuple]:
    """(values' keys in sorted order, head(x, key) for each of them).

    When values has exactly the keys of a table propagated on x, as
    every table from propagate does, the order is x's and the heads are
    cached on x under ("table heads", kind); otherwise the keys are
    sorted and the heads built anew."""
    layout = _table_keys(x)
    if layout is None or values.keys() != layout[0]:
        order = tuple(sorted(values))
        return order, tuple(head(x, key) for key in order)
    order = layout[1]
    cache_key = ("table heads", kind)
    heads = x._cache.get(cache_key)
    if heads is None:
        heads = x._cache[cache_key] = tuple(head(x, key) for key in order)
    return order, heads


def _table_lines(x: WeightedXray, label: str, ident: _Identity, sig: InvariantTable, other: InvariantTable) -> tuple[CheckLine, ...]:
    """ident's line `<label> <sid>/<c>` for every entry of sig, in key
    order, reading other, the Poincare table for `signature = P(i)` and
    the Euler table for parity.  Every entry is judged on every call,
    but entries with equal values, as most are, share one verdict:
    verdicts are keyed by (signature, Poincare coefficients) or by
    (signature, Euler), one loop for each kind."""
    order, names = _heads(x, sig.values, ("check names", label), lambda x, key: f"{label} {key[0]}/{key[1]}")
    sigs, others = sig.values, other.values
    judge = ident.verdict
    shown: dict[tuple, tuple[bool, str]] = {}
    # each line is made as the tuple it is, without the Python-level
    # __new__ that NamedTuple generates
    new = tuple.__new__
    lines = []
    if ident is _AT_I:
        for key, name in zip(order, names):
            s, p = sigs[key], others[key]
            seen = (s, p.coeffs)
            verdict = shown.get(seen)
            if verdict is None:
                verdict = shown[seen] = judge(s, p, None)
            lines.append(new(CheckLine, (name,) + verdict))
    else:
        for key, name in zip(order, names):
            s, e = sigs[key], others[key]
            seen = (s, e)
            verdict = shown.get(seen)
            if verdict is None:
                verdict = shown[seen] = judge(s, None, e)
            lines.append(new(CheckLine, (name,) + verdict))
    return tuple(lines)


def check_sig_equals_poincare_at_i(
    x: WeightedXray, sig: InvariantTable, poin: InvariantTable
) -> Report:
    """Signature must equal the Poincare polynomial evaluated at i.

    Holds whenever every vertex seed does; seeds violating the
    hypothesis short-circuit to a single explanatory line.
    """
    title = "signature = P(i)"
    return _gate(x, title, _AT_I) or Report(title, _table_lines(x, "P(i)", _AT_I, sig, poin))


def check_parity(x: WeightedXray, sig: InvariantTable, euler: InvariantTable) -> Report:
    """Signature and Euler characteristic agree mod 2 on every subchamber,
    provided every vertex seed pair does."""
    return _gate(x, "parity", _PARITY) or Report("parity", _table_lines(x, "parity", _PARITY, sig, euler))


def check_dim4_positivity(
    x: WeightedXray, poin: InvariantTable, sig: InvariantTable
) -> Report:
    """Four-dimensional reductions have signature 2 - b2 and p = 1.

    Applies to subchambers of strata whose reduced spaces have real
    dimension 4, when all vertex seeds are 1 (isolated fixed points):
    exactly one 2-class has positive self-intersection.
    """
    unmet = _gate(x, "dimension-4 positivity", _ALL_ONE)
    if unmet is not None:
        return unmet
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


def _rep_strings(x: WeightedXray, sid: str) -> tuple[tuple[str, ...], ...]:
    """Each subchamber rep of sid's wall, formatted, cached on the X-ray."""
    key = ("rep strings", sid)
    if key not in x._cache:
        x._cache[key] = tuple(tuple(format_rational(c) for c in cell.rep) for cell in subchambers(x, sid))
    return x._cache[key]


def _row_head(x: WeightedXray, key: tuple[str, int]) -> tuple[str, int, tuple[str, ...]]:
    """(stratum, subchamber, formatted rep) of one serialized row."""
    sid, chamber = key
    return sid, chamber, _rep_strings(x, sid)[chamber]


def serialize_table(x: WeightedXray, table: InvariantTable) -> list[dict]:
    """Rows of (stratum, subchamber, rep, value), values JSON-ready.

    The row heads are built once per X-ray (see _heads); each row gets
    its own dict and its own rep list."""
    order, heads = _heads(x, table.values, "rows", _row_head)
    return [
        {
            "stratum": sid,
            "subchamber": chamber,
            "rep": list(rep),
            "value": list(value.coeffs) if isinstance(value, IntPolynomial) else value,
        }
        for (sid, chamber, rep), value in zip(heads, map(table.values.__getitem__, order))
    ]
