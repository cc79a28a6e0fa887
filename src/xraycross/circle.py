"""Direct circle-action formulas: the independent oracle for the engine.

For a Hamiltonian circle action the signature and Poincare polynomial
of a regular reduction are closed-form localization sums over the fixed
components below the level, with no recursion.  The same data yields
the change across a critical level and the signature of the singular
reduction itself, computable from either side; the two-sided agreement
is asserted on every call because it pins down the sign convention.

restrict_to_line turns one crossing-graph edge of a higher-rank X-ray
into rank-1 fixed data for the residual circle, so the closed forms can
cross-check every recursive wall-crossing step.  cross_check runs the
whole comparison for one wall and reports it line by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import EXTERIOR, crossing_graph, subchambers
from .engine import (
    INT_POLYNOMIAL,
    INTEGER,
    POINCARE,
    SIGNATURE,
    CheckLine,
    InvariantTable,
    Report,
    propagate,
    w_poincare,
    w_signature,
)
from .errors import PropagationError, SingularLevel, XrayError
from .intpoly import IntPolynomial
from .ratmath import Rational, format_point, format_rational, rat


@dataclass(frozen=True)
class FixedComponent:
    """One fixed component: moment level, nonzero normal weights, seeds."""

    level: Fraction
    weights: tuple[int, ...]
    seed_signature: int
    seed_poincare: IntPolynomial

    def __post_init__(self):
        if any(w == 0 for w in self.weights):
            raise ValueError("fixed-component weights must be nonzero")
        object.__setattr__(self, "weights", tuple(sorted(self.weights)))

    @property
    def f(self) -> int:
        return sum(1 for w in self.weights if w > 0)

    @property
    def b(self) -> int:
        return sum(1 for w in self.weights if w < 0)

    @property
    def q(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class CircleFixedData:
    components: tuple[FixedComponent, ...]

    def levels(self) -> tuple[Fraction, ...]:
        return tuple(sorted({c.level for c in self.components}))

    def at_level(self, c: Rational) -> tuple[FixedComponent, ...]:
        return tuple(comp for comp in self.components if comp.level == c)


def signature_regular(data: CircleFixedData, a: Rational) -> int:
    """Signature of the reduction at the regular level a.

    Sums (-1)^b times the seed signature over components strictly below
    a with an odd number of weights; even-weight components never move
    the signature.
    """
    a = rat(a)
    if a in data.levels():
        raise SingularLevel(f"level {format_rational(a)} is singular; use signature_singular")
    total = 0
    for comp in data.components:
        if comp.level < a and comp.q % 2 == 1:
            total += (-1) ** comp.b * comp.seed_signature
    return total


def poincare_regular(data: CircleFixedData, a: Rational) -> IntPolynomial:
    """Poincare polynomial of the reduction at the regular level a."""
    a = rat(a)
    if a in data.levels():
        raise SingularLevel(f"level {format_rational(a)} is singular; use signature_singular")
    total = IntPolynomial.zero()
    for comp in data.components:
        if comp.level < a:
            total = total + comp.seed_poincare * w_poincare(comp.f, comp.b)
    return total


def wall_cross_delta(data: CircleFixedData, c: Rational, ring: str):
    """Change of the invariant across the critical level c.

    ring selects the invariant: INTEGER for signature, INT_POLYNOMIAL
    for the Poincare polynomial.
    """
    c = rat(c)
    at = data.at_level(c)
    if not at:
        raise XrayError(f"level {format_rational(c)} is not a wall")
    if ring == INTEGER:
        return sum(w_signature(comp.f, comp.b) * comp.seed_signature for comp in at)
    if ring == INT_POLYNOMIAL:
        total = IntPolynomial.zero()
        for comp in at:
            total = total + comp.seed_poincare * w_poincare(comp.f, comp.b)
        return total
    raise ValueError(f"unknown ring {ring!r}")


def signature_singular(data: CircleFixedData, c: Rational) -> int:
    """Signature of the singular reduction at the critical level c.

    From below: the regular value just under c plus the contributions
    of components with b >= f.  The same quantity computed from above
    (regular value just over c minus the b < f contributions) must
    agree; a mismatch means the sign convention is broken somewhere.
    """
    c = rat(c)
    at = data.at_level(c)
    if not at:
        raise XrayError(f"level {format_rational(c)} is not a wall")
    levels = data.levels()
    lower = [v for v in levels if v < c]
    upper = [v for v in levels if v > c]
    just_below = (lower[-1] + c) / 2 if lower else c - 1
    just_above = (c + upper[0]) / 2 if upper else c + 1
    from_below = signature_regular(data, just_below) + sum(
        w_signature(comp.f, comp.b) * comp.seed_signature for comp in at if comp.b >= comp.f
    )
    from_above = signature_regular(data, just_above) - sum(
        w_signature(comp.f, comp.b) * comp.seed_signature for comp in at if comp.b < comp.f
    )
    if from_below != from_above:
        raise PropagationError(
            f"singular signature at level {format_rational(c)} is two-faced: "
            f"{from_below} from below, {from_above} from above"
        )
    return from_below


def from_rank1_xray(x) -> CircleFixedData:
    """Fixed data of a torus_rank-1 X-ray: one component per vertex stratum.

    Weight vectors reduce to their signs (the closed forms only count
    them); zero weights are tangent directions and drop out, shrinking
    q for non-isolated components.
    """
    if x.torus_rank != 1:
        raise ValueError("rank-1 fixed data requires a d = 1 X-ray")
    components = []
    for vid in x.vertex_ids:
        s = x.stratum(vid)
        vd = s.vertex_data
        weights = tuple(1 if w[0] > 0 else -1 for w in vd.weights if w[0] != 0)
        components.append(
            FixedComponent(s.wall.vertices[0][0], weights, vd.seed_signature, vd.seed_poincare)
        )
    components.sort(key=lambda comp: comp.level)
    return CircleFixedData(tuple(components))


def restrict_to_line(
    x,
    f: str,
    p1: int,
    p2: int,
    sig_table: InvariantTable | None = None,
    poin_table: InvariantTable | None = None,
    facet_rep=None,
) -> CircleFixedData:
    """Rank-1 fixed data for the residual circle across one crossing edge.

    p1 and p2 are adjacent subchamber indices of f's wall (either may be
    EXTERIOR).  Each separator becomes one fixed component at level 0
    (the separating hyperplane is the zero level of its own functional,
    with the p1 side negative): f_i weights +1, b_i weights -1, seeds
    the engine's propagated values.  wall_cross_delta at 0 then equals
    the engine's crossing delta.  facet_rep picks one edge when the pair
    is joined through more than one facet.
    """
    graph = crossing_graph(x, f)
    edge = None
    for candidate in graph.edges:
        if facet_rep is not None and candidate.facet_rep != tuple(facet_rep):
            continue
        if (candidate.source, candidate.dest) == (p1, p2):
            edge = candidate
            break
        if (candidate.source, candidate.dest) == (p2, p1):
            edge = candidate.reversed()
            break
    if edge is None:
        raise XrayError(f"subchambers {p1} and {p2} of '{f}' are not adjacent")
    if sig_table is None:
        sig_table = propagate(x, SIGNATURE)
    if poin_table is None:
        poin_table = propagate(x, POINCARE)
    components = []
    for sep in edge.separators:
        components.append(
            FixedComponent(
                Fraction(0),
                (1,) * sep.f + (-1,) * sep.b,
                sig_table.value(sep.g, sep.r),
                poin_table.value(sep.g, sep.r),
            )
        )
    return CircleFixedData(tuple(components))


def cross_check(x, f: str, sig: InvariantTable, poin: InvariantTable) -> Report:
    """The engine's signature and Poincare tables on wall f against the circle.

    d = 1 (f must be the top wall): each subchamber's values against
    signature_regular and poincare_regular at its rep, and the two-sided
    singular signature at every critical level.  d >= 2: each crossing
    edge of f, the engine's jump against wall_cross_delta of the
    residual circle that restrict_to_line builds from its separators.
    """
    lines = []
    if x.torus_rank == 1:
        if f != x.top_id:
            raise ValueError("at d = 1 the circle formulas check the top wall only")
        data = from_rank1_xray(x)
        for cell in subchambers(x, f):
            a = cell.rep[0]
            for kind, want, got in (
                ("signature", sig.value(f, cell.index), signature_regular(data, a)),
                ("poincare", poin.value(f, cell.index), poincare_regular(data, a)),
            ):
                lines.append(CheckLine(f"chamber {cell.index} {kind}", want == got, f"engine {want}, circle {got}"))
        for c in data.levels():
            name = f"singular level {format_rational(c)} two-sided"
            try:
                signature_singular(data, c)
                lines.append(CheckLine(name, True))
            except PropagationError as e:
                lines.append(CheckLine(name, False, str(e)))
        return Report("circle oracle", tuple(lines))

    def at(table, node, zero):
        return zero if node == EXTERIOR else table.value(f, node)

    for edge in crossing_graph(x, f).edges:
        data = restrict_to_line(x, f, edge.source, edge.dest, sig, poin, facet_rep=edge.facet_rep)
        name = f"edge {edge.source}->{edge.dest} at {format_point(edge.facet_rep)}"
        for kind, table, ring, zero in (
            ("signature", sig, INTEGER, 0),
            ("poincare", poin, INT_POLYNOMIAL, IntPolynomial.zero()),
        ):
            want = at(table, edge.dest, zero) - at(table, edge.source, zero)
            got = wall_cross_delta(data, 0, ring)
            lines.append(CheckLine(f"{name} {kind} delta", want == got, f"engine {want}, circle {got}"))
    return Report("circle oracle", tuple(lines))


def to_records(data: CircleFixedData) -> list[dict]:
    return [
        {
            "level": format_rational(comp.level),
            "weights": list(comp.weights),
            "signature": comp.seed_signature,
            "poincare": list(comp.seed_poincare.coeffs),
        }
        for comp in data.components
    ]


def from_records(records) -> CircleFixedData:
    components = tuple(
        FixedComponent(
            rat(rec["level"]),
            tuple(rec["weights"]),
            rec["signature"],
            IntPolynomial(tuple(rec["poincare"])),
        )
        for rec in records
    )
    return CircleFixedData(components)
