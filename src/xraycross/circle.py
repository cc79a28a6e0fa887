"""Direct circle-action formulas: the independent oracle for the engine.

For a Hamiltonian circle action the signature and Poincare polynomial
of a regular reduction are closed-form localization sums over the fixed
components below the level, with no recursion.  The same data yields
the change across a critical level and the signature of the singular
reduction itself, computable from either side; the two-sided agreement
is asserted on every call because it pins down the sign convention.

A CircleFixedData indexes its components by level once, keyed by
(numerator, denominator) so that no Fraction is hashed.  The first
regular query sums the localization terms level by level into prefix
sums, and every regular value after that is one `bisect` over the
levels scaled to integers over their common denominator, so no
Fraction is compared either.  Each component computes its crossing
coefficients w_signature(f, b) and w_poincare(f, b) the first time
each is asked for.

from_rank1_xray is cached on the X-ray, with the prefix sums and
crossing coefficients its components gather, and reads each weight's
sign off its row over the vertex's common denominator.

restrict_to_line turns one crossing-graph edge of a higher-rank X-ray
into rank-1 fixed data for the residual circle, so the closed forms can
cross-check every recursive wall-crossing step.  Each separator becomes
one level-0 component built straight from its (f, b) counts, whose
weights are sorted already.  Each wall's edges are indexed once per
X-ray in both orientations, each separator as its lower key and the
state of the component of its counts, with w_signature(f, b) and
w_poincare(f, b) set, so a call copies each state once with its two
table values as seeds, and wall_cross_delta computes no coefficient.
cross_check runs the whole comparison for one wall and reports it line
by line.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .arrangement import EXTERIOR, CrossingEdge, crossing_graph, subchambers
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
from .ratmath import ZERO, Rational, format_point, format_rational, rat


@dataclass(frozen=True)
class FixedComponent:
    """One fixed component: moment level, nonzero normal weights, seeds.

    f, b and q (the counts of positive, negative and all weights) are
    set once at construction; they are not fields, so repr and equality
    see the four fields only."""

    level: Fraction
    weights: tuple[int, ...]
    seed_signature: int
    seed_poincare: IntPolynomial

    @cached_property
    def poincare_cross(self) -> IntPolynomial:
        """w_poincare(f, b): the component's term in the Poincare change
        across its level, per unit of seed."""
        return w_poincare(self.f, self.b)

    @cached_property
    def signature_cross(self) -> int:
        """w_signature(f, b): the component's term in the signature
        change across its level, per unit of seed."""
        return w_signature(self.f, self.b)

    def __post_init__(self):
        if any(w == 0 for w in self.weights):
            raise ValueError("fixed-component weights must be nonzero")
        weights = tuple(sorted(self.weights))
        f = sum(1 for w in weights if w > 0)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "b", len(weights) - f)
        object.__setattr__(self, "q", len(weights))

    @classmethod
    def _of_counts(
        cls, level: Fraction, f: int, b: int, seed_signature: int, seed_poincare: IntPolynomial
    ) -> "FixedComponent":
        """The component with f weights +1 and b weights -1, equal to
        FixedComponent(level, (1,) * f + (-1,) * b, ...): its weights
        (-1,) * b + (1,) * f are sorted already, so nothing is sorted or
        counted again.  Its signature_cross and poincare_cross are set
        at once."""
        out = object.__new__(cls)
        vars(out).update(
            level=level,
            weights=(-1,) * b + (1,) * f,
            seed_signature=seed_signature,
            seed_poincare=seed_poincare,
            f=f,
            b=b,
            q=f + b,
            signature_cross=w_signature(f, b),
            poincare_cross=w_poincare(f, b),
        )
        return out


@dataclass(frozen=True)
class CircleFixedData:
    """Fixed components of a circle action.  The sorted levels and each
    level's components (in component order) are indexed once at
    construction, keyed by (numerator, denominator): neither building
    the index nor a lookup hashes a Fraction, whose hash is a modular
    inverse.  The regular values below each level are summed the first
    time a regular level is queried (`_regular_sums`), and the levels
    are scaled to integers (`_int_levels`) for the bisect that counts
    the levels below a point; like the index, both stay out of repr and
    equality."""

    components: tuple[FixedComponent, ...]

    def __post_init__(self):
        by_level: dict[tuple[int, int], list[FixedComponent]] = {}
        for comp in self.components:
            level = comp.level
            by_level.setdefault((level.numerator, level.denominator), []).append(comp)
        object.__setattr__(self, "_levels", tuple(sorted(comps[0].level for comps in by_level.values())))
        object.__setattr__(self, "_by_level", {key: tuple(comps) for key, comps in by_level.items()})

    def levels(self) -> tuple[Fraction, ...]:
        return self._levels

    def at_level(self, c: Rational) -> tuple[FixedComponent, ...]:
        """The components at level c, an int or a Fraction."""
        return self._by_level.get((c.numerator, c.denominator), ())

    @cached_property
    def _regular_sums(self) -> tuple[tuple[int, ...], tuple[IntPolynomial, ...]]:
        """Prefix sums over the sorted levels: entry k of each is the
        signature or Poincare polynomial of the reduction above the k
        lowest levels and below the rest, the sum of the localization
        terms of the components at those k levels.  Even-weight
        components never move the signature."""
        sig, poin = [0], [IntPolynomial.zero()]
        for level in self._levels:
            s, p = sig[-1], poin[-1]
            for comp in self.at_level(level):
                if comp.q % 2 == 1:
                    s += (-1) ** comp.b * comp.seed_signature
                p = p + comp.seed_poincare * comp.poincare_cross
            sig.append(s)
            poin.append(p)
        return tuple(sig), tuple(poin)

    @cached_property
    def _int_levels(self) -> tuple[int, tuple[int, ...]]:
        """(D, the sorted levels times D), D the lcm of their denominators."""
        den = lcm(*(level.denominator for level in self._levels))
        return den, tuple(level.numerator * (den // level.denominator) for level in self._levels)


def _count_below(data: CircleFixedData, a: Fraction) -> int:
    """How many of data's levels lie strictly below a, in integers: a
    level k / D lies below a = p / q exactly when k < ceil(p D / q)."""
    den, scaled = data._int_levels
    return bisect_left(scaled, -(-a.numerator * den // a.denominator))


def _levels_below(data: CircleFixedData, a: Rational) -> int:
    """How many of data's levels lie below the regular level a; a level
    itself raises SingularLevel."""
    a = rat(a)
    if data.at_level(a):
        raise SingularLevel(f"level {format_rational(a)} is singular; use signature_singular")
    return _count_below(data, a)


def signature_regular(data: CircleFixedData, a: Rational) -> int:
    """Signature of the reduction at the regular level a.

    Sums (-1)^b times the seed signature over components strictly below
    a with an odd number of weights, read off data's prefix sums.
    """
    return data._regular_sums[0][_levels_below(data, a)]


def poincare_regular(data: CircleFixedData, a: Rational) -> IntPolynomial:
    """Poincare polynomial of the reduction at the regular level a, read
    off data's prefix sums."""
    return data._regular_sums[1][_levels_below(data, a)]


def wall_cross_delta(data: CircleFixedData, c: Rational, ring: str):
    """Change of the invariant across the critical level c.

    ring selects the invariant: INTEGER for signature, INT_POLYNOMIAL
    for the Poincare polynomial.
    """
    if not isinstance(c, int):
        # at_level takes an int as it is; a Fraction made of it would
        # cost more than the lookup
        c = rat(c)
    at = data.at_level(c)
    if not at:
        raise XrayError(f"level {format_rational(c)} is not a wall")
    if ring == INTEGER:
        total = 0
        for comp in at:
            total += comp.signature_cross * comp.seed_signature
        return total
    if ring == INT_POLYNOMIAL:
        total = IntPolynomial.zero()
        for comp in at:
            total = total + comp.seed_poincare * comp.poincare_cross
        return total
    raise ValueError(f"unknown ring {ring!r}")


def signature_singular(data: CircleFixedData, c: Rational) -> int:
    """Signature of the singular reduction at the critical level c.

    From below: the regular value just under c plus the contributions
    of components with b >= f.  The same quantity computed from above
    (regular value just over c minus the b < f contributions) must
    agree; a mismatch means the sign convention is broken somewhere.
    With i levels below c, the regular values just under and just over
    c are entries i and i + 1 of data's prefix sums.
    """
    c = rat(c)
    at = data.at_level(c)
    if not at:
        raise XrayError(f"level {format_rational(c)} is not a wall")
    i = _count_below(data, c)
    sums = data._regular_sums[0]
    from_below = sums[i] + sum(comp.signature_cross * comp.seed_signature for comp in at if comp.b >= comp.f)
    from_above = sums[i + 1] - sum(comp.signature_cross * comp.seed_signature for comp in at if comp.b < comp.f)
    if from_below != from_above:
        raise PropagationError(
            f"singular signature at level {format_rational(c)} is two-faced: "
            f"{from_below} from below, {from_above} from above"
        )
    return from_below


def from_rank1_xray(x) -> CircleFixedData:
    """Fixed data of a torus_rank-1 X-ray: one component per vertex stratum.

    Weight vectors reduce to their signs (the closed forms only count
    them), read off each weight's row in `VertexData.int_weights`, a
    positive multiple of the weight, so row[0] has the weight's sign;
    zero weights are tangent directions and drop out, shrinking q for
    non-isolated components.  Built once per X-ray and cached on it, so
    its prefix sums and crossing coefficients are gathered once too.
    """
    if x.torus_rank != 1:
        raise ValueError("rank-1 fixed data requires a d = 1 X-ray")
    data = x._cache.get("rank-1 circle")
    if data is None:
        components = []
        for vid in x.vertex_ids:
            s = x.stratum(vid)
            vd = s.vertex_data
            weights = tuple(1 if row[0] > 0 else -1 for row in vd.int_weights[0] if row[0])
            components.append(
                FixedComponent(s.wall.vertices[0][0], weights, vd.seed_signature, vd.seed_poincare)
            )
        components.sort(key=lambda comp: comp.level)
        data = x._cache["rank-1 circle"] = CircleFixedData(tuple(components))
    return data


# A separator as restrict_to_line reads it: the key (g, r) of its lower
# values, and the state (`vars`) of the level-0 component of its counts
# with zero seeds and both crossing coefficients set, shared by every
# separator with those counts, which each call copies with those values
# as seeds.
_Leg = tuple[tuple[str, int], dict]

# The levels of a restricted circle, and the key of level 0 in its index.
_ZERO_LEVELS = (ZERO,)
_ZERO_KEY = (ZERO.numerator, ZERO.denominator)


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
    legs = _legs(x, f, p1, p2, None if facet_rep is None else tuple(facet_rep))
    if sig_table is None:
        sig_table = propagate(x, SIGNATURE)
    if poin_table is None:
        poin_table = propagate(x, POINCARE)
    return _circle(legs, sig_table, poin_table)


def _legs(x, f: str, p1: int, p2: int, rep) -> tuple[_Leg, ...]:
    """The separators of the first edge of f's crossing graph, in graph
    order, that joins p1 and p2 (through the facet at rep, unless rep is
    None), oriented from p1 to p2."""
    for facet_rep, legs in _oriented_edges(x, f).get((p1, p2), ()):
        if rep is None or facet_rep == rep:
            return legs
    raise XrayError(f"subchambers {p1} and {p2} of '{f}' are not adjacent")


def _oriented_edges(x, f: str) -> dict[tuple[int, int], tuple[tuple[tuple, tuple[_Leg, ...]], ...]]:
    """f's crossing-graph edges in both orientations, keyed by (source,
    dest), each key's edges in graph order as (facet rep, legs); cached
    on the X-ray."""
    key = ("oriented edges", f)
    index = x._cache.get(key)
    if index is None:
        shapes: dict[tuple[int, int], dict] = {}
        grouped: dict[tuple[int, int], list] = {}
        for edge in crossing_graph(x, f).edges:
            for e in (edge, edge.reversed()):
                grouped.setdefault((e.source, e.dest), []).append((e.facet_rep, _edge_legs(e, shapes)))
        index = x._cache[key] = {pair: tuple(edges) for pair, edges in grouped.items()}
    return index


def _edge_legs(edge: CrossingEdge, shapes: dict) -> tuple[_Leg, ...]:
    """edge's separators as legs, each component's state read from
    shapes, a dict by (f, b) filled as needed."""
    legs = []
    for sep in edge.separators:
        fb = (sep.f, sep.b)
        shape = shapes.get(fb)
        if shape is None:
            shape = shapes[fb] = vars(FixedComponent._of_counts(ZERO, sep.f, sep.b, 0, IntPolynomial.zero()))
        legs.append(((sep.g, sep.r), shape))
    return tuple(legs)


def _circle(legs: tuple[_Leg, ...], sig_table: InvariantTable, poin_table: InvariantTable) -> CircleFixedData:
    """One level-0 component per leg, seeded with the leg's lower values:
    each is one copy of its shape's state with the two seeds replaced,
    and the one-level CircleFixedData is built with its index."""
    sigs, poins = sig_table.values, poin_table.values
    new = object.__new__
    components = []
    for key, shape in legs:
        comp = new(FixedComponent)
        vars(comp).update(shape, seed_signature=sigs[key], seed_poincare=poins[key])
        components.append(comp)
    components = tuple(components)
    data = new(CircleFixedData)
    vars(data).update(components=components, _levels=_ZERO_LEVELS, _by_level={_ZERO_KEY: components})
    return data


def cross_check(x, f: str, sig: InvariantTable, poin: InvariantTable) -> Report:
    """The engine's signature and Poincare tables on wall f against the circle.

    d = 1 (f must be the top wall): each subchamber's values against
    signature_regular and poincare_regular at its rep, and the two-sided
    singular signature at every critical level.  d >= 2: each crossing
    edge of f, the engine's jump against wall_cross_delta of the
    residual circle built from its separators, as restrict_to_line does.
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
        data = _circle(_legs(x, f, edge.source, edge.dest, edge.facet_rep), sig, poin)
        name = f"edge {edge.source}->{edge.dest} at {format_point(edge.facet_rep)}"
        for kind, table, ring, zero in (
            ("signature", sig, INTEGER, 0),
            ("poincare", poin, INT_POLYNOMIAL, IntPolynomial.zero()),
        ):
            want = at(table, edge.dest, zero) - at(table, edge.source, zero)
            got = wall_cross_delta(data, 0, ring)
            lines.append(CheckLine(f"{name} {kind} delta", want == got, f"engine {want}, circle {got}"))
    return Report("circle oracle", tuple(lines))

