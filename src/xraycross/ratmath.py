"""Exact rational scalars, vectors, and small dense linear algebra.

Every predicate in this package is decided by an exact sign test, never
by a tolerance, and runs on Python ints: a vector's denominators are
cleared once (`clear_denominators`), and elimination is fraction-free
(Bareiss 1968), dividing by a pivot only at the end.  Fractions remain
for stored coordinates, the canonical RREF rows and output.  Vectors are
plain tuples of fractions so they hash, sort, and compare structurally.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction
RatVector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot make a rational from {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", with the "/den" part omitted for integers.

    Rejects zero denominators and anything that is not a ratio of
    integers (floats carry binary rounding and are not welcome here).
    """
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            d = int(den.strip())
            if d == 0:
                raise ValueError
            return Fraction(int(num.strip()), d)
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid rational {text!r}") from None


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_point(p: Iterable[Fraction]) -> str:
    return "(" + ", ".join(format_rational(c) for c in p) + ")"


def as_vec(coords: Iterable[int | str | Fraction]) -> RatVector:
    return tuple(rat(c) for c in coords)


def vadd(a: RatVector, b: RatVector) -> RatVector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: RatVector, b: RatVector) -> RatVector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: RatVector) -> RatVector:
    return tuple(-x for x in a)


def vscale(a: RatVector, s: Fraction) -> RatVector:
    return tuple(x * s for x in a)


def vdot(a: RatVector, b: RatVector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def is_zero_vector(v: RatVector) -> bool:
    return all(x == 0 for x in v)


def clear_denominators(v: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(P, D) with v == P / D: D > 0 is the lcm of v's denominators and
    P the integer numerators over it.  A sign test a . v <= b on an
    integer functional is then a . P <= b * D, in ints."""
    pairs = [c.as_integer_ratio() for c in v]
    den = lcm(*[q for _, q in pairs])
    return tuple([p * (den // q) for p, q in pairs]), den


def idot(a: Sequence[int], b: Sequence[int]) -> int:
    """Dot product of two integer vectors."""
    return sum(map(mul, a, b))


def _eliminate(mat: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer
    rows, in place: (pivot columns, last pivot d).

    Each step replaces every other row by (pivot * row - entry * pivot
    row) / previous pivot, a division that is exact because every entry
    is a minor of the input.  At the end the first len(pivots) rows are
    d times the reduced row echelon rows and the rest are zero.
    """
    pivots: list[int] = []
    prev = 1
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r]
        pv = row[c]
        for i, other in enumerate(mat):
            if i != r:
                f = other[c]
                mat[i] = [(pv * x - f * y) // prev for x, y in zip(other, row)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return pivots, prev


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each nonzero row with its own denominators cleared; scaling a row
    leaves the row space unchanged."""
    return [list(clear_denominators(r)[0]) for r in rows if any(r)]


def cross_product(rows: list[list[int]], k: int) -> tuple[int, ...] | None:
    """Generalized cross product of k - 1 integer rows in Z^k: a nonzero
    integer vector orthogonal to all of them, or None when they are
    dependent.  Elimination (in place) leaves the rows d times their
    RREF, so the vector is d on the one free column and minus each row's
    entry there on that row's pivot: the (k-1) x (k-1) minors, up to sign.
    """
    pivots, d = _eliminate(rows)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    u = [0] * k
    u[free] = d
    for row, p in zip(rows, pivots):
        u[p] = -row[free]
    return tuple(u)


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[tuple[RatVector, ...], tuple[int, ...]]:
    """Reduced row echelon form: (nonzero rows, pivot columns).

    The returned rows are a canonical basis of the row space, so two
    inputs spanning the same subspace produce identical output.  The
    elimination runs in integers; each entry is divided by the last
    pivot once, at the end.
    """
    mat = _integer_rows(rows)
    pivots, d = _eliminate(mat)
    return tuple(tuple(Fraction(x, d) for x in mat[i]) for i in range(len(pivots))), tuple(pivots)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(_eliminate(_integer_rows(rows))[0])


def solve_scaled(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Solve M x = rhs exactly for square M given by rows, as (X, d) with
    x == X / d: the augmented rows are eliminated in integers and x is
    their last column over the last pivot.  Raises on singular M."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_square needs a square system")
    aug = [list(clear_denominators(tuple(r) + (rhs[i],))[0]) for i, r in enumerate(rows)]
    pivots, d = _eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(aug[i][n] for i in range(n)), d


def solve_square(rows: Sequence[RatVector], rhs: RatVector) -> RatVector:
    """Solve M x = rhs exactly for square M given by rows.  Raises on singular M."""
    scaled, d = solve_scaled(rows, rhs)
    return tuple(Fraction(x, d) for x in scaled)


def nullspace(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[RatVector, ...]:
    """Basis of {x : M x = 0} for M given by rows over Q^ncols: one
    vector per free column, 1 there and zero on the other free columns."""
    mat = _integer_rows(rows)
    pivots, d = _eliminate(mat)
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, p in zip(mat, pivots):
            v[p] = Fraction(-row[fc], d)
        out.append(tuple(v))
    return tuple(out)


def primitive_functional(normal: RatVector, offset: Fraction) -> tuple[RatVector, Fraction]:
    """Scale (normal, offset) to coprime integers, preserving orientation."""
    ints, _ = clear_denominators(tuple(normal) + (offset,))
    g = gcd(*ints)
    if g == 0:
        return normal, offset
    return tuple(Fraction(i // g) for i in ints[:-1]), Fraction(ints[-1] // g)


def primitive_ints(v: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on v's ray (orientation preserved);
    the zero vector stays zero."""
    ints, _ = clear_denominators(v)
    g = gcd(*ints) or 1
    return tuple([i // g for i in ints])


def sign(q: Fraction) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0
