"""Exact rational scalars, vectors, and small dense linear algebra.

Every predicate in this package is decided by an exact sign test, never
by a tolerance, and runs on Python ints: a vector's denominators are
cleared once (`clear_denominators`), and elimination is fraction-free
(Bareiss 1968), dividing by a pivot only at the end.  The canonical
RREF rows stay in integers too, over one common denominator
(`int_rref`), and subspaces are compared by an integer key (`span_key`).
Fractions remain for input coordinates and output, parsed from ASCII
integers only (`parse_rational`).  Vectors are plain tuples of
fractions so they hash, sort, and compare structurally.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction
RatVector = tuple[Fraction, ...]

ZERO = Fraction(0)


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

    Each part is ASCII digits with an optional sign, and whitespace may
    surround the text and either part.  Rejects zero denominators and
    anything that is not a ratio of such integers: floats carry binary
    rounding and are not welcome here, and `int` alone would also take
    underscores ("1_000") and non-ASCII digits.
    """
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(_parse_int(num), _parse_int(den))
        return Fraction(_parse_int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid rational {text!r}") from None


def _parse_int(text: str) -> int:
    """An optionally signed run of ASCII digits, surrounding whitespace
    stripped: what `int` takes of an ASCII string with no underscore."""
    s = text.strip()
    if not s.isascii() or "_" in s:
        raise ValueError(s)
    return int(s)


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_point(p: Iterable[Fraction]) -> str:
    return "(" + ", ".join(format_rational(c) for c in p) + ")"


def as_vec(coords: Iterable[int | str | Fraction]) -> RatVector:
    """coords as a tuple of Fractions (`rat`); a tuple of Fractions is
    returned as it is."""
    v = tuple(coords)
    for c in v:
        if type(c) is not Fraction:
            return tuple([rat(c) for c in v])
    return v


def vsub(a: RatVector, b: RatVector) -> RatVector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: RatVector) -> RatVector:
    return tuple(-x for x in a)


def vdot(a: RatVector, b: RatVector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


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

    At k = 2 the one row (a, b) is its own RREF times its pivot entry,
    so the vector is read off in closed form, as elimination gives it:
    (-b, a) when a != 0, (b, 0) when only b != 0, None for the zero row.
    The row is then left as it was.
    """
    if k == 2:
        (a, b), = rows
        if a:
            return -b, a
        return (b, 0) if b else None
    pivots, d = _eliminate(rows)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    u = [0] * k
    u[free] = d
    for row, p in zip(rows, pivots):
        u[p] = -row[free]
    return tuple(u)


def int_rref(rows: Iterable[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """Reduced row echelon form of integer rows over one denominator:
    (R, L, pivot columns) with the RREF rows R / L, where L > 0 is the
    lcm of the RREF entries' denominators, so R / L is what
    `clear_denominators` gives for them.  Elimination leaves the rows d
    times their RREF, and the lcm is |d| over its gcd with their entries.

    One row needs no elimination: its RREF row is the row over its pivot
    entry, the first nonzero one, so it is the row over its gcd taken
    with the pivot's sign, over the pivot divided by the same.  A zero
    row, like no rows, gives no RREF rows over L = 1.
    """
    mat = [list(r) for r in rows]
    if len(mat) == 1:
        row = mat[0]
        p = next((c for c, x in enumerate(row) if x), None)
        if p is None:
            return (), 1, ()
        g = gcd(*row)
        if row[p] < 0:
            g = -g
        return (tuple([x // g for x in row]),), row[p] // g, (p,)
    pivots, d = _eliminate(mat)
    top = mat[: len(pivots)]
    g = gcd(d, *[x for row in top for x in row])
    if d < 0:
        g = -g
    return tuple([tuple([x // g for x in row]) for row in top]), d // g, tuple(pivots)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(_eliminate(_integer_rows(rows))[0])


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of integer rows, which have no denominators to clear."""
    return len(_eliminate([list(r) for r in rows])[0])


def span_key(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """A canonical integer form of the row space of integer rows: its
    RREF rows, each made primitive with a positive pivot entry.

    The RREF of a subspace is unique, and so is the primitive multiple of
    a row that is positive on its pivot, so two row sets span the same
    subspace exactly when their keys are equal.  `int_rref` gives each
    RREF row times a positive denominator, which `primitive` divides out."""
    return tuple([primitive(row) for row in int_rref(rows)[0]])


def solve_scaled(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Solve M x = rhs exactly for square M given by rows, as (X, d) with
    x == X / d: the augmented rows are eliminated in integers and x is
    their last column over the last pivot.  Raises on singular M."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_scaled needs a square system")
    aug = [list(clear_denominators(tuple(r) + (rhs[i],))[0]) for i, r in enumerate(rows)]
    pivots, d = _eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(aug[i][n] for i in range(n)), d


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of integer v (orientation
    preserved); the zero vector stays zero."""
    g = gcd(*v) or 1
    return tuple([x // g for x in v])

