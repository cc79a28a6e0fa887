"""Exact rational scalars, vectors, and small dense linear algebra.

All geometry in this package runs on `fractions.Fraction`: every predicate
is decided by exact sign tests, never by tolerances.  Vectors are plain
tuples of fractions so they hash, sort, and compare structurally.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
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


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[tuple[RatVector, ...], tuple[int, ...]]:
    """Reduced row echelon form: (nonzero rows, pivot columns).

    The returned rows are a canonical basis of the row space, so two
    inputs spanning the same subspace produce identical output.
    """
    mat = [[rat(x) for x in r] for r in rows]
    mat = [r for r in mat if any(x != 0 for x in r)]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def reduce_mod(basis: Sequence[RatVector], pivots: Sequence[int], v: RatVector) -> RatVector:
    """Reduce v modulo the row space given in RREF form.

    The result has zeros in every pivot column, so it is a canonical
    coset representative: u and v are congruent mod the span iff their
    reductions are equal.
    """
    out = list(v)
    for row, p in zip(basis, pivots):
        f = out[p]
        if f != 0:
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def in_span(basis: Sequence[RatVector], pivots: Sequence[int], v: RatVector) -> bool:
    return is_zero_vector(reduce_mod(basis, pivots, v))


def solve_square(rows: Sequence[RatVector], rhs: RatVector) -> RatVector:
    """Solve M x = rhs exactly for square M given by rows.  Raises on singular M."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_square needs a square system")
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("singular matrix")
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(aug[i][n] for i in range(n))


def nullspace(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[RatVector, ...]:
    """Basis of {x : M x = 0} for M given by rows over Q^ncols."""
    basis, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, p in zip(basis, pivots):
            v[p] = -row[fc]
        out.append(tuple(v))
    return tuple(out)


def primitive_functional(normal: RatVector, offset: Fraction) -> tuple[RatVector, Fraction]:
    """Scale (normal, offset) to coprime integers, preserving orientation."""
    entries = list(normal) + [offset]
    scale = reduce(lcm, (x.denominator for x in entries), 1)
    ints = [int(x * scale) for x in entries]
    g = reduce(gcd, (abs(i) for i in ints), 0)
    if g == 0:
        return normal, offset
    return tuple(Fraction(i // g) for i in ints[:-1]), Fraction(ints[-1] // g)


def primitive_vector(v: RatVector) -> RatVector:
    """Integer primitive vector on the same ray (orientation preserved)."""
    scale = reduce(lcm, (x.denominator for x in v), 1)
    ints = [int(x * scale) for x in v]
    g = reduce(gcd, (abs(i) for i in ints), 0)
    if g == 0:
        return v
    return tuple(Fraction(i // g) for i in ints)


def sign(q: Fraction) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0
