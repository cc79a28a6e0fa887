import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xraycross.exactgeom import AffineSpan
from xraycross.ratmath import (
    ZERO,
    as_vec,
    clear_denominators,
    format_rational,
    is_zero_vector,
    nullspace,
    parse_rational,
    primitive_functional,
    primitive_ints,
    rank,
    rat,
    rref,
    sign,
    solve_square,
    vadd,
    vdot,
    vscale,
    vsub,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


# -- Fraction references: the elimination and span tests the package ran
# before it moved to integers.  Each works on Fractions throughout and
# divides by the pivot at every step.


def rref_by_fractions(rows):
    mat = [[rat(x) for x in r] for r in rows]
    mat = [r for r in mat if any(x != 0 for x in r)]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
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


def rank_by_fractions(rows):
    return len(rref_by_fractions(rows)[0])


def nullspace_by_fractions(rows, ncols):
    basis, pivots = rref_by_fractions(rows)
    out = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [ZERO] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(basis, pivots):
            v[p] = -row[fc]
        out.append(tuple(v))
    return tuple(out)


def solve_square_by_fractions(rows, rhs):
    n = len(rows)
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


def reduce_mod(basis, pivots, v):
    """v reduced modulo the row space given in RREF form: zero in every
    pivot column, so u and v are congruent mod the span iff their
    reductions are equal."""
    out = list(v)
    for row, p in zip(basis, pivots):
        f = out[p]
        if f != 0:
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def in_span(basis, pivots, v):
    return is_zero_vector(reduce_mod(basis, pivots, v))


def primitive_by_fractions(normal, offset):
    entries = list(normal) + [offset]
    scale = reduce(lcm, (x.denominator for x in entries), 1)
    ints = [int(x * scale) for x in entries]
    g = reduce(gcd, (abs(i) for i in ints), 0)
    if g == 0:
        return normal, offset
    return tuple(Fraction(i // g) for i in ints[:-1]), Fraction(ints[-1] // g)


def primitive_vector(v):
    """Reference: the primitive vector on v's ray as Fractions, which
    the Darboux check compared before it took integer rays."""
    n, _ = primitive_by_fractions(tuple(v), ZERO)
    return n


def test_parse_basic():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-4") == Fraction(-4)
    assert parse_rational("0") == 0
    assert parse_rational("-7/3") == Fraction(-7, 3)


@pytest.mark.parametrize("bad", ["3/0", "", "a", "1/2/3", "1.5", "--1"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_basic():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-4)) == "-4"
    assert format_rational(Fraction(0)) == "0"


@given(rationals)
def test_parse_format_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_rat_coercions():
    assert rat(3) == Fraction(3)
    assert rat("5/10") == Fraction(1, 2)
    assert rat(Fraction(2, 7)) == Fraction(2, 7)


def test_vector_ops():
    a = as_vec([1, 2])
    b = as_vec(["1/2", -1])
    assert vadd(a, b) == (Fraction(3, 2), Fraction(1))
    assert vsub(a, b) == (Fraction(1, 2), Fraction(3))
    assert vscale(a, Fraction(1, 2)) == (Fraction(1, 2), Fraction(1))
    assert vdot(a, b) == Fraction(-3, 2)


def test_rref_canonical_and_rank():
    rows = [as_vec([2, 4]), as_vec([1, 2]), as_vec([0, 1])]
    reduced, pivots = rref(rows)
    assert reduced == (as_vec([1, 0]), as_vec([0, 1]))
    assert pivots == (0, 1)
    assert rank(rows) == 2
    assert rank([as_vec([2, 4]), as_vec([1, 2])]) == 1


def test_span_membership_and_coords():
    basis, pivots = rref([as_vec([1, 1, 0]), as_vec([0, 0, 1])])
    span = AffineSpan(as_vec([0, 0, 0]), basis, pivots)
    assert span.lin_contains(as_vec([3, 3, 5]))
    assert not span.lin_contains(as_vec([1, 2, 0]))


def test_reduce_mod():
    """The Fraction reference for weight classes mod a span."""
    basis, pivots = rref([as_vec([1, 1])])
    assert reduce_mod(basis, pivots, as_vec([2, 2])) == as_vec([0, 0])
    r1 = reduce_mod(basis, pivots, as_vec([1, 0]))
    r2 = reduce_mod(basis, pivots, as_vec([2, 1]))
    assert r1 == r2


def test_solve_square():
    rows = [as_vec([2, 1]), as_vec([1, 3])]
    x = solve_square(rows, as_vec([5, 10]))
    assert x == (Fraction(1), Fraction(3))
    with pytest.raises(ValueError, match="singular"):
        solve_square([as_vec([1, 2]), as_vec([2, 4])], as_vec([1, 1]))


def test_nullspace():
    basis = nullspace([as_vec([1, 1, 0])], 3)
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] == 0 or v == (0, 0, 1) or vdot(as_vec([1, 1, 0]), v) == 0
    assert nullspace([as_vec([1, 0]), as_vec([0, 1])], 2) == ()


def test_primitive_functional():
    n, c = primitive_functional(as_vec(["2/3", "4/3"]), Fraction(2))
    assert n == (Fraction(1), Fraction(2))
    assert c == Fraction(3)


def test_primitive_vector():
    assert primitive_ints(as_vec(["2/3", "4/3"])) == (1, 2)
    assert primitive_ints(as_vec([0, "-3/2"])) == (0, -1)
    assert primitive_ints(as_vec([0, 0])) == (0, 0)
    assert primitive_ints(as_vec(["-6/5", "4/5"])) == primitive_vector(as_vec(["-6/5", "4/5"])) == (-3, 2)


def test_sign():
    assert sign(Fraction(5, 7)) == 1
    assert sign(Fraction(-1, 9)) == -1
    assert sign(Fraction(0)) == 0


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_idempotent(rows):
    vecs = [as_vec(r) for r in rows]
    reduced, pivots = rref(vecs)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@st.composite
def seeded_matrices(draw):
    """A seeded rows x cols rational matrix of rank at most r: random
    rational combinations of r generators, so rows repeat, vanish or
    depend on each other, with negative entries and pivots throughout."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    cols = rng.randint(1, 5)
    nrows = rng.randint(0, 5)
    r = rng.randint(0, min(nrows, cols))
    gens = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)] for _ in range(r)]
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.2:
            rows.append(rng.choice(rows))
            continue
        coef = [Fraction(rng.choice((0, rng.randint(-3, 3))), rng.randint(1, 3)) for _ in gens]
        rows.append(tuple(sum((c * g[j] for c, g in zip(coef, gens)), ZERO) for j in range(cols)))
    return rows, cols


@settings(deadline=None, max_examples=300)
@given(seeded_matrices())
def test_integer_elimination_matches_fractions(case):
    rows, cols = case
    assert rref(rows) == rref_by_fractions(rows)
    assert rank(rows) == rank_by_fractions(rows)
    assert nullspace(rows, cols) == nullspace_by_fractions(rows, cols)
    reduced, _ = rref(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)


@settings(deadline=None, max_examples=300)
@given(seeded_matrices(), st.integers(0, 2**32))
def test_solve_square_matches_fractions(case, seed):
    rows, cols = case
    rng = random.Random(seed)
    square = list(rows[:cols])
    square += [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)) for _ in range(cols - len(square))]
    rhs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols))
    try:
        expected = solve_square_by_fractions(square, rhs)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            solve_square(square, rhs)
    else:
        assert solve_square(square, rhs) == expected


def test_solve_square_negative_pivots():
    rows = [as_vec([-2, 3, 1]), as_vec([4, -1, "-1/2"]), as_vec(["-1/3", 0, 5])]
    rhs = as_vec([1, "-7/2", 2])
    assert solve_square(rows, rhs) == solve_square_by_fractions(rows, rhs)


def test_clear_denominators():
    assert clear_denominators(as_vec(["1/2", "-2/3", 4])) == ((3, -4, 24), 6)
    assert clear_denominators(as_vec([0, 5])) == ((0, 5), 1)
    assert clear_denominators(()) == ((), 1)


@given(st.lists(rationals, min_size=1, max_size=4), rationals)
def test_primitive_functional_matches_fractions(normal, offset):
    assert primitive_functional(tuple(normal), offset) == primitive_by_fractions(tuple(normal), offset)
