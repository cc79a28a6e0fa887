import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xraycross.exactgeom import AffineSpan
from xraycross.ratmath import (
    ZERO,
    _eliminate,
    _integer_rows,
    as_vec,
    clear_denominators,
    cross_product,
    format_rational,
    idot,
    int_rank,
    int_rref,
    parse_rational,
    primitive,
    rank,
    rat,
    solve_scaled,
    span_key,
    vdot,
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


# -- Rational vector helpers the package no longer calls, for building
# test data and references.


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(a, s):
    return tuple(x * s for x in a)


def primitive_ints(v):
    """The primitive integer vector on the ray of rational v (orientation
    preserved); the zero vector stays zero."""
    return primitive(clear_denominators(v)[0])


def fraction_span(base, basis, pivots):
    """The AffineSpan of a Fraction RREF basis: its rows over the lcm of
    all their entries' denominators, as `int_rref` gives them."""
    d = len(base)
    flat, den = clear_denominators([c for row in basis for c in row])
    return AffineSpan(base, tuple(flat[i : i + d] for i in range(0, len(flat), d)), den, pivots)


def lin_contains(span, v):
    """Does the rational vector v lie in the linear part of span?"""
    return span.lin_holds(clear_denominators(v)[0])


def is_zero_vector(v):
    return all(x == 0 for x in v)


def solve_square(rows, rhs):
    """Solve M x = rhs exactly for square M given by rows, in Fractions
    read off the integer solve (`solve_scaled`).  Raises on singular M."""
    scaled, d = solve_scaled(rows, rhs)
    return tuple(Fraction(x, d) for x in scaled)


def sign(q):
    return (q > 0) - (q < 0)


def rref(rows):
    """Reduced row echelon form in Fractions: (nonzero rows, pivot
    columns), a canonical basis of the row space, from the integer
    elimination (`int_rref`) with each entry divided by the common
    denominator once, at the end."""
    reduced, den, pivots = int_rref(_integer_rows(rows))
    return tuple(tuple(Fraction(x, den) for x in row) for row in reduced), pivots


def test_parse_basic():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-4") == Fraction(-4)
    assert parse_rational("0") == 0
    assert parse_rational("-7/3") == Fraction(-7, 3)


@pytest.mark.parametrize("bad", ["3/0", "", "a", "1/2/3", "1.5", "--1", "1_000", "\u0661\u0662/\u0663"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_keeps_whitespace():
    """Whitespace around the text and around either part is accepted."""
    assert parse_rational(" 3 / 2\n") == Fraction(3, 2)
    assert parse_rational("\t-4 ") == Fraction(-4)
    assert parse_rational("+6/ 4") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_rational("- 4")


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
    span = fraction_span(as_vec([0, 0, 0]), basis, pivots)
    assert lin_contains(span, as_vec([3, 3, 5]))
    assert not lin_contains(span, as_vec([1, 2, 0]))


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
    assert int_rank([clear_denominators(row)[0] for row in rows]) == rank_by_fractions(rows)
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


@st.composite
def seeded_matrix_pairs(draw):
    """Two seeded integer row sets in Z^1..Z^5, each random integer
    combinations of a random subset of one set of generators, so their
    row spaces are often equal and often not; rows repeat, vanish and
    carry either sign."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    cols = rng.randint(1, 5)
    gens = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rng.randint(0, cols))]

    def rows():
        use = [g for g in gens if rng.random() < 0.8]
        out = []
        for _ in range(rng.randint(0, 4)):
            coef = [rng.choice((0, rng.randint(-3, 3))) for _ in use]
            out.append(tuple(sum(c * g[j] for c, g in zip(coef, use)) for j in range(cols)))
        return out + [tuple(rng.choice((-2, -1, 1, 3)) * x for x in g) for g in use]

    return rows(), rows()


@settings(deadline=None, max_examples=300)
@given(seeded_matrix_pairs())
def test_span_key_equal_exactly_when_rref_equal(case):
    """Two row sets get equal keys exactly when their RREF bases are
    equal, and each key row is primitive with a positive pivot, the
    RREF row's positive multiple."""
    a, b = case
    assert (span_key(a) == span_key(b)) == (rref(a) == rref(b))
    for rows in (a, b):
        key = span_key(rows)
        basis, pivots = rref_by_fractions(rows)
        assert len(key) == len(basis)
        for row, reduced, p in zip(key, basis, pivots):
            assert gcd(*row) == 1 and row[p] > 0
            assert tuple(Fraction(x, row[p]) for x in row) == reduced


# -- The closed forms of the one-row cases against Bareiss elimination
# (`_eliminate`), which every case of two or more rows still runs.


def int_rref_by_elimination(rows):
    """`int_rref` as elimination gives it: the rows left d times their
    RREF, divided by the gcd of d and their entries, signed as d."""
    mat = [list(r) for r in rows]
    pivots, d = _eliminate(mat)
    top = mat[: len(pivots)]
    g = gcd(d, *[x for row in top for x in row])
    if d < 0:
        g = -g
    return tuple(tuple(x // g for x in row) for row in top), d // g, tuple(pivots)


def cross_product_by_elimination(rows, k):
    """`cross_product` as elimination gives it: d on the free column and
    minus each row's entry there on that row's pivot."""
    pivots, d = _eliminate([list(r) for r in rows])
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    u = [0] * k
    u[free] = d
    for row, p in zip(rows, pivots):
        u[p] = -row[free]
    return tuple(u)


small_ints = st.integers(-12, 12)


@given(st.lists(small_ints, min_size=1, max_size=4))
@example([0])
@example([0, 0, 0, 0])
@example([0, -4, 6])
@example([-3, 0, 0, 9])
def test_one_row_int_rref_matches_elimination(row):
    """One row of length 1-4, zero rows and negative leading entries
    included, gives what elimination gives, and the RREF row in Fractions."""
    assert int_rref([row]) == int_rref_by_elimination([row])
    reduced, den, pivots = int_rref([row])
    assert (tuple(tuple(Fraction(x, den) for x in r) for r in reduced), pivots) == rref_by_fractions([row])


@given(st.tuples(small_ints, small_ints))
@example((0, 0))
@example((0, -5))
@example((-2, 7))
def test_planar_cross_product_matches_elimination(row):
    """At k = 2: (-b, a), (b, 0) or None, exactly as elimination gives."""
    want = cross_product_by_elimination([row], 2)
    assert cross_product([list(row)], 2) == want
    if want is not None:
        assert idot(want, row) == 0 and any(want)
