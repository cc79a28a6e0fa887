from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xraycross.ratmath import (
    as_vec,
    format_rational,
    in_span,
    nullspace,
    parse_rational,
    primitive_functional,
    primitive_vector,
    rank,
    rat,
    reduce_mod,
    rref,
    sign,
    solve_square,
    vadd,
    vdot,
    vscale,
    vsub,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


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
    assert in_span(basis, pivots, as_vec([3, 3, 5]))
    assert not in_span(basis, pivots, as_vec([1, 2, 0]))


def test_reduce_mod():
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
    assert primitive_vector(as_vec(["2/3", "4/3"])) == (Fraction(1), Fraction(2))
    assert primitive_vector(as_vec([0, "-3/2"])) == (Fraction(0), Fraction(-1))


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
