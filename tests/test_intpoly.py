from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xraycross.intpoly import IntPolynomial

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)
polys = coeff_lists.map(lambda c: IntPolynomial(tuple(c)))


def test_trailing_zeros_stripped():
    p = IntPolynomial((1, 0, 2, 0, 0))
    assert p.coeffs == (1, 0, 2)
    assert IntPolynomial((0, 0)).coeffs == ()


def test_constructors():
    assert IntPolynomial.zero().coeffs == ()
    assert IntPolynomial.one().coeffs == (1,)
    assert IntPolynomial.monomial(3).coeffs == (0, 0, 0, 1)
    assert IntPolynomial.monomial(2, -4).coeffs == (0, 0, -4)


def test_degree_and_coefficient():
    p = IntPolynomial((1, 0, 2))
    assert p.degree == 2
    assert p.coefficient(1) == 0
    assert p.coefficient(2) == 2
    assert p.coefficient(17) == 0
    assert IntPolynomial.zero().degree == -1


def test_ring_ops():
    p = IntPolynomial((1, 1))
    q = IntPolynomial((-1, 1))
    assert (p + q).coeffs == (0, 2)
    assert (p - p).coeffs == ()
    assert (p * q).coeffs == (-1, 0, 1)
    assert (3 * p).coeffs == (3, 3)
    assert (-p).coeffs == (-1, -1)


def test_evaluation():
    p = IntPolynomial((1, 0, 2, 0, 1))
    assert p(1) == 4
    assert p(-1) == 4
    assert p(2) == 25
    assert IntPolynomial.zero()(5) == 0


def test_gaussian_evaluation():
    p = IntPolynomial((1, 0, 2, 0, 1))
    assert p.at_i() == (0, 0)
    q = IntPolynomial((0, 1))
    assert q.at_i() == (0, 1)
    r = IntPolynomial((1, 0, 1, 0, 1))
    assert r.at_i() == (1, 0)
    assert IntPolynomial((2,)).eval_gaussian(3, 1) == (2, 0)


def test_str():
    assert str(IntPolynomial((1, 0, 2, 0, 1))) == "1+2t^2+t^4"
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial((0, -1))) == "-t"


def test_bool():
    assert not IntPolynomial.zero()
    assert IntPolynomial.one()


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + IntPolynomial.zero() == p
    assert p * IntPolynomial.one() == p


@given(polys, polys, st.integers(min_value=-5, max_value=5))
def test_evaluation_is_homomorphism(p, q, t):
    assert (p + q)(t) == p(t) + q(t)
    assert (p * q)(t) == p(t) * q(t)


@given(polys, polys)
def test_gaussian_evaluation_is_homomorphism(p, q):
    pr, pi = p.at_i()
    qr, qi = q.at_i()
    sr, si = (p + q).at_i()
    assert (sr, si) == (pr + qr, pi + qi)
    mr, mi = (p * q).at_i()
    assert (mr, mi) == (pr * qr - pi * qi, pr * qi + pi * qr)


@given(coeff_lists, coeff_lists, st.integers(min_value=-3, max_value=3))
def test_arithmetic_matches_coefficientwise_construction(a, b, s):
    """Results built inside the class equal the publicly constructed
    polynomial with the same coefficients, trailing zeros stripped."""
    p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    n = max(len(a), len(b))
    a0, b0 = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    assert p + q == IntPolynomial(tuple(x + y for x, y in zip(a0, b0)))
    assert p - q == IntPolynomial(tuple(x - y for x, y in zip(a0, b0)))
    assert -p == IntPolynomial(tuple(-x for x in a))
    assert p * s == IntPolynomial(tuple(x * s for x in a))
    for r in (p + q, p - q, -p, p * s, p * q):
        assert not r.coeffs or r.coeffs[-1] != 0
        assert all(type(c) is int for c in r.coeffs)


@pytest.mark.parametrize("bad", [(1, 2.0), (Fraction(1, 2),), ("1",)])
def test_public_construction_rejects_non_int_coefficients(bad):
    with pytest.raises(TypeError, match="ints"):
        IntPolynomial(bad)
