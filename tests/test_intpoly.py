from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xraycross.intpoly import IntPolynomial


def monomial(degree, coeff=1):
    """coeff * t^degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return IntPolynomial((0,) * degree + (coeff,))


def eval_gaussian(p, re, im):
    """p at the Gaussian integer re + im*i by Horner's rule, as (real, imag)."""
    ar, ai = 0, 0
    for c in reversed(p.coeffs):
        ar, ai = ar * re - ai * im + c, ar * im + ai * re
    return ar, ai


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)
polys = coeff_lists.map(lambda c: IntPolynomial(tuple(c)))


def test_trailing_zeros_stripped():
    p = IntPolynomial((1, 0, 2, 0, 0))
    assert p.coeffs == (1, 0, 2)
    assert IntPolynomial((0, 0)).coeffs == ()


def test_constructors():
    assert IntPolynomial.zero().coeffs == ()
    assert IntPolynomial.one().coeffs == (1,)
    assert monomial(3).coeffs == (0, 0, 0, 1)
    assert monomial(2, -4).coeffs == (0, 0, -4)


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
    assert eval_gaussian(IntPolynomial((2,)), 3, 1) == (2, 0)


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


# Coefficients drawn zero half the time, so that zero operands, even-only
# polynomials and trailing zeros all occur.
sparse_coeffs = st.lists(st.one_of(st.just(0), st.integers(min_value=-9, max_value=9)), max_size=9)


@st.composite
def cancelling_pairs(draw):
    """Two coefficient lists of equal length whose top coefficients are
    negatives of each other, so their sum ends in zeros."""
    low = st.lists(st.integers(min_value=-9, max_value=9), min_size=draw(st.integers(0, 4)))
    a, b = draw(low), draw(low)
    n = min(len(a), len(b))
    top = draw(st.lists(st.integers(min_value=-9, max_value=9).filter(bool), min_size=1, max_size=4))
    return a[:n] + top, b[:n] + [-c for c in top]


def ref_poly(coeffs):
    """The plain-list reference: coefficients with trailing zeros removed."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return ref_poly([x + sign * y for x, y in zip(a, b)])


def ref_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_poly(out)


def check_against_reference(a, b, s):
    p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    assert (p + q).coeffs == ref_add(a, b)
    assert (p - q).coeffs == ref_add(a, b, -1)
    assert (p * q).coeffs == ref_mul(a, b)
    assert (p * s).coeffs == (s * p).coeffs == ref_poly([c * s for c in a])
    for r in (p + q, p - q, p * q, p * s):
        assert not r.coeffs or r.coeffs[-1] != 0
        assert all(type(c) is int for c in r.coeffs)


@given(sparse_coeffs, sparse_coeffs, st.one_of(st.sampled_from([0, 1, -1]), st.integers(min_value=-5, max_value=5)))
def test_ring_ops_match_list_reference(a, b, s):
    """+, - and * (by a polynomial and by an int) against the plain-list
    reference, zero operands and zero coefficients at odd and even
    degrees included."""
    check_against_reference(a, b, s)


@given(cancelling_pairs(), st.sampled_from([0, 1, -1, 2]))
def test_ring_ops_match_list_reference_under_cancellation(pair, s):
    """A sum whose top coefficients cancel is stripped down to the first
    nonzero coefficient below them, or to zero."""
    a, b = pair
    check_against_reference(a, b, s)
    assert len((IntPolynomial(tuple(a)) + IntPolynomial(tuple(b))).coeffs) < len(a)


@given(sparse_coeffs.filter(lambda a: ref_poly(a) not in ((), (1,))))
def test_adding_zero_and_multiplying_by_one_return_the_operand(a):
    """Values are immutable, so these identities hand back the operand
    itself (neither 0 nor 1, so there is one to choose) and build
    nothing."""
    p, zero, one = IntPolynomial(tuple(a)), IntPolynomial.zero(), IntPolynomial.one()
    assert p + zero is p
    assert zero + p is p
    assert p - zero is p
    assert p * 1 is p and 1 * p is p
    assert p * one is p and one * p is p
    assert p * 0 == zero and p * zero == zero and zero * p == zero


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=20))
def test_at_i_matches_gaussian_evaluation(a):
    """at_i, read off the coefficients by exponent mod 4, equals Horner
    evaluation at 0 + 1i."""
    p = IntPolynomial(tuple(a))
    assert p.at_i() == eval_gaussian(p, 0, 1)
