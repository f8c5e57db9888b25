"""Exact rational-function substrate: normalization, point operators, field laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtmod.ratfun import ONE, TWO_T, PoleError, Poly, RatFun, T, poly_gcd

F = Fraction


def test_normalize_cancels_common_factor():
    # (t^2 - t) / t  ->  t - 1
    f = RatFun(Poly([0, -1, 1]), T)
    assert f.num == Poly([-1, 1])
    assert f.den == ONE


def test_normalize_scalar_denominator():
    # (2t + 2) / 2  ->  t + 1
    f = RatFun(Poly([2, 2]), Poly([2]))
    assert f.num == Poly([1, 1])
    assert f.den == ONE


def test_normalize_linear_factor():
    # (t^2 - 1) / (t - 1)  ->  t + 1
    f = RatFun(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert f.num == Poly([1, 1])
    assert f.den == ONE


def test_normalize_monic_denominator():
    f = RatFun(Poly([1]), Poly([0, 2]))  # 1/(2t)
    assert f.den == T
    assert f.num == Poly([F(1, 2)])


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RatFun(ONE, Poly())


def test_pole_order():
    assert RatFun(ONE, Poly([0, 0, 1])).pole_order() == 2
    # (t^2 + t)/t cancels before counting
    assert RatFun(Poly([0, 1, 1]), T).pole_order() == 0
    assert RatFun(ONE, Poly([-1, 1])).pole_order() == 0


def test_ev():
    f = RatFun(Poly([1, 1]), Poly([-1, 1]))  # (t+1)/(t-1)
    assert f.ev() == -1
    assert RatFun(F(5, 3)).ev() == F(5, 3)
    with pytest.raises(PoleError):
        RatFun(ONE, T).ev()


def test_half_derivative():
    assert RatFun(Poly([1, 3, 1])).d() == F(3, 2)
    assert RatFun(TWO_T).d() == 1  # this is x - y itself
    assert RatFun(F(7, 5)).d() == 0
    with pytest.raises(PoleError):
        RatFun(ONE, T).d()


def test_tau_reflect():
    f = RatFun(Poly([0, 0, 1, 1]))  # t^3 + t^2
    assert f.tau() == RatFun(Poly([0, 0, 1, -1]))
    g = RatFun(ONE, TWO_T)
    assert g.tau() == -g
    even = RatFun(Poly([4, 0, 5]))
    assert even.tau() == even


def test_divided_difference_odd_part():
    f = RatFun(Poly([0, 3, 1]))  # t^2 + 3t
    assert f.divided_difference() == RatFun(3)
    even = RatFun(Poly([1, 0, 2]))
    assert even.divided_difference().is_zero


def test_divided_difference_oracle_value():
    # Independent oracle: for f = 1/(t-2), ev of (f - f(-t))/(2t) must equal
    # 2 * d(f); both sides computed separately.
    f = RatFun(ONE, Poly([-2, 1]))
    h = f.divided_difference()
    assert h == RatFun(ONE, Poly([-4, 0, 1]))  # 1/((t-2)(t+2))
    assert h.ev() == F(-1, 4)
    assert f.d() == F(-1, 8)
    assert h.ev() == 2 * f.d()


def _random_ratfun(rng: random.Random) -> RatFun:
    def rnd_poly(max_deg):
        return Poly([F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(1, max_deg + 1))])
    num = rnd_poly(3)
    den = Poly()
    while den.is_zero:
        den = rnd_poly(2)
    return RatFun(num, den)


def test_field_laws_randomized():
    rng = random.Random(20240601)
    for _ in range(1000):
        a, b, c = (_random_ratfun(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if not a.is_zero:
            assert a / a == RatFun(1)
            assert a * (1 / a) == RatFun(1)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(small_fractions, min_size=0, max_size=4).map(Poly)


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_tau_is_an_involution(p, q):
    if q.is_zero:
        q = ONE
    f = RatFun(p, q)
    assert f.tau().tau() == f


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_gcd_divides_both(p, q):
    if p.is_zero and q.is_zero:
        return
    g = poly_gcd(p, q)
    assert (p % g).is_zero
    assert (q % g).is_zero


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_point_operator_identities(p, q):
    """The three exchange identities between ev, d and the divided difference."""
    if q.is_zero or q.order_at_zero() > 0:
        q = q + ONE
        if q.is_zero or q.order_at_zero() > 0:
            return
    f = RatFun(p, q)
    # symmetric functions have vanishing half-derivative
    if f == f.tau():
        assert f.d() == 0
    # ev(h) = 2 d(f) whenever h is smooth at 0
    h = f.divided_difference()
    if h.pole_order() == 0:
        assert h.ev() == 2 * f.d()
    # ev(f) = d((x - y) f)
    assert f.ev() == (RatFun(TWO_T) * f).d()
