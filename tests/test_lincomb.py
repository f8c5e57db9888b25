"""Vector-space laws for sparse formal linear combinations."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gtmod.lincomb import LinComb

keys = st.sampled_from(["a", "b", "c", "d"])
scalars = st.fractions(min_value=-9, max_value=9, max_denominator=5)
combos = st.dictionaries(keys, scalars, max_size=4).map(LinComb)


@settings(max_examples=200, deadline=None)
@given(combos, combos, combos)
def test_addition_is_an_abelian_group(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + LinComb.zero() == x
    assert x - x == LinComb.zero()
    assert -(-x) == x


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, combos, combos)
def test_scalar_action_is_bilinear(a, b, x, y):
    assert a * (x + y) == a * x + a * y
    assert (a + b) * x == a * x + b * x
    assert (a * b) * x == a * (b * x)
    assert 1 * x == x
    assert 0 * x == LinComb.zero()


@settings(max_examples=100, deadline=None)
@given(combos)
def test_no_zero_coefficients_stored(x):
    assert all(c != 0 for _, c in x.items())
    assert x.coeff("nothing-here") == Fraction(0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(keys, scalars), max_size=8),
       st.lists(st.tuples(keys, scalars), max_size=8))
def test_sum_terms_is_the_fold_of_addition(first, later):
    # every term of ``first`` is cancelled, then ``later`` may revive its keys
    terms = first + [(key, -c) for key, c in first] + later
    fold = LinComb.zero()
    for key, c in terms:
        fold = fold + LinComb.single(key, c)
    total = LinComb.sum_terms(terms)
    assert total == fold
    assert list(total.items()) == list(fold.items())
    assert all(c != 0 for _, c in total.items())
