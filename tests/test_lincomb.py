"""Vector-space laws for sparse formal linear combinations."""

import math
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


# ---------------------------------------------------------------------------
# Against a plain dict[key, Fraction] oracle
# ---------------------------------------------------------------------------

wide_scalars = st.fractions(min_value=-9, max_value=9, max_denominator=12)
pair_lists = st.lists(st.tuples(keys, wide_scalars), max_size=8)


def oracle(pairs) -> dict:
    """The sum of ``(key, coeff)`` pairs as a dict, a key dropped when its
    sum cancels and appended again when a later pair revives it."""
    out = {}
    for key, c in pairs:
        acc = out.get(key, 0) + c
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def oracle_repr(d: dict) -> str:
    parts = []
    for key, c in sorted(d.items(), key=lambda kv: repr(kv[0])):
        parts.append(f"{key!r}" if c == 1 else f"-{key!r}" if c == -1 else f"{c}*{key!r}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def assert_agrees(x: LinComb, want: dict):
    """x holds exactly the oracle's terms, in its order, in canonical form."""
    assert list(x.items()) == list(want.items())
    assert all(type(c) is Fraction for _, c in x.items())
    for key in ["a", "b", "c", "d", "absent"]:
        assert x.coeff(key) == want.get(key, 0)
    assert repr(x) == oracle_repr(want)
    assert len(x) == len(want) and bool(x) == bool(want) and x.is_zero == (not want)
    fresh = LinComb(want)
    assert x == fresh and hash(x) == hash(fresh)
    # canonical form: equal values have equal internal state
    assert (x._den, x._terms) == (fresh._den, fresh._terms)
    assert x._den > 0 and math.gcd(x._den, *x._terms.values()) == 1


@settings(max_examples=150, deadline=None)
@given(pair_lists, pair_lists, pair_lists, wide_scalars)
def test_lincomb_agrees_with_a_dict_oracle(first, second, later, q):
    # every term of ``first`` is cancelled, then ``later`` may revive its keys
    revived = first + [(key, -c) for key, c in first] + later
    assert_agrees(LinComb.sum_terms(revived), oracle(revived))
    x, y = LinComb.sum_terms(first), LinComb.sum_terms(second)
    ox, oy = oracle(first), oracle(second)
    assert_agrees(x, ox)
    assert_agrees(x + y, oracle([*ox.items(), *oy.items()]))
    assert_agrees(x - y, oracle([*ox.items(), *((k, -c) for k, c in oy.items())]))
    assert_agrees(-x, {k: -c for k, c in ox.items()})
    assert_agrees(0 * x, {})
    assert_agrees(q * x, oracle((k, q * c) for k, c in ox.items()))
    assert (x == y) == (ox == oy)
    if ox == oy:
        assert hash(x) == hash(y)


@settings(max_examples=100, deadline=None)
@given(pair_lists, st.dictionaries(keys, pair_lists))
def test_linear_image_agrees_with_a_dict_oracle(first, columns):
    """The combination ``core.act`` makes: sum_k c_k * column(k)."""
    x = LinComb.sum_terms(first)
    image = x.linear_image(lambda key: LinComb.sum_terms(columns.get(key, [])))
    ox = oracle(first)
    want = oracle((k2, c * v) for k, c in ox.items()
                  for k2, v in oracle(columns.get(k, [])).items())
    assert_agrees(image, want)
    assert_agrees(LinComb.total([x, image, -x]),
                  oracle([*ox.items(), *want.items(), *((k, -c) for k, c in ox.items())]))
