"""Vector-space laws for sparse formal linear combinations."""

import math
from fractions import Fraction

import pytest
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


def test_a_float_coefficient_is_a_type_error():
    """Coefficients are exact: a float is refused where it enters, not
    stored as the binary fraction nearest to it."""
    x = LinComb.single("a")
    for make in (lambda: LinComb({"a": 0.1}), lambda: 0.5 * x,
                 lambda: LinComb.sum_terms([("a", 0.5)]), lambda: LinComb.single("a", 1.0)):
        with pytest.raises(TypeError, match="float"):
            make()
    # int, bool and Fraction coefficients stay exact
    assert LinComb({"a": Fraction(1, 2), "b": True}) == Fraction(1, 2) * x + LinComb.single("b")


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
@given(st.lists(st.tuples(wide_scalars, pair_lists), max_size=4),
       st.lists(st.tuples(wide_scalars, keys), max_size=3),
       st.dictionaries(keys, pair_lists))
def test_images_agrees_with_a_dict_oracle(parts, singles, columns):
    """The combination ``TableauModule._word_sum`` makes: sum_i c_i * column_i(x_i),
    with the identity column (a plain sum) next to a general one, and x_i a
    combination or a single key."""
    def column(key):
        return LinComb.sum_terms(columns.get(key, []))

    xs = [(c, LinComb.sum_terms(first)) for c, first in parts] + singles
    image = LinComb.images([(c, x, col) for c, x in xs for col in (column, LinComb.single)])
    want = oracle((k2, c * a * v)
                  for c, first in parts + [(c, [(key, 1)]) for c, key in singles]
                  for col in (lambda k: oracle(columns.get(k, [])), lambda k: {k: 1})
                  for k, a in oracle(first).items() for k2, v in col(k).items())
    assert_agrees(image, want)
    assert_agrees(LinComb.images([]), {})


# ---------------------------------------------------------------------------
# A lone unit column is returned as it is
# ---------------------------------------------------------------------------

COLUMNS = {"a": LinComb.sum_terms([("b", Fraction(1, 2)), ("c", 3)]),
           "b": LinComb.sum_terms([("c", Fraction(-2, 3))])}


def test_images_returns_a_lone_unit_column_itself():
    column = COLUMNS.__getitem__
    assert LinComb.images([(1, LinComb.single("a"), column)]) is column("a")
    assert LinComb.images([(1, "a", column)]) is column("a")


def test_images_near_a_unit_column_is_a_new_sum():
    """Each near miss is summed in integers and agrees with the dict oracle."""
    column = COLUMNS.__getitem__
    oracle_column = {key: dict(col.items()) for key, col in COLUMNS.items()}.__getitem__
    for c, terms in [(2, {"a": 1}), (Fraction(1, 2), {"a": 1}), (1, {"a": -1}),
                     (1, {"a": 1, "b": 1})]:
        image = LinComb.images([(c, LinComb(terms), column)])
        assert image is not column("a")
        assert_agrees(image, oracle((k2, c * a * v) for k, a in terms.items()
                                    for k2, v in oracle_column(k).items()))


def test_single_is_the_one_term_combination():
    for c in (1, -3, Fraction(4, 6), Fraction(-1, 2), 0):
        made, want = LinComb.single("a", c), LinComb({"a": c})
        assert made == want
        assert (made._den, made._terms) == (want._den, want._terms)
    assert LinComb.single("a", 0).is_zero
