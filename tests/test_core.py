"""The one word evaluator against the literal nested-``act`` formulas.

``core.bracket_defect`` and ``core.crs_via_composition`` both sum signed
generator words in one pass; the oracles here spell each word out as nested
``act`` calls and add the results with ``LinComb`` arithmetic.
"""

import itertools
import random

import pytest

from gtmod.finite import FiniteModule
from gtmod.lincomb import LinComb
from gtmod.verify import Config, module_for, window_symbols

GENERATORS = [(a, b) for a in range(1, 4) for b in range(1, 4)]


def _window_1(name):
    cfg = Config.from_file(f"fixtures/{name}").with_overrides(window=1)
    return module_for(cfg), window_symbols(cfg)


def _finite():
    mod = FiniteModule((2, 1, 0))
    return mod, mod.basis


MODULES = {"generic_n3": lambda: _window_1("generic_n3.json"),
           "singular_n3": lambda: _window_1("singular_n3.json"),
           "finite_210": _finite}


def _nested_bracket_defect(mod, g1, g2, sym):
    """E_ab E_cd x - E_cd E_ab x - delta_bc E_ad x + delta_da E_cb x."""
    (a, b), (c, d) = g1, g2
    x = LinComb.single(sym)
    out = mod.act(a, b, mod.act(c, d, x)) - mod.act(c, d, mod.act(a, b, x))
    if b == c:
        out = out - mod.act(a, d, x)
    if d == a:
        out = out + mod.act(c, b, x)
    return out


def _nested_central_word(mod, r, s, x):
    """sum over i_1..i_s of E_{i_1 i_2} ... E_{i_s i_1} x, innermost first."""
    out = LinComb.zero()
    for tup in itertools.product(range(1, r + 1), repeat=s):
        y = x
        for l, m in reversed(list(zip(tup, tup[1:] + tup[:1]))):
            y = mod.act(l, m, y)
        out = out + y
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_bracket_defect_matches_nested_act(name):
    mod, symbols = MODULES[name]()
    for sym in symbols:
        for g1, g2 in itertools.product(GENERATORS, repeat=2):
            assert mod.bracket_defect(g1, g2, sym) == _nested_bracket_defect(mod, g1, g2, sym), \
                (g1, g2, sym)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_central_words_match_nested_act(name):
    mod, symbols = MODULES[name]()
    rng = random.Random(20240601)
    picked = rng.sample(symbols, 3)
    # a combination of two symbols, so words act on more than one key
    starts = [LinComb.single(sym) for sym in picked]
    starts.append(LinComb.sum_terms([(picked[0], 2), (picked[1], -1)]))
    for x in starts:
        for r in range(1, 4):
            for s in range(1, 4):
                assert mod.crs_via_composition(r, s, x) == _nested_central_word(mod, r, s, x), \
                    (r, s, x)
