"""The one word evaluator against the literal nested-``act`` formulas,
and on a basis symbol against its single-term combination; the bounded
column store of ``TableauModule.sweep`` against the unbounded one; and
the character grouping of ``TableauModule.character_classes``.

``bracket_defect`` and ``crs_via_composition`` both sum signed
generator words in one pass; the oracles here spell each word out as nested
``act`` calls and add the results with ``LinComb`` arithmetic.
"""

import itertools
import random
from pathlib import Path

import pytest

from gtmod import coeffs
from gtmod.finite import FiniteModule
from gtmod.lincomb import LinComb
from gtmod.tableaux import Tableau
from gtmod.verify import Config, module_for, window_symbols

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GENERATORS = [(a, b) for a in range(1, 4) for b in range(1, 4)]


def _window_1(name):
    cfg = Config.from_file(FIXTURES / name).with_overrides(window=1)
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


def _recording_misses(mod) -> list:
    """The (l, m, symbol) of every ``_act_uncached`` call on mod from here
    on, in call order."""
    calls, uncached = [], mod._act_uncached

    def record(l, m, sym):
        calls.append((l, m, sym))
        return uncached(l, m, sym)

    mod._act_uncached = record
    return calls


def _nested_words(mod, words, sym):
    """sum of c * E_{g1} (E_{g2} (... (E_{gL} x))) over the words, x = 1 * sym."""
    out = LinComb.zero()
    for c, word in words:
        y = LinComb.single(sym)
        for l, m in reversed(word):
            y = mod.act(l, m, y)
        out = out + c * y
    return out


N4_GENERATORS = [(a, b) for a in range(1, 5) for b in range(1, 5)]
N4_SAMPLE = 16


def test_word_sum_on_a_symbol_matches_its_single_term_combination():
    """On singular_n4 window-1 symbols and every ordered generator pair,
    the words of a commutator and of the two generators alone summed on the
    symbol itself equal the same words on ``LinComb.single(sym)`` and the
    nested ``act`` formula, and both word sums miss on the same columns in
    the same order.  The symbols are a seeded sample of 16 of the 729; the
    whole window takes about 45 times as long."""
    cfg = Config.from_file(FIXTURES / "singular_n4.json").with_overrides(window=1)
    on_symbol, on_single = module_for(cfg), module_for(cfg)
    misses = _recording_misses(on_symbol), _recording_misses(on_single)
    symbols = random.Random(20240601).sample(window_symbols(cfg), N4_SAMPLE)
    assert {sym.kind for sym in symbols} == {"reg", "der"}
    for sym in symbols:
        for g1, g2 in itertools.product(N4_GENERATORS, repeat=2):
            words = [(1, (g1, g2)), (-1, (g2, g1)), (-1, (g1,)), (2, (g2,))]
            got = on_symbol._word_sum(words, sym)
            assert got == on_single._word_sum(words, LinComb.single(sym)), (g1, g2, sym)
            assert got == _nested_words(on_single, words, sym), (g1, g2, sym)
    assert misses[0] == misses[1] and misses[0]


def _bracket_loop(monkeypatch, cfg, swept):
    """The commutators bracket loop on a fresh module, over the window in
    sweep order or as the plain list: the ``_act_uncached`` and
    ``perm_action`` call counts, every defect, and the largest live and the
    final sizes of the act and term caches."""
    mod = module_for(cfg)
    calls = {"act": 0, "perm": 0}
    uncached, perm_action = mod._act_uncached, coeffs.perm_action

    def count_act(*args):
        calls["act"] += 1
        return uncached(*args)

    def count_perm(*args):
        calls["perm"] += 1
        return perm_action(*args)

    mod._act_uncached = count_act
    symbols = window_symbols(cfg)
    defects, live = {}, (0, 0)
    with monkeypatch.context() as patch:
        patch.setattr(coeffs, "perm_action", count_perm)
        for sym in (mod.sweep(symbols) if swept else symbols):
            for g1, g2 in itertools.combinations(GENERATORS, 2):
                defects[g1, g2, sym] = mod.bracket_defect(g1, g2, sym)
            live = tuple(map(max, live, (len(mod._act_cache), len(mod._perm_cache))))
    return calls, defects, live, (len(mod._act_cache), len(mod._perm_cache))


@pytest.mark.parametrize("name, window", [("singular_n3.json", 2), ("generic_n3.json", 2),
                                          ("all_equal_n3.json", 4)])
def test_sweep_drops_only_columns_no_later_symbol_reads(monkeypatch, name, window):
    """Sweeping by z_11 recomputes nothing, changes no defect, and keeps at
    most half of the unbounded act and term caches live (measured at
    window 2: 0.42 and 0.45 of them).  On all_equal_n3 at window 4 a term
    list one slab back is read again, so a lag of 0 would recompute."""
    cfg = Config.from_file(FIXTURES / name).with_overrides(window=window)
    calls, defects, live, _ = _bracket_loop(monkeypatch, cfg, swept=True)
    plain_calls, plain_defects, _, unbounded = _bracket_loop(monkeypatch, cfg, swept=False)
    assert calls == plain_calls and calls["act"] > 0 and calls["perm"] > 0
    assert defects == plain_defects and len(defects) == (2 * window + 1) ** 3 * 36
    assert all(2 * size <= whole for size, whole in zip(live, unbounded))


def test_sweep_orders_by_row_one_and_takes_rank_one_and_empty_windows():
    cfg = Config.from_file(FIXTURES / "singular_n3.json").with_overrides(window=1)
    mod = module_for(cfg)
    symbols = window_symbols(cfg)
    assert list(mod.sweep(symbols)) == sorted(symbols, key=lambda sym: sym.shift.get(1, 1))
    assert list(mod.sweep([])) == []
    # n = 1 has no row 1: the whole window is one slab, in its own order
    rank_one = Config(n=1, base=Tableau.from_text("(0)"), frame=None, window=2)
    mod = module_for(rank_one)
    [z] = window_symbols(rank_one)
    column = mod.act_symbol(1, 1, z)
    assert list(mod.sweep([z])) == [z]
    assert mod._act_cache == {(1, 1, z): column}


def test_character_classes_group_the_given_symbols_in_order():
    """On generic_n3 every window shift has its own character; on
    singular_n3 the classes are the grouping by ``character`` of each
    symbol's shift, spelled out here; no symbols give no classes."""
    mod, window = _window_1("generic_n3.json")
    assert len(window) == 27
    assert list(mod.character_classes(window).values()) == [[z] for z in window]
    mod, window = _window_1("singular_n3.json")
    want: dict = {}
    for sym in window:
        want.setdefault(mod.character(sym.shift), []).append(sym)
    got = mod.character_classes(window)
    assert list(got.items()) == list(want.items()) and len(got) < len(window)
    assert mod.character_classes([]) == {}
