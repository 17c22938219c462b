"""Torus label series: oracle by polynomial long division, then the counting
laws, parse_tori's exact-type tests against its entry reader, and the one
kept vector."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gromov4
from gromov4 import (
    ALL_LABELS,
    DomainError,
    ModelFileError,
    TruncSeries,
    gr_torus_class,
    parse_tori,
    preset,
)
from gromov4 import torus_series
from oracle import refs


def _expansion(tori, order):
    """c[0..order] of a torus list's product, read through gr_torus_class."""
    return [gr_torus_class(tori, k) for k in range(order + 1)]


def test_all_labels_match_long_division_oracle():
    for text, (num, den) in refs.RATIONAL.items():
        want = refs.divide(num, den, 16)
        assert _expansion([text], 16) == want, text
        assert _expansion([(f" {text} ".replace("-", "−"), 1)], 16) == want, text


def test_frozen_expansions():
    assert _expansion(["+0"], 6) == [1, 1, 1, 1, 1, 1, 1]
    assert _expansion(["-0"], 6) == [1, -1, 0, 0, 0, 0, 0]
    assert _expansion(["+2"], 7) == [1, 1, -1, -1, 1, 1, -1, -1]
    assert _expansion(["+3"], 7) == [1, 1, -2, -2, 2, 2, -2, -2]
    # a label's other spellings expand alike
    assert _expansion([("+0", 1)], 6) == _expansion([(" +0 ", 1)], 6) == _expansion(["+0"], 6)
    assert _expansion(["−0"], 6) == _expansion([("-0", 1)], 6) == _expansion(["-0"], 6)


def test_opposite_labels_are_reciprocal():
    for i in range(4):
        opposite = [(f"+{i}", 1), (f"-{i}", 1)]
        assert _expansion(opposite, 12) == [1] + [0] * 12


def test_label_parse_and_text():
    # A label is its text: (sign, i) is "+i" or "-i".
    assert ALL_LABELS == ("+0", "+1", "+2", "+3", "-0", "-1", "-2", "-3")
    assert parse_tori(["+0", "-3", ("+1", 2)]) == (("+0", 1), ("-3", 1), ("+1", 2))
    # padded text and the typographic minus read as the canonical text
    assert parse_tori([" −1 ", ("+2", 3)]) == (("-1", 1), ("+2", 3))
    assert preset("s2xt2").torus_table[preset("s2xt2").parse("B")] == (("+0", 1), ("+0", 1))
    assert not hasattr(gromov4, "TorusLabel")
    for text in ("+4", "0", "", "+ 0", "--1"):
        with pytest.raises(ModelFileError) as info:
            parse_tori(["+0", (text, 2)])
        assert (info.value.path, info.value.message) == (
            "$[1].label",
            f"bad torus label {text!r}; expected +0, +1, ... or -3",
        )
    for label in (5, None, b"+1", ("+0",)):
        with pytest.raises(ModelFileError) as info:
            gr_torus_class([(label, 1)], 0)
        assert (info.value.path, info.value.message) == ("$[0].label", "expected a label string")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TruncSeries(()), "a series needs at least its constant coefficient"),
        (lambda: TruncSeries((1, 2.0)), "series coefficients must be integers"),
    ],
    ids=["empty", "float-coefficient"],
)
def test_series_rejects_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_series_arithmetic():
    a = TruncSeries((1, 2, 3, 0, 0))
    b = TruncSeries((1, -1, 0))
    assert (a.order, b.order) == (4, 2)
    assert (a * b).order == 2
    assert list((a * b).coeffs) == [1, 1, 1]
    with pytest.raises(ValueError):
        TruncSeries((2, 1, 0, 0, 0)).inverse()
    c = TruncSeries((1, 5, -2) + (0,) * 6)
    assert c * c.inverse() == TruncSeries((1,) + (0,) * 8)


def test_two_plain_tori_count_k_plus_one():
    tori = [("+0", 1), ("+0", 1)]
    assert gr_torus_class(tori, 3) == 4
    for k in range(51):
        assert gr_torus_class(tori, k) == k + 1


def test_three_plus_one_minus_at_two_points():
    tori = [("+0", 1)] * 3 + [("-0", 1)]
    assert gr_torus_class(tori, 2) == 3


def test_single_minus_torus_dies_after_degree_one():
    assert gr_torus_class([("-0", 1)], 0) == 1
    assert gr_torus_class([("-0", 1)], 1) == -1
    for k in range(2, 12):
        assert gr_torus_class([("-0", 1)], k) == 0


def test_empty_list_counts_only_the_empty_curve():
    assert gr_torus_class([], 0) == 1
    assert gr_torus_class([], 5) == 0
    with pytest.raises(ValueError):
        gr_torus_class([("+0", 1)], -1)


def test_parse_tori_takes_bare_labels_and_integer_covers():
    assert parse_tori(["+0", "-2", ("+1", 3)]) == (("+0", 1), ("-2", 1), ("+1", 3))
    assert [gr_torus_class(["+0"], k) for k in range(4)] == [1, 1, 1, 1]
    for cover in (2.7, "2", True, 0):
        with pytest.raises(ValueError):
            gr_torus_class([("+0", cover)], 4)


class _Text(str):
    pass


class _Int(int):
    pass


class _Tori(list):
    pass


# Entry kinds for parse_tori: the exact forms its type tests take, and the
# spellings and mistakes that only _entry reads.
EXACT_LABELS = st.sampled_from(sorted(refs.RATIONAL))
EXACT_ENTRIES = st.tuples(EXACT_LABELS, st.integers(1, 4)) | st.sampled_from(sorted(refs.RATIONAL))
LABEL_INPUTS = st.one_of(
    EXACT_LABELS,
    st.sampled_from(sorted(refs.RATIONAL)).map(lambda text: f" {text} "),
    st.sampled_from(sorted(refs.RATIONAL)).map(lambda text: text.replace("-", "−")),
    st.sampled_from(sorted(refs.RATIONAL)).map(_Text),
    st.sampled_from(["+9", "", "0", 5, None, b"+1"]),
)
COVER_INPUTS = st.one_of(
    st.integers(-1, 4),
    st.integers(0, 3).map(_Int),
    st.sampled_from([True, False, 1.0, 2.5, Fraction(2), Fraction(3, 2), "2", None]),
)
ODD_ENTRIES = st.one_of(
    st.tuples(EXACT_LABELS, COVER_INPUTS),
    st.tuples(LABEL_INPUTS, st.integers(1, 4)),
    st.tuples(LABEL_INPUTS, COVER_INPUTS),
    LABEL_INPUTS,
    st.tuples(LABEL_INPUTS, COVER_INPUTS).map(list),
    st.tuples(LABEL_INPUTS),
    st.tuples(LABEL_INPUTS, COVER_INPUTS, COVER_INPUTS),
)


def _parsed(parse, tori):
    """parse(tori) as (label, cover, their types) quadruples, or the
    ModelFileError's path and message."""
    try:
        return [(label, cover, type(label), type(cover)) for label, cover in parse(tori)]
    except ModelFileError as exc:
        return exc.path, exc.message


def _entry_by_entry(entries):
    return [torus_series._entry(entry, j) for j, entry in enumerate(entries)]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(EXACT_ENTRIES, max_size=5),
    st.lists(ODD_ENTRIES, max_size=2),
    st.randoms(use_true_random=False),
    st.sampled_from([list, tuple, _Tori]),
)
def test_the_exact_tests_agree_with_the_entry_reader(exact, odd, rng, container):
    entries = exact + odd
    rng.shuffle(entries)
    assert _parsed(parse_tori, container(entries)) == _parsed(_entry_by_entry, entries)


# A torus list is a list or a tuple.  Another iterable would be read wrongly:
# text as one-character labels, a dict's keys without their covers, a set
# with its repeated tori merged; a generator is refused as well.
@pytest.mark.parametrize(
    "tori",
    [5, None, 2.5, ALL_LABELS[0], "", "+0", {"+0": 1, "-1": 2}, {("+0", 1)}, lambda: (t for t in ["+0"])],
    ids=["int", "none", "float", "label", "empty-text", "text", "dict", "set", "generator"],
)
def test_a_torus_list_that_is_not_iterable_is_a_model_file_error(tori):
    for parse in (parse_tori, lambda tori: gr_torus_class(tori, 1)):
        with pytest.raises(ModelFileError) as info:
            parse(tori() if callable(tori) else tori)
        assert (info.value.path, info.value.message) == (
            "$",
            "expected a list of labels or (label, cover) pairs",
        )


def test_cover_multiplicity_substitutes_powers():
    # a single (+,0) torus covered twice only produces even degrees
    tori = [("+0", 2)]
    got = [gr_torus_class(tori, k) for k in range(7)]
    assert got == [1, 0, 1, 0, 1, 0, 1]


def test_permutation_invariance():
    rng = random.Random(7)
    for _ in range(60):
        tori = [(rng.choice(ALL_LABELS), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        shuffled = tori[:]
        rng.shuffle(shuffled)
        for k in range(9):
            assert gr_torus_class(tori, k) == gr_torus_class(shuffled, k)


def test_birth_rule_leaves_counts_unchanged():
    rng = random.Random(20260814)
    for _ in range(1000):
        tori = [(rng.choice(ALL_LABELS), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        base = [gr_torus_class(tori, k) for k in range(13)]
        m = rng.randint(1, 3)
        for label in ALL_LABELS:
            flipped = {"+": "-", "-": "+"}[label[0]] + label[1:]
            extended = tori + [(label, m), (flipped, m)]
            assert [gr_torus_class(extended, k) for k in range(13)] == base


def test_pair_birth_cancellation_across_structures():
    # two plain tori versus the same plus a cancelling (+,0)/(-,0) pair
    before = [("+0", 1)] * 2
    after = [("+0", 1)] * 3 + [("-0", 1)]
    for k in range(11):
        assert gr_torus_class(before, k) == gr_torus_class(after, k)


LABEL_TEXTS = sorted(refs.RATIONAL)
TORUS_LISTS = st.lists(st.tuples(st.sampled_from(LABEL_TEXTS), st.integers(1, 4)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(TORUS_LISTS, st.integers(0, 48))
def test_counts_match_series_products_and_long_division(tori, k):
    assert gr_torus_class(tori, k) == refs.torus_counts(tori, k)[k]


# One step of a query sequence: ("k", list, k) asks one degree; ("sweep",
# list, top, descending) asks 0..top in either order; ("switch", m) asks a
# list outside the pool, so the kept vector is no pool list's.
QUERY_STEPS = st.one_of(
    st.tuples(st.just("k"), st.integers(0, 7), st.integers(0, 60)),
    st.tuples(st.just("sweep"), st.integers(0, 7), st.integers(0, 40), st.booleans()),
    st.tuples(st.just("switch"), st.integers(5, 40)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(TORUS_LISTS, min_size=1, max_size=4), st.lists(QUERY_STEPS, max_size=12))
def test_query_sequences_match_the_series_oracle(pool, steps):
    # covers 1..4 in the pool, 5 and up in the switch lists
    pool = [[]] + pool
    want = [refs.torus_counts(tori, 60) for tori in pool]
    for step in steps:
        if step[0] == "switch":
            m = step[1]
            assert gr_torus_class([("+1", m)], m) == 1
            assert torus_series._last[0] == parse_tori([("+1", m)])
            continue
        i = step[1] % len(pool)
        if step[0] == "k":
            ks = [step[2]]
        else:
            ks = sorted(range(step[2] + 1), reverse=step[3])
        assert [gr_torus_class(pool[i], k) for k in ks] == [want[i][k] for k in ks]
        assert torus_series._last[0] == parse_tori(pool[i])


@settings(max_examples=60, deadline=None)
@given(TORUS_LISTS, TORUS_LISTS, st.lists(st.integers(0, 48), min_size=1, max_size=12))
def test_two_alternating_lists_match_the_series_oracle(first, second, ks):
    want = [refs.torus_counts(tori, 48) for tori in (first, second)]
    for k in ks:
        for i, tori in enumerate((first, second)):
            assert gr_torus_class(tori, k) == want[i][k]


def test_only_the_last_list_keeps_a_vector():
    big, small = [("+1", 1)], [("+0", 1), ("-2", 3)]
    limit, first = torus_series._ORDER_MAX, torus_series._ORDER_FIRST
    assert gr_torus_class(big, limit) == 0
    vector = torus_series._last[2]
    assert len(vector) == limit + 1
    assert gr_torus_class(small, 3) == refs.torus_counts(small, 3)[3]
    entries, key, kept = torus_series._last
    assert entries == tuple(small) and key == parse_tori(small) and len(kept) == first + 1
    # Nothing but this test's own name still holds the big list's vector.
    assert sys.getrefcount(vector) == 2


def test_a_degree_sweep_builds_each_list_once(monkeypatch):
    builds, coefficients = [], torus_series._coefficients

    def counted(tori, order):
        builds.append(order)
        return coefficients(tori, order)

    gr_torus_class([], 0)  # the kept vector is another list's
    monkeypatch.setattr(torus_series, "_coefficients", counted)
    tori = [("+3", 1), ("-2", 2)]
    first = torus_series._ORDER_FIRST
    want = refs.torus_counts(tori, 2 * first + 1)
    assert [gr_torus_class(tori, k) for k in range(first + 1)] == want[: first + 1]
    assert builds == [first]
    assert gr_torus_class(tori, first + 1) == want[first + 1]
    assert builds == [first, 2 * first]


def test_a_bad_entry_is_a_model_file_error_at_its_index():
    # neither a label nor a (label, cover) pair
    for entry in (5, None, ("+0",), ("+0", 1, 2)):
        with pytest.raises(ModelFileError) as info:
            gr_torus_class(["+1", entry], 3)
        assert info.value.path == "$[1]"


def test_degree_must_be_an_int_before_anything_is_parsed():
    kept = torus_series._last
    for k in (True, False, 2.0, "3", None):
        with pytest.raises(ValueError, match="^degree must be an integer$"):
            gr_torus_class(["+0"], k)
        with pytest.raises(ValueError, match="^degree must be an integer$"):
            gr_torus_class([5], k)
    assert torus_series._last is kept


def _counted_parses(monkeypatch) -> list:
    """The torus lists gr_torus_class parses from now on, in call order."""
    parses, parse = [], torus_series.parse_tori

    def counted(tori):
        parses.append(tori)
        return parse(tori)

    gr_torus_class([], 0)  # the kept entries are another list's
    monkeypatch.setattr(torus_series, "parse_tori", counted)
    return parses


def test_an_unchanged_list_is_not_rechecked_and_any_other_list_is(monkeypatch):
    parses = _counted_parses(monkeypatch)
    tori = [("+0", 1)]
    assert [gr_torus_class(tori, k) for k in range(5)] == [1] * 5
    assert gr_torus_class(tuple(tori), 4) == gr_torus_class(list(tori), 4) == 1
    assert parses == [tuple(tori)]
    # True == 1 and 1.0 == 1 hash alike: a key on the raw input, or entries
    # compared by ==, would answer these from the cache without validating them.
    for cover in (True, 1.0, "2"):
        with pytest.raises(ValueError):
            gr_torus_class([("+0", cover)], 4)
    with pytest.raises(ValueError):
        gr_torus_class([("+9", 1)], 4)
    assert gr_torus_class(tori, 4) == 1 and len(parses) == 5
    # The same list, changed in place, is parsed again.
    tori.append(("+9", 1))
    with pytest.raises(ModelFileError):
        gr_torus_class(tori, 4)
    tori[1] = ("-0", 1)
    assert gr_torus_class(tori, 4) == 0 and len(parses) == 7


class _Pair(tuple):
    pass


@pytest.mark.parametrize(
    "entry",
    [["+0", 1], _Text("+0"), _Pair(("+0", 1)), ("+0", _Int(1)), (_Text("+0"), 1)],
    ids=["list", "text-subclass", "tuple-subclass", "int-subclass-cover", "text-subclass-label"],
)
def test_a_list_with_a_mutable_or_subclass_entry_is_never_kept(entry):
    want = refs.torus_counts([("+1", 1), ("+0", 1)], 3)[3]
    for tori in (["+1", entry], ("+1", entry)):
        assert gr_torus_class(tori, 3) == want and torus_series._last[0] is None
    exact = ["+1", ("+0", 1)]
    assert gr_torus_class(_Tori(exact), 3) == want and torus_series._last[0] is None
    assert gr_torus_class(exact, 3) == want and torus_series._last[0] == tuple(exact)


def test_a_sweep_over_a_stored_row_parses_it_once(monkeypatch):
    model = preset("elliptic(3)")
    F = model.lattice.basis_class(0)
    row = model.torus_table[F]
    parses = _counted_parses(monkeypatch)
    assert [model.gr0(d * F) for d in range(1, 13)] == refs.torus_counts(row, 12)[1:]
    assert parses == [row]


# Entries of a torus list changed in place between asks: the exact forms,
# every spelling and mistake parse_tori reads, and subclass pairs.
REUSE_ENTRIES = EXACT_ENTRIES | ODD_ENTRIES | st.tuples(EXACT_LABELS, st.integers(1, 4)).map(_Pair)
# ("k", degree) asks; ("copy", container) asks through a new container of the
# same entries; the others change the list, or a list entry of it, in place.
REUSE_STEPS = st.one_of(
    st.tuples(st.just("k"), st.integers(0, 20)),
    st.tuples(st.just("copy"), st.sampled_from([list, tuple, _Tori])),
    st.tuples(st.just("set"), st.integers(0, 5), REUSE_ENTRIES),
    st.tuples(st.just("append"), REUSE_ENTRIES),
    st.tuples(st.just("pop"), st.integers(0, 5)),
    st.tuples(st.just("edit"), st.integers(0, 5), LABEL_INPUTS, COVER_INPUTS),
)


def _answer(count, tori, k):
    """count(tori, k), or the error's type, path and message."""
    try:
        return count(tori, k)
    except ValueError as exc:
        return type(exc), getattr(exc, "path", None), str(exc)


def _fresh(tori, k):
    return torus_series._coefficients(parse_tori(tori), k)[k]


@settings(max_examples=300, deadline=None)
@given(st.lists(REUSE_ENTRIES, max_size=4), st.lists(REUSE_STEPS, min_size=1, max_size=12))
def test_reuse_matches_a_fresh_parse_through_in_place_changes(entries, steps):
    tori = entries
    for step in steps:
        kind, *args = step
        if kind == "k":
            assert _answer(gr_torus_class, tori, args[0]) == _answer(_fresh, tori, args[0])
        elif kind == "copy":
            tori = args[0](tori)
        elif isinstance(tori, list) and kind == "append":
            tori.append(args[0])
        elif isinstance(tori, list) and tori and kind in ("set", "pop"):
            i = args[0] % len(tori)
            if kind == "set":
                tori[i] = args[1]
            else:
                tori.pop(i)
        elif kind == "edit" and (lists := [e for e in tori if e.__class__ is list]):
            lists[args[0] % len(lists)][:] = args[1:]
    assert _answer(gr_torus_class, tori, 7) == _answer(_fresh, tori, 7)


def test_degree_past_the_cached_order_rebuilds():
    tori = [("+3", 1), ("-2", 2), ("+0", 3), ("-1", 1)]
    want = refs.torus_counts(tori, 48)
    gr_torus_class([], 0)  # the kept vector is another list's
    assert gr_torus_class(tori, 3) == want[3]
    assert gr_torus_class(tori, 48) == want[48]
    assert [gr_torus_class(tori, k) for k in range(49)] == want


def test_cache_keeps_born_pairs_and_stays_bounded():
    rng = random.Random(11)
    base = [("+2", 1)]
    born = base + [("+1", 2), ("-1", 2)]
    assert gr_torus_class(base, 9) == gr_torus_class(born, 9)
    # the key is the list as given: the born pair is not cancelled
    assert torus_series._last[1] == parse_tori(born) != parse_tori(base)
    for _ in range(300):
        tori = [(rng.choice(LABEL_TEXTS), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        gr_torus_class(tori, rng.randint(0, 20))
        entries, key, kept = torus_series._last
        assert entries == tuple(tori) and key == parse_tori(tori)
        assert len(kept) <= 2 * torus_series._ORDER_FIRST + 1


def test_degree_past_the_series_order_limit_is_a_domain_error():
    # Checked before anything is allocated; only limit + 1 is tried.
    limit = torus_series._ORDER_MAX
    assert limit >= 62  # the highest degree the tests and the benchmark ask for
    kept = torus_series._last
    with pytest.raises(DomainError, match=f"series-order limit {limit}$"):
        gr_torus_class([("+0", 1)], limit + 1)
    assert torus_series._last is kept
