"""Torus label series: oracle by polynomial long division, then the counting laws."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import (
    ALL_LABELS,
    DomainError,
    ModelFileError,
    TorusLabel,
    TruncSeries,
    f_series,
    gr_torus_class,
    parse_tori,
)
from gromov4 import torus_series


# Oracle: expand num/den as a power series by exact long division.  The
# denominator must have unit constant term so every step stays in Z.
def divide(num: list[int], den: list[int], order: int) -> list[int]:
    assert den[0] in (1, -1)
    out = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        q, r = divmod(acc, den[0])
        assert r == 0
        out.append(q)
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Each label's generating function as a (numerator, denominator) pair.
RATIONAL_FORMS = {
    "+0": ([1], [1, -1]),
    "+1": ([1, 1], [1]),
    "+2": ([1, 1], [1, 0, 1]),
    "+3": (poly_mul([1, 1], [1, 0, -1]), [1, 0, 1]),
    "-0": ([1, -1], [1]),
    "-1": ([1], [1, 1]),
    "-2": ([1, 0, 1], [1, 1]),
    "-3": ([1, 0, 1], poly_mul([1, 1], [1, 0, -1])),
}


def test_all_labels_match_long_division_oracle():
    for text, (num, den) in RATIONAL_FORMS.items():
        label = TorusLabel.parse(text)
        got = f_series(label, 16)
        want = divide(num, den, 16)
        assert list(got.coeffs) == want, text


def test_frozen_expansions():
    plus0 = f_series(TorusLabel.parse("+0"), 6)
    assert list(plus0.coeffs) == [1, 1, 1, 1, 1, 1, 1]
    minus0 = f_series(TorusLabel.parse("-0"), 6)
    assert list(minus0.coeffs) == [1, -1, 0, 0, 0, 0, 0]
    plus2 = f_series(TorusLabel.parse("+2"), 7)
    assert list(plus2.coeffs) == [1, 1, -1, -1, 1, 1, -1, -1]
    plus3 = f_series(TorusLabel.parse("+3"), 7)
    assert list(plus3.coeffs) == [1, 1, -2, -2, 2, 2, -2, -2]


def test_opposite_labels_are_reciprocal():
    one = TruncSeries.one(12)
    for i in range(4):
        plus = f_series(TorusLabel(1, i), 12)
        minus = f_series(TorusLabel(-1, i), 12)
        assert plus * minus == one


def test_label_parse_and_text():
    assert TorusLabel.parse("+0") == TorusLabel(1, 0)
    assert TorusLabel.parse("-3") == TorusLabel(-1, 3)
    # unicode minus sign is accepted on input
    assert TorusLabel.parse("−2") == TorusLabel(-1, 2)
    assert str(TorusLabel(-1, 1)) == "-1"
    assert len(ALL_LABELS) == 8
    with pytest.raises(ValueError):
        TorusLabel.parse("+4")
    with pytest.raises(ValueError):
        TorusLabel.parse("0")
    with pytest.raises(ValueError):
        TorusLabel(1, 5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TruncSeries(()), "a series needs at least its constant coefficient"),
        (lambda: TruncSeries((1, 2.0)), "series coefficients must be integers"),
        (lambda: TruncSeries.from_poly([1], -1), "truncation order must be non-negative"),
    ],
    ids=["empty", "float-coefficient", "negative-order"],
)
def test_series_rejects_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_series_arithmetic():
    a = TruncSeries.from_poly([1, 2, 3], 4)
    b = TruncSeries.from_poly([1, -1], 2)
    assert (a * b).order == 2
    assert list((a * b).coeffs) == [1, 1, 1]
    assert a.coeff(4) == 0
    with pytest.raises(IndexError):
        a.coeff(5)
    with pytest.raises(ValueError):
        TruncSeries.from_poly([2, 1], 4).inverse()
    c = TruncSeries.from_poly([1, 5, -2], 8)
    assert c * c.inverse() == TruncSeries.one(8)
    with pytest.raises(ValueError):
        c.substitute_power(0)
    sub = c.substitute_power(3)
    assert list(sub.coeffs) == [1, 0, 0, 5, 0, 0, -2, 0, 0]


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
    plus0, minus2, plus1 = TorusLabel(1, 0), TorusLabel(-1, 2), TorusLabel(1, 1)
    assert parse_tori(["+0", minus2, ("+1", 3)]) == ((plus0, 1), (minus2, 1), (plus1, 3))
    assert [gr_torus_class(["+0"], k) for k in range(4)] == [1, 1, 1, 1]
    for cover in (2.7, "2", True, 0):
        with pytest.raises(ValueError):
            gr_torus_class([("+0", cover)], 4)


def test_cover_multiplicity_substitutes_powers():
    # a single (+,0) torus covered twice only produces even degrees
    tori = [("+0", 2)]
    got = [gr_torus_class(tori, k) for k in range(7)]
    assert got == [1, 0, 1, 0, 1, 0, 1]


def test_permutation_invariance():
    rng = random.Random(7)
    labels = [str(lab) for lab in ALL_LABELS]
    for _ in range(60):
        tori = [(rng.choice(labels), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        shuffled = tori[:]
        rng.shuffle(shuffled)
        for k in range(9):
            assert gr_torus_class(tori, k) == gr_torus_class(shuffled, k)


def test_birth_rule_leaves_counts_unchanged():
    rng = random.Random(20260814)
    labels = [str(lab) for lab in ALL_LABELS]
    for _ in range(1000):
        tori = [(rng.choice(labels), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        base = [gr_torus_class(tori, k) for k in range(13)]
        m = rng.randint(1, 3)
        for label in ALL_LABELS:
            flipped = TorusLabel(-label.sign, label.twists)
            extended = tori + [(str(label), m), (str(flipped), m)]
            assert [gr_torus_class(extended, k) for k in range(13)] == base


def test_pair_birth_cancellation_across_structures():
    # two plain tori versus the same plus a cancelling (+,0)/(-,0) pair
    before = [("+0", 1)] * 2
    after = [("+0", 1)] * 3 + [("-0", 1)]
    for k in range(11):
        assert gr_torus_class(before, k) == gr_torus_class(after, k)


def spread(poly: list[int], m: int) -> list[int]:
    out = [0] * ((len(poly) - 1) * m + 1)
    for j, c in enumerate(poly):
        out[j * m] = c
    return out


def oracle_counts(tori, order: int) -> list[int]:
    """Coefficients t^0..t^order of the product, by one long division."""
    num, den = [1], [1]
    for text, m in tori:
        a, b = RATIONAL_FORMS[text]
        num, den = poly_mul(num, spread(a, m)), poly_mul(den, spread(b, m))
    return divide(num, den, order)


LABEL_TEXTS = sorted(RATIONAL_FORMS)


TORUS_LISTS = st.lists(st.tuples(st.sampled_from(LABEL_TEXTS), st.integers(1, 4)), max_size=6)


def series_product(tori, order: int) -> tuple[int, ...]:
    """Coefficients t^0..t^order of the product, by TruncSeries arithmetic."""
    product = TruncSeries.one(order)
    for text, m in tori:
        product = product * f_series(TorusLabel.parse(text), order).substitute_power(m)
    return product.coeffs


@settings(max_examples=200, deadline=None)
@given(TORUS_LISTS, st.integers(0, 48))
def test_counts_match_series_products_and_long_division(tori, k):
    got = gr_torus_class(tori, k)
    assert got == series_product(tori, k)[k]
    assert got == oracle_counts(tori, k)[k]


# One step of a query sequence: ("k", list, k) asks one degree; ("sweep",
# list, top, descending) asks 0..top in either order; ("evict",) asks more
# distinct lists than the cache holds, so every list of the pool is dropped.
QUERY_STEPS = st.one_of(
    st.tuples(st.just("k"), st.integers(0, 7), st.integers(0, 60)),
    st.tuples(st.just("sweep"), st.integers(0, 7), st.integers(0, 40), st.booleans()),
    st.tuples(st.just("evict")),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(TORUS_LISTS, min_size=1, max_size=4), st.lists(QUERY_STEPS, max_size=12))
def test_query_sequences_match_the_series_oracle(pool, steps):
    # covers 1..4 in the pool, 5 and up in the eviction lists
    pool = [[]] + pool
    want = [series_product(tori, 60) for tori in pool]
    torus_series._vectors.clear()
    for step in steps:
        if step[0] == "evict":
            for m in range(5, torus_series._VECTORS_MAX + 6):
                assert gr_torus_class([("+1", m)], m) == 1
            assert not any(parse_tori(tori) in torus_series._vectors for tori in pool)
            continue
        i = step[1] % len(pool)
        if step[0] == "k":
            ks = [step[2]]
        else:
            ks = sorted(range(step[2] + 1), reverse=step[3])
        assert [gr_torus_class(pool[i], k) for k in ks] == [want[i][k] for k in ks]
    assert len(torus_series._vectors) <= torus_series._VECTORS_MAX


def test_a_degree_sweep_builds_each_list_once(monkeypatch):
    builds, coefficients = [], torus_series._coefficients

    def counted(tori, order):
        builds.append(order)
        return coefficients(tori, order)

    monkeypatch.setattr(torus_series, "_coefficients", counted)
    torus_series._vectors.clear()
    tori = [("+3", 1), ("-2", 2)]
    first = torus_series._ORDER_FIRST
    want = oracle_counts(tori, 2 * first + 1)
    assert [gr_torus_class(tori, k) for k in range(first + 1)] == want[: first + 1]
    assert builds == [first]
    assert gr_torus_class(tori, first + 1) == want[first + 1]
    assert builds == [first, 2 * first]


def test_each_label_is_one_object():
    for label in ALL_LABELS:
        assert TorusLabel(label.sign, label.twists) is label
        assert TorusLabel.parse(str(label)) is label
        assert copy.copy(label) is label
        assert copy.deepcopy(label) is label
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(label, protocol)) is label
        assert repr(label) == f"TorusLabel(sign={label.sign}, twists={label.twists})"
    assert TorusLabel(True, 0) is TorusLabel(1.0, 0) is TorusLabel(1, 0) is ALL_LABELS[0]
    assert copy.deepcopy([(ALL_LABELS[5], 2)])[0][0] is ALL_LABELS[5]
    # == and hash are object identity, which needs no Python call
    assert TorusLabel.__eq__ is object.__eq__ and TorusLabel.__hash__ is object.__hash__
    with pytest.raises(AttributeError):
        ALL_LABELS[0].sign = -1
    with pytest.raises(AttributeError, match="^cannot delete field 'sign'$"):
        del ALL_LABELS[0].sign
    bad_sign = r"^torus label sign must be \+1 or -1$"
    bad_twists = r"^torus label twist count must lie in 0\.\.3$"
    for sign, twists, message in (
        (0, 0, bad_sign),
        (2, 0, bad_sign),
        ([1], 0, bad_sign),
        (1, 4, bad_twists),
        (1, [0], bad_twists),
        (-1, [0], bad_twists),
    ):
        with pytest.raises(ValueError, match=message):
            TorusLabel(sign, twists)


def test_a_bad_entry_is_a_model_file_error_at_its_index():
    # neither a label nor a (label, cover) pair
    for entry in (5, None, ("+0",), ("+0", 1, 2)):
        with pytest.raises(ModelFileError) as info:
            gr_torus_class(["+1", entry], 3)
        assert info.value.path == "$[1]"


def test_degree_must_be_an_int_before_anything_is_parsed():
    torus_series._vectors.clear()
    for k in (True, False, 2.0, "3", None):
        with pytest.raises(ValueError, match="^degree must be an integer$"):
            gr_torus_class(["+0"], k)
        with pytest.raises(ValueError, match="^degree must be an integer$"):
            gr_torus_class([5], k)
    assert not torus_series._vectors


def test_cached_list_still_validates_every_call():
    assert gr_torus_class([("+0", 1)], 4) == 1
    # True == 1 and 1.0 == 1 hash alike: a key on the raw input would
    # answer these from the cache without validating them.
    for cover in (True, 1.0, "2"):
        with pytest.raises(ValueError):
            gr_torus_class([("+0", cover)], 4)
    with pytest.raises(ValueError):
        gr_torus_class([("+9", 1)], 4)


def test_degree_past_the_cached_order_rebuilds():
    tori = [("+3", 1), ("-2", 2), ("+0", 3), ("-1", 1)]
    want = oracle_counts(tori, 48)
    torus_series._vectors.clear()
    assert gr_torus_class(tori, 3) == want[3]
    assert gr_torus_class(tori, 48) == want[48]
    assert [gr_torus_class(tori, k) for k in range(49)] == want


def test_cache_keeps_born_pairs_and_stays_bounded():
    rng = random.Random(11)
    base = [("+2", 1)]
    born = base + [("+1", 2), ("-1", 2)]
    assert gr_torus_class(born, 9) == gr_torus_class(base, 9)
    assert parse_tori(born) in torus_series._vectors
    for _ in range(3 * torus_series._VECTORS_MAX):
        tori = [(rng.choice(LABEL_TEXTS), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        gr_torus_class(tori, rng.randint(0, 20))
        assert len(torus_series._vectors) <= torus_series._VECTORS_MAX


def test_degree_past_the_series_order_limit_is_a_domain_error():
    # Checked before anything is allocated; only limit + 1 is tried.
    limit = torus_series._ORDER_MAX
    assert limit >= 62  # the highest degree the tests and the benchmark ask for
    torus_series._vectors.clear()
    with pytest.raises(DomainError, match=f"series-order limit {limit}$"):
        gr_torus_class([("+0", 1)], limit + 1)
    assert not torus_series._vectors
