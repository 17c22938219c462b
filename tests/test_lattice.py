"""Lattice arithmetic, presets, class expression parsing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import (
    ClassParseError,
    Component,
    DomainError,
    IntersectionLattice,
    LatticeMismatchError,
    ManifoldModel,
    ModelFileError,
    UnknownPresetError,
    b2_plus,
    c1,
    ell_g,
    fiber_gr_table,
    format_class,
    genus_embedded,
    k,
    k_for,
    moduli_dimension,
    omega_area,
    pair,
    parse_class,
    preset,
)
from gromov4.fibersum import _N_MAX


def test_cp2_pairing_and_c1():
    m = preset("cp2")
    L = m.parse("L")
    assert pair(L, L) == 1
    assert c1(L) == 3
    assert c1(3 * L) == 9
    assert omega_area(L) == 1


def test_blowup_canonical_and_areas():
    m = preset("cp2_blowup(2)")
    L, E1, E2 = (m.parse(s) for s in ("L", "E1", "E2"))
    assert pair(E1, E1) == -1
    assert pair(L, E1) == 0
    assert pair(E1, E2) == 0
    assert c1(E1) == 1
    assert c1(L - E1) == 2
    assert omega_area(L) == 3
    assert omega_area(E1) == 1
    assert omega_area(L - E1 - E2) == 1


def test_blowup9_fiber_class_has_zero_c1():
    m = preset("cp2_blowup(9)")
    F = m.parse("3L - E1 - E2 - E3 - E4 - E5 - E6 - E7 - E8 - E9")
    assert c1(F) == 0
    assert pair(F, F) == 0


def test_s2xs2_canonical():
    m = preset("s2xs2")
    A1, A2 = m.parse("A1"), m.parse("A2")
    assert pair(A1, A1) == 0 and pair(A2, A2) == 0 and pair(A1, A2) == 1
    K = m.canonical_class()
    assert pair(K, A1 + A2) == -4
    assert c1(A1 + A2) == 4


def test_s2xt2_base_and_fiber():
    m = preset("s2xt2")
    S, B = m.parse("S"), m.parse("B")
    assert pair(S, S) == 0 and pair(B, B) == 0 and pair(S, B) == 1
    assert c1(B) == 0
    assert c1(S) == 2
    assert m.torus_table[B] == (("+0", 1), ("+0", 1))


def test_elliptic_presets():
    for n in (1, 2, 3, 6):
        m = preset(f"elliptic({n})")
        F, S = m.parse("F"), m.parse("S")
        assert pair(F, F) == 0
        assert pair(F, S) == 1
        assert pair(S, S) == -n
        assert m.canonical_class() == (n - 2) * F
        assert c1(F) == 0
        assert b2_plus(m.lattice) == 2 * n - 1
        assert m.minimal is (n >= 2)
        assert (S in m.exceptional) is (n == 1)
    assert preset("elliptic(1)").torus_table[preset("elliptic(1)").parse("F")] != ()
    assert preset("elliptic(2)").torus_table[preset("elliptic(2)").parse("F")] == ()


def test_b2_plus_on_presets():
    assert b2_plus(preset("cp2").lattice) == 1
    assert b2_plus(preset("cp2_blowup(3)").lattice) == 1
    assert b2_plus(preset("s2xs2").lattice) == 1
    assert b2_plus(preset("s2xt2").lattice) == 1


def test_b2_plus_computed_without_override():
    lat = IntersectionLattice("h", ("a", "b"), ((0, 1), (1, 0)), (-2, -2), (1, 1))
    assert b2_plus(lat) == 1
    lat2 = IntersectionLattice(
        "d", ("a", "b", "c"), ((1, 0, 0), (0, 1, 0), (0, 0, -1)), (1, 1, 1), (1, 1, 1)
    )
    assert b2_plus(lat2) == 2


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)) for i in range(n)
    )


def _vecmul(m, v):
    n = len(v)
    return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


def test_b2_plus_invariant_under_unimodular_change():
    rng = random.Random(3)
    base = IntersectionLattice(
        "d", ("a", "b", "c"), ((1, 0, 0), (0, 1, 0), (0, 0, -1)), (1, 1, 1), (1, 1, 1)
    )
    n = base.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(25):
        m = ident
        minv = ident
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            cst = rng.randint(-2, 2)
            e = tuple(
                tuple((1 if r == s else 0) + (cst if (r, s) == (i, j) else 0) for s in range(n))
                for r in range(n)
            )
            einv = tuple(
                tuple((1 if r == s else 0) - (cst if (r, s) == (i, j) else 0) for s in range(n))
                for r in range(n)
            )
            m = _matmul(m, e)
            minv = _matmul(einv, minv)
        mt = tuple(tuple(m[j][i] for j in range(n)) for i in range(n))
        gram2 = _matmul(mt, _matmul(base.gram, m))
        k2 = _vecmul(minv, base.canonical)
        area2 = _vecmul(mt, tuple(base.area))
        lat2 = IntersectionLattice("d2", base.basis, gram2, k2, area2)
        assert b2_plus(lat2) == b2_plus(base)


def test_parse_examples():
    m = preset("cp2_blowup(1)")
    assert m.parse("L + 2E1").coords == (1, 2)
    assert m.parse("L+2E1").coords == (1, 2)
    assert m.parse(" -L ").coords == (-1, 0)
    assert m.parse("2*E1 - L").coords == (-1, 2)
    assert m.parse("0").coords == (0, 0)
    assert m.parse("0L").coords == (0, 0)


def test_parse_rejects_garbage():
    m = preset("cp2")
    for expr in ("3Q", "", "L L", "3", "L +", "+ +L", "L & L"):
        with pytest.raises(ClassParseError):
            m.parse(expr)
    with pytest.raises(ClassParseError):  # a coefficient past int()'s digit limit
        m.parse("9" * 5000 + "L")


def test_format_class_layout():
    m = preset("cp2_blowup(2)")
    assert format_class(m.parse("3L - E1 - 2E2")) == "3L-E1-2E2"
    assert format_class(m.parse("-L + E2")) == "-L+E2"
    assert format_class(m.lattice.zero()) == "0"


@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=3, max_size=3))
def test_format_parse_round_trip(coords):
    m = preset("cp2_blowup(2)")
    A = m.lattice.class_from_coords(coords)
    assert m.parse(format_class(A)).coords == tuple(coords)


@given(
    st.lists(
        st.one_of(st.sampled_from([-1, 1]), st.integers(-(10**40), 10**40)),
        min_size=9,
        max_size=9,
    )
)
def test_format_parse_round_trip_large_and_unit_coefficients(coords):
    m = preset("cp2_blowup(8)")
    A = m.lattice.class_from_coords(coords)
    assert parse_class(m.lattice, format_class(A)) == A


def test_parse_error_messages():
    m = preset("cp2_blowup(2)")
    basis = "(basis of cp2_blowup(2): L, E1, E2)"
    for expr, message in (
        ("", "empty class expression"),
        ("3L+", "malformed term at '+' in '3L+'"),
        ("L++E1", "malformed term at '++E1' in 'L++E1'"),
        ("1/2L", "malformed term at '1/2L' in '1/2L'"),
        ("L+E1)", "malformed term at ')' in 'L+E1)'"),
        ("*L", "malformed term at '*L' in '*L'"),
        ("L+*E1", "malformed term at '+*E1' in 'L+*E1'"),
        ("L E1", f"unknown symbol 'LE1' {basis}"),
        ("L+E9", f"unknown symbol 'E9' {basis}"),
        ("9" * 5000 + "L", "coefficient of 'L' has too many digits"),
        # a coefficient is ASCII digits only: "\u0663" is ARABIC-INDIC DIGIT THREE
        ("\u0663L", "malformed term at '\u0663L' in '\u0663L'"),
        ("L\u0663E1", "malformed term at '\u0663E1' in 'L\u0663E1'"),
    ):
        with pytest.raises(ClassParseError) as info:
            m.parse(expr)
        assert str(info.value) == message


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=2),
)
def test_pairing_bilinear_symmetric(xs, ys, zs):
    lat = preset("s2xs2").lattice
    A, B, C = (lat.class_from_coords(v) for v in (xs, ys, zs))
    assert pair(A, B) == pair(B, A)
    assert pair(A + B, C) == pair(A, C) + pair(B, C)
    assert pair(3 * A - B, C) == 3 * pair(A, C) - pair(B, C)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_characteristic_parity_makes_k_integral(data):
    coords = data.draw(st.lists(st.integers(min_value=-15, max_value=15), min_size=2, max_size=2))
    for name in ("cp2_blowup(2)", "s2xs2", "elliptic(3)"):
        m = preset(name)
        A = m.lattice.class_from_coords((coords * m.lattice.rank)[: m.lattice.rank])
        assert (pair(A, A) + pair(m.canonical_class(), A)) % 2 == 0
    # Lattices drawn at random, odd diagonal and nonzero off-diagonal entries
    # included.  The constructor keeps those whose K is characteristic, and
    # on them k and genus_embedded are the exact halves, as integers.
    rank = data.draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-3, max_value=3)
    for _ in range(32):
        upper = {(i, j): data.draw(entry) for i in range(rank) for j in range(i, rank)}
        gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(rank)) for i in range(rank))
        K = tuple(data.draw(st.lists(entry, min_size=rank, max_size=rank)))
        k_dot = [sum(K[i] * gram[i][j] for i in range(rank)) for j in range(rank)]
        try:
            lat = IntersectionLattice("drawn", tuple(f"e{i}" for i in range(rank)), gram, K, (1,) * rank)
        except ModelFileError:
            # Rejected only where some basis vector has odd c1(e) + e.e.
            assert any((gram[j][j] - k_dot[j]) % 2 for j in range(rank))
            continue
        a = data.draw(st.lists(st.integers(-10**12, 10**12), min_size=rank, max_size=rank))
        A = lat.class_from_coords(a)
        ka = sum(k_dot[j] * a[j] for j in range(rank))  # K.A
        sq = sum(a[i] * gram[i][j] * a[j] for i in range(rank) for j in range(rank))
        assert type(k(A)) is int and 2 * k(A) == sq - ka
        assert type(genus_embedded(A)) is int and 2 * (genus_embedded(A) - 1) == sq + ka
        break


def test_hclass_arithmetic_and_content():
    m = preset("cp2_blowup(2)")
    A = m.parse("2L - 4E1 + 6E2")
    assert A.content() == 2
    assert A.primitive().coords == (1, -2, 3)
    assert (-A).coords == (-2, 4, -6)
    assert (A - A).is_zero
    assert m.lattice.zero().content() == 0
    with pytest.raises(ValueError):
        m.lattice.zero().primitive()
    other = preset("cp2").parse("L")
    with pytest.raises(LatticeMismatchError):
        pair(A, other)
    with pytest.raises(TypeError):
        Fraction(1, 2) * A


def test_a_class_scales_by_an_int_but_not_by_a_bool():
    # As everywhere else in the package, a bool is not taken for an int.
    A = preset("cp2").parse("L")
    assert (2 * A, A * 2, 0 * A) == (A + A, A + A, A - A)
    for scale in (lambda: True * A, lambda: A * True, lambda: False * A, lambda: A * False):
        with pytest.raises(TypeError):
            scale()


def test_lattice_validation():
    with pytest.raises(ValueError):
        IntersectionLattice("x", ("a",), ((1, 0),), (1,), (1,))
    with pytest.raises(ValueError):
        IntersectionLattice("x", ("a", "b"), ((1, 2), (3, 1)), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        IntersectionLattice("x", ("a", "a"), ((1, 0), (0, 1)), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        IntersectionLattice("x", ("a b",), ((1,),), (1,), (1,))
    # K = 0 on an odd lattice breaks the parity guarantee
    with pytest.raises(ValueError):
        IntersectionLattice("x", ("a",), ((1,),), (0,), (1,))


def test_constructors_reject_inexact_numbers():
    # no float, bool or string is converted: each is reported at its path
    for gram in (((1.0,),), ((True,),)):
        with pytest.raises(ModelFileError) as info:
            IntersectionLattice("x", ("a",), gram, (1,), (1,))
        assert info.value.path == "$.gram[0][0]"
    with pytest.raises(ModelFileError) as info:
        IntersectionLattice("x", ("a",), ((1,),), (1,), (True,))
    assert info.value.path == "$.area[0]"
    m = preset("s2xt2")
    B = m.parse("B")
    for cover in (2.7, "2", True):
        with pytest.raises(ModelFileError) as info:
            ManifoldModel(m.lattice, torus_table={B: (("+0", cover),)})
        assert info.value.path == "$.torus_table[0].tori[0].cover"
    with pytest.raises(ModelFileError) as info:
        ManifoldModel(m.lattice, sphere_table={B: 1, m.parse("S"): 1.0})
    assert info.value.path == "$.sphere_table[1].count"


def test_model_reports_a_bad_torus_entry_at_its_path():
    m = preset("s2xt2")
    B = m.parse("B")
    for entry in (5, None, ("+0",), ("+0", 1, 2)):
        with pytest.raises(ModelFileError) as info:
            ManifoldModel(m.lattice, torus_table={B: ("+0", entry)})
        assert info.value.path == "$.torus_table[0].tori[1]"


def test_preset_lookup_forms():
    assert preset("cp2_blowup(2)").lattice.rank == 3
    assert preset(" elliptic ( 3 ) ").name == "elliptic(3)"
    with pytest.raises(UnknownPresetError):
        preset("nosuch")
    with pytest.raises(UnknownPresetError):
        preset("cp2_blowup")
    with pytest.raises(UnknownPresetError):
        preset("elliptic(0)")
    with pytest.raises(UnknownPresetError):
        preset("cp2(5)")
    with pytest.raises(UnknownPresetError, match="bad preset name"):
        preset("elliptic(\u0663)")  # ARABIC-INDIC DIGIT THREE: ASCII digits only


def test_preset_parameter_limit(monkeypatch):
    # The limit is checked before a builder runs; only limit + 1 is tried.
    import gromov4.lattice as lattice

    def never(n):
        raise AssertionError(f"builder called with n={n}")

    limit = lattice._PRESET_MAX_N
    assert limit >= 32
    for base in ("cp2_blowup", "elliptic"):
        monkeypatch.setitem(lattice._BUILDERS, base, (never, True))
        with pytest.raises(UnknownPresetError, match=rf"n <= {limit}, got {limit + 1}$"):
            preset(f"{base}({limit + 1})")


def test_preset_rejects_huge_parameters_with_its_own_error():
    # Past 4,300 digits int() of the text raises a bare ValueError; preset
    # does not read it and names no huge number.
    digits = "9" * 5000
    for name in (f"cp2_blowup({digits})", f"elliptic({digits})"):
        with pytest.raises(UnknownPresetError, match=r"n <= \d+, got more than \d+ digits$"):
            preset(name)
    with pytest.raises(UnknownPresetError, match="takes no parameter"):
        preset(f"cp2({digits})")


def test_model_exceptional_validation():
    m = preset("cp2_blowup(2)")
    with pytest.raises(ValueError):
        m.with_exceptional(m.parse("L"))
    twisted = m.with_exceptional(m.parse("L - E1 - E2"))
    assert m.parse("L - E1 - E2") in twisted.exceptional


def _with_foreign_key():
    m, A1 = preset("cp2"), preset("s2xs2").parse("A1")
    return ManifoldModel(m.lattice, gr0_table={A1: 1})


def _with_duplicate_exceptional():
    m = preset("cp2_blowup(2)")
    E1 = m.parse("E1")
    return ManifoldModel(m.lattice, exceptional=(E1, m.parse("E2"), E1))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (_with_foreign_key, ModelFileError, "$.gr0_table[0].class: A1 belongs to a different lattice"),
        (_with_duplicate_exceptional, ModelFileError, "$: duplicate exceptional classes"),
        (lambda: preset("cp2").with_exceptional(), ValueError,
         "a minimal model has no exceptional classes to extend"),
        (lambda: preset(5), UnknownPresetError, "bad preset name 5"),
        # The constructors own every model rule, also those a model file
        # states: a name, a minimal flag, and a class wherever one belongs.
        (lambda: IntersectionLattice(None, ("a",), ((1,),), (1,), (1,)), ModelFileError,
         "$.name: expected a nonempty string"),
        (lambda: IntersectionLattice("", ("a",), ((1,),), (1,), (1,)), ModelFileError,
         "$.name: expected a nonempty string"),
        (lambda: ManifoldModel(preset("cp2").lattice, minimal="yes"), ModelFileError,
         "$.minimal: expected true or false"),
        (lambda: ManifoldModel(preset("cp2").lattice, exceptional=[None]), ModelFileError,
         "$.exceptional[0]: expected a class, got None"),
        (lambda: ManifoldModel(preset("cp2").lattice, gr0_table={"L": 1}), ModelFileError,
         "$.gr0_table[0].class: expected a class, got 'L'"),
        (lambda: preset("cp2_blowup(2)").with_exceptional(None), ModelFileError,
         "$.exceptional[2]: expected a class, got None"),
        (lambda: ManifoldModel(preset("s2xt2").lattice, torus_table={preset("s2xt2").parse("B"): 5}),
         ModelFileError, "$.torus_table[0].tori: expected a list of labels or (label, cover) pairs"),
        # text is iterable, but a torus list is a list or a tuple
        (lambda: ManifoldModel(preset("s2xt2").lattice, torus_table={preset("s2xt2").parse("B"): ""}),
         ModelFileError, "$.torus_table[0].tori: expected a list of labels or (label, cover) pairs"),
    ],
    ids=["foreign-table-key", "duplicate-exceptional", "minimal-with-exceptional",
         "preset-int-name", "lattice-none-name", "lattice-empty-name", "model-minimal-text",
         "exceptional-none", "gr0-text-key", "with-exceptional-none", "torus-list-not-iterable",
         "torus-list-text"],
)
def test_model_and_preset_rejections(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def _L():
    return preset("cp2").parse("L")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Component(_L(), 1.5), ValueError, "component multiplicity must be an integer"),
        (lambda: Component(_L(), True), ValueError, "component multiplicity must be an integer"),
        (lambda: Component(_L(), 1, 0.5), ValueError, "component genus must be an integer"),
        (lambda: ell_g(_L(), True), ValueError, "genus must be an integer"),
        (lambda: moduli_dimension(_L(), 0.5), ValueError, "genus must be an integer"),
        (lambda: k_for(_L(), True), ValueError, "p must be an integer"),
        (lambda: fiber_gr_table("2"), ValueError, "n must be an integer"),
        # A huge n meets the ledger limit before it is written into a preset name.
        (lambda: fiber_gr_table(10**5000), DomainError, f"n past the ledger limit {_N_MAX}"),
        (lambda: fiber_gr_table(_N_MAX + 1), DomainError, f"n past the ledger limit {_N_MAX}"),
        (lambda: preset("cp2").lattice.basis_class(-1), ValueError,
         "basis index -1 is outside 0..0 for rank 1"),
        (lambda: preset("cp2_blowup(2)").lattice.basis_class(3), ValueError,
         "basis index 3 is outside 0..2 for rank 3"),
        (lambda: preset("cp2").lattice.basis_class(0.5), ValueError, "basis index must be an integer"),
        (lambda: preset("cp2").lattice.basis_class(True), ValueError, "basis index must be an integer"),
    ],
    ids=["mult-float", "mult-bool", "genus-float", "ell_g-bool", "moduli-float", "k_for-bool",
         "fiber-table-str", "fiber-table-huge", "fiber-table-over", "basis-negative",
         "basis-rank", "basis-float", "basis-bool"],
)
def test_integer_parameters_refuse_non_integers(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_lattice_equality_and_class_repr():
    lat = preset("cp2").lattice
    assert lat.__eq__("cp2") is NotImplemented and lat != "cp2"
    assert repr(lat.parse("2L")) == "<2L in cp2>"
