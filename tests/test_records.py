"""The package's immutable records: frozen fields, equality, copies and repr.

Each record is built twice from the same arguments.  Value records compare
equal with equal hashes; a lattice compares by its fields through its own
method; only a model compares by identity.  The repr strings are
pinned.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from gromov4 import (
    Check,
    Component,
    Configuration,
    Decomposition,
    NegClassVerdict,
    Report,
    SphereConfig,
    TruncSeries,
    base_pieces,
    glue,
    preset,
)


def _b1(expr):
    return preset("cp2_blowup(1)").parse(expr)


def _glued():
    cap = base_pieces()["D2xT2"]
    return glue(cap, cap)


CP2_LATTICE = (
    "IntersectionLattice(name='cp2', basis=('L',), gram=((1,),), canonical=(-3,), "
    "area=(Fraction(1, 1),), b2plus_override=None)"
)

# (build, a field, built twice: equal?, pinned repr)
RECORDS = {
    "IntersectionLattice": (lambda: preset("cp2").lattice, "name", True, CP2_LATTICE),
    "HClass": (lambda: _b1("L-E1"), "coords", True, "<L-E1 in cp2_blowup(1)>"),
    "ManifoldModel": (
        lambda: preset("cp2"),
        "gr0_table",
        False,
        f"ManifoldModel(lattice={CP2_LATTICE}, exceptional=(), minimal=True, "
        "gr0_table={<L in cp2>: 1, <2L in cp2>: 1, <3L in cp2>: 1}, torus_table={}, "
        "sphere_table={<L in cp2>: 1, <2L in cp2>: 1, <3L in cp2>: 12})",
    ),
    "NegClassVerdict": (
        lambda: NegClassVerdict("NotRepresentable"),
        "kind",
        True,
        "NegClassVerdict(kind='NotRepresentable')",
    ),
    "Check": (
        lambda: Check("disjoint", False, (_b1("L-E1"),), "detail"),
        "passed",
        True,
        "Check(cond='disjoint', passed=False, witness=(<L-E1 in cp2_blowup(1)>,), detail='detail')",
    ),
    "Report": (
        lambda: Report((Check("points", True, (), ""),)),
        "checks",
        True,
        "Report(checks=(Check(cond='points', passed=True, witness=(), detail=''),))",
    ),
    "Component": (
        lambda: Component(_b1("L-E1"), 2, 1),
        "mult",
        True,
        "Component(cls=<L-E1 in cp2_blowup(1)>, mult=2, genus=1)",
    ),
    "Configuration": (
        lambda: Configuration((Component(_b1("L-E1")),)),
        "components",
        True,
        "Configuration(components=(Component(cls=<L-E1 in cp2_blowup(1)>, mult=1, genus=0),))",
    ),
    "Decomposition": (
        lambda: Decomposition((_b1("L"), _b1("E1"))),
        "parts",
        True,
        "Decomposition(parts=(<E1 in cp2_blowup(1)>, <L in cp2_blowup(1)>))",
    ),
    "SphereConfig": (
        lambda: SphereConfig((_b1("L-E1"),)),
        "parts",
        True,
        "SphereConfig(parts=(<L-E1 in cp2_blowup(1)>,))",
    ),
    "Piece": (
        _glued,
        "fiber_gr",
        True,
        "Piece(label='', boundary_count=0, fiber_gr=2, "
        "notes=('glue the last two pieces: fiber count 1 + 1 = 2',))",
    ),
    "TruncSeries": (
        lambda: TruncSeries((1, -2, 3)),
        "coeffs",
        True,
        "TruncSeries(coeffs=(1, -2, 3))",
    ),
}

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    build, field, same, text = RECORDS[name]
    obj = build()
    assert type(obj).__name__ == name
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(obj, field)
    twin = build()
    assert (obj == twin) is same and (obj != twin) is not same
    if same:
        assert hash(obj) == hash(twin)
    assert obj == obj and obj != object()
    for rebuild in COPIES.values():
        c = rebuild(obj)
        assert type(c) is type(obj) and repr(c) == repr(obj)
        assert (c == obj) is same
        if same:
            assert hash(c) == hash(obj)
    assert repr(obj) == text


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Check("points", True), r"^Check takes one value per field \('cond', .*, got 2$"),
        (lambda: Report(), r"^Report takes one value per field \('checks',\), got 0$"),
        (lambda: Report((), ()), r"^Report takes one value per field \('checks',\), got 2$"),
    ],
    ids=["Check-short", "Report-empty", "Report-long"],
)
def test_a_record_built_with_the_wrong_number_of_values_names_itself(build, message):
    with pytest.raises(TypeError, match=message):
        build()
