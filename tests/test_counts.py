"""The model's count interface: gr0 and sphere_count read every count value."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gromov4
from gromov4 import ManifoldModel, UnknownGr0Error, UnknownSphereCountError, gr_s, preset

PACKAGE = Path(gromov4.__file__).resolve().parent
TABLES = {"gr0_table", "torus_table", "sphere_table"}


def test_gr0_of_the_zero_class_is_the_empty_curve():
    for m in (preset("cp2"), preset("cp2_blowup", 2), preset("s2xt2")):
        assert m.gr0(m.lattice.zero()) == 1


def test_gr0_of_a_square_positive_class_reads_the_gr0_table():
    cp2 = preset("cp2")
    L = cp2.parse("L")
    assert [cp2.gr0(n * L) for n in (1, 2, 3)] == [1, 1, 1]
    with pytest.raises(UnknownGr0Error) as info:
        cp2.gr0(4 * L)
    assert info.value.classes == (4 * L,)
    # a torus entry on the same ray is not read for a square-positive class
    tori = ManifoldModel(cp2.lattice, torus_table={L: (("+0", 1),)})
    with pytest.raises(UnknownGr0Error):
        tori.gr0(L)


def test_gr0_of_any_other_class_reads_the_tori_of_its_ray():
    ruled = preset("s2xt2")
    S, B = ruled.parse("S"), ruled.parse("B")
    # two (+,0) tori on the ray of B: the t^n coefficient of 1/(1-t)^2
    assert [ruled.gr0(n * B) for n in range(1, 6)] == [2, 3, 4, 5, 6]
    with pytest.raises(UnknownGr0Error) as info:
        ruled.gr0(2 * S)
    assert info.value.classes == (2 * S,)
    # an empty entry is known data: no tori, so Gr0 = 0 past degree 0
    el2 = preset("elliptic", 2)
    assert el2.gr0(el2.parse("F")) == 0
    # a negative square reads its ray's tori too, and is missing without them
    b1 = preset("cp2_blowup", 1)
    E1 = b1.parse("E1")
    with pytest.raises(UnknownGr0Error):
        b1.gr0(E1)
    marked = ManifoldModel(b1.lattice, torus_table={E1: (("-0", 1),)})
    assert [marked.gr0(n * E1) for n in (1, 2)] == [-1, 0]


def test_sphere_count_reads_the_sphere_table():
    cp2 = preset("cp2")
    L = cp2.parse("L")
    assert [cp2.sphere_count(n * L) for n in (1, 2, 3)] == [1, 1, 12]
    with pytest.raises(UnknownSphereCountError, match="^no connected sphere count for 4L$"):
        cp2.sphere_count(4 * L)
    # a zero entry is known data, not a missing one
    assert ManifoldModel(cp2.lattice, sphere_table={L: 0}).sphere_count(L) == 0


def test_count_tables_are_read_only():
    m = preset("cp2")
    L4 = m.parse("4L")
    assert gr_s(m, L4) == 0  # the sphere search table is now kept on m
    for name in sorted(TABLES):
        table = getattr(m, name)
        with pytest.raises(TypeError):
            table[L4] = 620
        with pytest.raises(TypeError):
            table[preset("s2xs2").parse("A1")] = -1
        with pytest.raises(TypeError):
            del table[m.parse("L")]
    assert L4 not in m.sphere_table and gr_s(m, L4) == 0
    # the entry belongs in the constructor, which validates it
    with_4L = ManifoldModel(m.lattice, minimal=True, sphere_table={**m.sphere_table, L4: 620})
    assert gr_s(with_4L, L4) == 620


def table_reads(directory: Path) -> list[str]:
    """file:line of every subscript of, or .get call on, a count table
    attribute in the modules of directory other than lattice.py."""
    found = []
    for path in sorted(directory.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript):
                target = node.value
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
            ):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Attribute) and target.attr in TABLES:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_model_reads_count_values_from_its_tables():
    # Iterating the keys to pick search candidates is not a read of a value.
    assert table_reads(PACKAGE) == []
