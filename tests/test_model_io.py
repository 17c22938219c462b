"""Model file loading: a valid document plus one test per violated invariant."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gromov4 import ModelFileError, b2_plus, load_model, pair
from gromov4.cli import run

VALID = {
    "name": "pair_of_tori",
    "basis": ["U", "V"],
    "gram": [[0, 1], [1, 0]],
    "K": [-2, 0],
    "area": ["3/2", 1],
    "b2plus": 1,
    "exceptional": [],
    "minimal": True,
    "gr0_table": [{"class": "U + V", "value": 4}],
    "torus_table": [
        {"class": "U", "label": "+0", "cover": 1},
        {"class": "U", "label": "-1", "cover": 2},
    ],
    "sphere_table": [{"class": "U + V", "count": 2}],
}


def write(tmp_path, doc):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def load_mutated(tmp_path, mutate):
    doc = json.loads(json.dumps(VALID))
    mutate(doc)
    return load_model(write(tmp_path, doc))


def expect_error(tmp_path, mutate, path_fragment):
    with pytest.raises(ModelFileError) as info:
        load_mutated(tmp_path, mutate)
    assert info.value.path == path_fragment, str(info.value)
    return info.value


def test_valid_model_round_trip(tmp_path):
    m = load_model(write(tmp_path, VALID))
    assert m.name == "pair_of_tori"
    assert m.lattice.basis == ("U", "V")
    assert m.lattice.area == (Fraction(3, 2), Fraction(1))
    assert b2_plus(m.lattice) == 1
    U, V = m.parse("U"), m.parse("V")
    assert pair(U, V) == 1
    assert m.minimal
    assert m.gr0_table[U + V] == 4
    assert m.torus_table[U] == (("+0", 1), ("-1", 2))
    assert m.sphere_table[U + V] == 2


def test_loader_accepts_string_path(tmp_path):
    p = write(tmp_path, VALID)
    assert load_model(str(p)).name == "pair_of_tori"


def test_invalid_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFileError) as info:
        load_model(p)
    assert info.value.path == "$"
    assert "invalid JSON at line 1" in str(info.value)


def test_missing_required_field(tmp_path):
    expect_error(tmp_path, lambda d: d.pop("basis"), "$.basis")
    expect_error(tmp_path, lambda d: d.pop("gram"), "$.gram")


def test_unknown_field_rejected(tmp_path):
    expect_error(tmp_path, lambda d: d.__setitem__("extra", 1), "$.extra")


def test_basis_validation(tmp_path):
    expect_error(tmp_path, lambda d: d.__setitem__("basis", []), "$.basis")
    expect_error(tmp_path, lambda d: d.__setitem__("basis", ["U", "U"]), "$.basis")
    expect_error(tmp_path, lambda d: d.__setitem__("basis", ["U", "2V"]), "$.basis[1]")


def test_gram_validation(tmp_path):
    expect_error(tmp_path, lambda d: d.__setitem__("gram", [[0, 1]]), "$.gram")
    expect_error(tmp_path, lambda d: d["gram"].__setitem__(0, [0, "x"]), "$.gram[0][1]")
    err = expect_error(tmp_path, lambda d: d["gram"].__setitem__(0, [0, 2]), "$.gram[1][0]")
    assert "symmetric" in str(err)


def test_canonical_class_validation(tmp_path):
    expect_error(tmp_path, lambda d: d.__setitem__("K", [1]), "$.K")
    err = expect_error(tmp_path, lambda d: d.__setitem__("K", [1, 0]), "$.K")
    assert "characteristic" in str(err)


def test_area_validation(tmp_path):
    expect_error(tmp_path, lambda d: d.__setitem__("area", ["3/2"]), "$.area")
    expect_error(tmp_path, lambda d: d.__setitem__("area", ["x", 1]), "$.area[0]")
    expect_error(tmp_path, lambda d: d.__setitem__("area", ["1/0", 1]), "$.area[0]")
    # only an integer or "p/q": no decimals, exponents, digit separators or
    # non-ASCII digits ("\u0663" is ARABIC-INDIC DIGIT THREE)
    for text in ("0.5", "1e50", "1_0", "\u0663", "1/\u0663"):
        expect_error(tmp_path, lambda d: d.__setitem__("area", [text, 1]), "$.area[0]")
    expect_error(tmp_path, lambda d: d.__setitem__("area", [True, 1]), "$.area[0]")


def test_b2plus_validation(tmp_path):
    expect_error(tmp_path, lambda d: d.__setitem__("b2plus", -1), "$.b2plus")
    expect_error(tmp_path, lambda d: d.__setitem__("b2plus", True), "$.b2plus")
    m = load_mutated(tmp_path, lambda d: d.pop("b2plus"))
    # without the override the hyperbolic form is diagonalized instead
    assert b2_plus(m.lattice) == 1


def test_exceptional_validation(tmp_path):
    def add_exc(d):
        d["minimal"] = False
        d["exceptional"] = ["U"]

    err = expect_error(tmp_path, add_exc, "$.exceptional[0]")
    assert "not exceptional" in str(err)


def test_minimal_model_cannot_list_exceptional_classes(tmp_path):
    doc = {
        "name": "one_blowup",
        "basis": ["L", "E"],
        "gram": [[1, 0], [0, -1]],
        "K": [-3, 1],
        "area": [3, 1],
        "exceptional": ["E"],
        "minimal": True,
        "gr0_table": [],
        "torus_table": [],
        "sphere_table": [],
    }
    with pytest.raises(ModelFileError) as info:
        load_model(write(tmp_path, doc))
    assert info.value.path == "$.minimal"
    doc["minimal"] = False
    m = load_model(write(tmp_path, doc))
    assert [str(E) for E in m.exceptional] == ["E"]


def test_name_validation(tmp_path):
    for name in ("", 5, None):
        error = expect_error(tmp_path, lambda d: d.__setitem__("name", name), "$.name")
        assert error.message == "expected a nonempty string"


def test_minimal_flag_validation(tmp_path):
    expect_error(tmp_path, lambda d: d.__setitem__("minimal", "yes"), "$.minimal")


def test_table_entry_validation(tmp_path):
    expect_error(
        tmp_path,
        lambda d: d["gr0_table"].__setitem__(0, {"class": "Q", "value": 1}),
        "$.gr0_table[0].class",
    )
    expect_error(
        tmp_path,
        lambda d: d["gr0_table"].__setitem__(0, {"class": "U + V"}),
        "$.gr0_table[0]",
    )
    expect_error(
        tmp_path,
        lambda d: d["gr0_table"].__setitem__(0, {"class": "-U", "value": 1}),
        "$.gr0_table[0].class",
    )
    expect_error(
        tmp_path,
        lambda d: d["gr0_table"].append({"class": "V + U", "value": 5}),
        "$.gr0_table[1].class",
    )


def test_torus_table_validation(tmp_path):
    expect_error(
        tmp_path,
        lambda d: d["torus_table"].__setitem__(0, {"class": "2U", "label": "+0", "cover": 1}),
        "$.torus_table[0].class",
    )
    expect_error(
        tmp_path,
        lambda d: d["torus_table"].__setitem__(0, {"class": "U", "label": "+9", "cover": 1}),
        "$.torus_table[0].label",
    )
    expect_error(
        tmp_path,
        lambda d: d["torus_table"].__setitem__(0, {"class": "U", "label": "+0", "cover": 0}),
        "$.torus_table[0].cover",
    )


def test_sphere_table_validation(tmp_path):
    expect_error(
        tmp_path,
        lambda d: d["sphere_table"].__setitem__(0, {"class": "U + V", "count": -1}),
        "$.sphere_table[0].count",
    )
    expect_error(
        tmp_path,
        lambda d: d["sphere_table"].append({"class": "1U + V", "count": 5}),
        "$.sphere_table[1].class",
    )


def test_torus_entry_paths_point_into_the_file(tmp_path):
    # entries are grouped by class inside the model; errors name the file's index
    def bad_third(field, value):
        def mutate(d):
            d["torus_table"].insert(1, {"class": "V", "label": "+1", "cover": 1})
            d["torus_table"][2][field] = value
        return mutate

    expect_error(tmp_path, bad_third("cover", 2.5), "$.torus_table[2].cover")
    expect_error(tmp_path, bad_third("label", -1), "$.torus_table[2].label")
    expect_error(tmp_path, bad_third("class", "2V"), "$.torus_table[2].class")


def test_oversized_integer_literal_is_a_model_error(tmp_path, capsys):
    text = json.dumps(VALID).replace('"b2plus": 1', '"b2plus": ' + "9" * 5000)
    p = tmp_path / "model.json"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFileError) as info:
        load_model(p)
    assert info.value.path == "$"
    assert run(["k", "--manifold", str(p), "--class", "U"]) == 2
    assert capsys.readouterr().err.startswith("error code=model msg=$: ")


def test_undecodable_file_and_long_coefficient_are_model_errors(tmp_path):
    p = tmp_path / "model.json"
    p.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(ModelFileError) as info:
        load_model(p)
    assert info.value.path == "$"
    expect_error(tmp_path, lambda d: d["exceptional"].append("9" * 5000 + "U"), "$.exceptional[0]")


def test_unreadable_path_is_a_model_error(tmp_path, capsys):
    p = tmp_path / "dirmodel.json"
    p.mkdir()
    with pytest.raises(ModelFileError) as info:
        load_model(p)
    assert info.value.path == "$"
    assert run(["k", "--manifold", str(p), "--class", "U"]) == 2
    assert capsys.readouterr().err.startswith("error code=model msg=$: ")


_KEYS = st.sampled_from(sorted(VALID) + ["class", "label", "cover", "value", "count"])
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["U", "V", "U + V", "2U", "-U", "+0", "-3", "3/2", "1/0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS | st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


def _slots(node):
    """(container, key) for every value nested in node."""
    if isinstance(node, dict):
        items = list(node.items())
    else:
        items = list(enumerate(node)) if isinstance(node, list) else []
    for key, value in items:
        yield node, key
        yield from _slots(value)


@st.composite
def _documents(draw):
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return draw(_JSON)
    doc = json.loads(json.dumps(VALID))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        if draw(st.booleans()):
            container[key] = draw(_JSON)
        elif isinstance(container, dict):
            del container[key]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_documents())
def test_any_json_gives_a_model_or_a_path_error(tmp_path_factory, doc):
    p = tmp_path_factory.getbasetemp() / "fuzz.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_model(p)
    except ModelFileError as exc:
        assert exc.path.startswith("$")
