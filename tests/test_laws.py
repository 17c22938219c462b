"""The paper's laws, each on a fixed case the package is known to get wrong.

Each case is a strict xfail naming the ROADMAP direction that mends it,
and only a failed assertion counts as the expected failure: when that
direction lands, the case passes, the run fails, and the mark comes off.
Drawn cases of the same laws come later.
"""

from __future__ import annotations

import pytest

from gromov4 import (
    classify_negative,
    gromov_via_decompositions,
    in_forward_cone,
    is_good_class,
    omega_area,
    pair,
    preset,
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 6: the blow-up area picks the wrong half-cone for n >= 9",
)
def test_canonical_class_of_the_nine_point_blowup_is_not_in_the_forward_cone():
    # L is in the forward cone and K.L = -3, so the light cone lemma keeps K out.
    m = preset("cp2_blowup(9)")
    K = m.parse("-3L+E1+E2+E3+E4+E5+E6+E7+E8+E9")
    L = m.parse("L")
    assert in_forward_cone(L) and pair(K, L) == -3
    assert not in_forward_cone(K)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 12: the blow-ups store only E1..En as exceptional classes",
)
def test_an_exceptional_sphere_of_positive_area_is_in_the_exceptional_set():
    m = preset("cp2_blowup(2)")
    E = m.parse("L-E1-E2")
    assert classify_negative(E).is_exceptional_sphere and omega_area(E) > 0
    assert E in m.exceptional
    assert not is_good_class(m, m.parse("2L-2E1-2E2"))  # its product with E is -2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 3: Gr on b2+ = 1 blow-ups reads empty tables as 0",
)
def test_gr_of_the_line_is_the_same_after_one_blowup():
    base, up = preset("cp2"), preset("cp2_blowup(1)")
    assert gromov_via_decompositions(base, base.parse("L")) == 1
    assert gromov_via_decompositions(up, up.parse("L")) == 1
