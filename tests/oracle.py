"""The tests' one oracle: bench/refs.py, which never imports gromov4.

ref_model copies a ManifoldModel's plain data into a refs.RefModel, with
classes as coordinate tuples and torus labels as text; invariants gives
refs' answers for one class in the shape gromov4's calls return them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import refs  # noqa: E402

from gromov4 import b2_plus  # noqa: E402


def ref_model(model):
    lat = model.lattice
    return refs.RefModel(
        name=model.name,
        basis=lat.basis,
        gram=lat.gram,
        K=lat.canonical,
        area=lat.area,
        b2plus=b2_plus(lat),
        exceptional=[E.coords for E in model.exceptional],
        minimal=model.minimal,
        gr0={A.coords: n for A, n in model.gr0_table.items()},
        tori={A.coords: list(tori) for A, tori in model.torus_table.items()},
        spheres={A.coords: n for A, n in model.sphere_table.items()},
    )


def invariants(model, A):
    """k, k', goodness, every m_E, the reduction (in A's lattice) and
    whether it warns, c1, the genus, the moduli dimensions at g = 0, 1, 2,
    the negative-class verdict (None when A.A >= 0) and both cone tests."""
    M, a, lat = ref_model(model), A.coords, A.lattice
    kp = refs.k_prime(M, a)
    B, strips = refs.reduce(M, a)
    warns = not refs.is_good(M, B) or refs.k(M, B) != kp
    red = (lat.class_from_coords(B), tuple((lat.class_from_coords(E), m) for E, m in strips))
    verdict = None if refs.pair(M, a, a) >= 0 else refs.classify(M, a)
    head = (refs.k(M, a), kp, refs.is_good(M, a), [refs.m_e(M, a, E) for E in M.exceptional], red, warns)
    dims = [refs.dim(M, a, g) for g in (0, 1, 2)]
    cone = (refs.in_cone(M, a), refs.in_cone(M, a, strict=True))
    return head + (refs.c1(M, a), refs.genus(M, a), dims, verdict, cone)
