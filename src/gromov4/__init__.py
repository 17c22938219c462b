"""Exact homology-level calculus of Gromov invariants for symplectic 4-manifolds.

The package works entirely with integer and rational arithmetic.  A
manifold enters as a :class:`ManifoldModel`: an intersection lattice with
a canonical class and area form, a set of exceptional sphere classes, and
small tables of known curve counts.  On top of that the modules compute
point budgets, adjunction genera, exceptional-sphere reductions,
decomposition enumerations, multiply-covered-torus generating functions,
spherical invariants, and fiber-sum ledgers.
"""

import importlib.util
import sys

# Modules that only some calls reach, with the names this package re-exports
# from each.  Each is registered in sys.modules up front and runs on first
# attribute access; running binds its names here, as `from .x import name`
# would, and until then the module __getattr__ below resolves them.
_LAZY = {
    "configurations": (
        "Component", "Configuration", "check_kmin_constraints", "verify_good_configuration",
        "verify_kprime_configuration",
    ),
    "fibersum": (
        "EllipticFiberCount", "Piece", "base_pieces", "fiber_gr_table", "fiber_tori", "glue",
        "gr_elliptic_fiber",
    ),
    "invariants": (
        "Check", "NegClassVerdict", "ReduceResult", "Report", "classify_negative", "ell_g",
        "genus_embedded", "in_forward_cone", "is_good_class", "k", "k_prime",
        "light_cone_pair_check", "m_e", "moduli_dimension", "reduce_multicovers",
    ),
    "lattice": (
        "PRESET_NAMES", "HClass", "IntersectionLattice", "ManifoldModel", "b2_plus", "c1",
        "format_class", "omega_area", "parse_class", "pair", "preset",
    ),
    "model_io": ("load_model",),
    "spherical": (
        "SphereConfig", "assignment_factor", "embedded_sphere_rule",
        "enumerate_sphere_configs", "gr_s", "k_for",
    ),
    "structure": ("Decomposition", "enumerate_decompositions", "gromov_via_decompositions"),
    "torus_series": ("ALL_LABELS", "TruncSeries", "gr_torus_class", "parse_tori"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


class _Exporter:
    """Loader of a lazy module: runs it, then binds its re-exported names here."""

    def __init__(self, loader, names):
        self.loader, self.names = loader, names

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        self.loader.exec_module(module)
        globals().update((name, getattr(module, name)) for name in self.names)


def _lazy(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(_Exporter(spec.loader, _LAZY[name]))
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = globals()[name] = module
    loader.exec_module(module)


for _name in _LAZY:
    _lazy(_name)
del _name


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})


# The one module every call runs: each of the others imports from it.
from .errors import (
    AssignmentAmbiguityWarning,
    ClassParseError,
    CoordinateError,
    DomainError,
    InvalidCandidateError,
    LatticeMismatchError,
    ModelFileError,
    NotInExceptionalSetError,
    PreconditionError,
    ReductionConsistencyWarning,
    UnknownGr0Error,
    UnknownPresetError,
    UnknownSphereCountError,
)

__version__ = "0.1.0"

# Every name bound above but underscore names and modules, then the lazy names.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(sys))
] + list(_HOME)
