"""Exception and warning types shared across the package, with the integer
checks and the immutable record base every module uses.

DomainError covers violations of mathematical preconditions (the CLI maps
these to exit code 1); ValueError subclasses cover malformed input such as
unparseable class expressions or invalid model data (CLI exit code 2).
"""

from __future__ import annotations


class DomainError(Exception):
    """A computation was asked to run outside its mathematical domain."""


class LatticeMismatchError(DomainError):
    """Classes from different lattices were combined."""


class PreconditionError(DomainError):
    """An operation's stated precondition does not hold."""


class NotInExceptionalSetError(DomainError):
    """A class was used as exceptional without being in the stored set."""


class InvalidCandidateError(DomainError):
    """A decomposition candidate is not a class, lives in another lattice
    or has non-positive area."""


class UnknownGr0Error(DomainError):
    """A decomposition part has no Gr0 value in the model tables."""

    def __init__(self, classes):
        self.classes = tuple(classes)
        names = ", ".join(str(c) for c in self.classes)
        super().__init__(f"unknown Gr0 value for class {names}")


class UnknownSphereCountError(DomainError):
    """A class has no connected sphere count in the model's sphere_table."""


class ClassParseError(ValueError):
    """A class expression could not be parsed."""


class CoordinateError(ValueError):
    """A class coordinate vector has the wrong length, or an entry that is
    not an int (bools, floats and Fractions are rejected, never converted);
    `index` is the offending coordinate, None for a wrong length."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class UnknownPresetError(ValueError):
    """No preset with the requested name exists."""


class ModelFileError(ValueError):
    """Model data failed validation.

    `path` locates the offending value ("$.gram[1][0]").  The constructors
    of IntersectionLattice and ManifoldModel raise it with paths that use
    the model file's field names, so load_model passes most of them on
    unchanged; `message` is the text after the path.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _int(value, path: str) -> int:
    """value itself when it is an int; bools, floats and strings are
    rejected, never converted."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ModelFileError(path, "expected an integer")


def _require_int(value, what: str) -> None:
    """Raise ValueError("<what> must be an integer") unless value is an int
    other than a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer")


class _Frozen:
    """Base of the package's immutable records.

    A record names its constructor arguments in _fields, and the base's
    __init__ sets one value per name past __setattr__ (a record with checks
    ends its own __init__ with it).  Assigning or deleting an attribute
    raises AttributeError; copy, deepcopy and pickle rebuild the record
    through its constructor; == and hash compare the fields' values (a
    record of another class is never equal), and repr shows name=value.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            record = type(self).__qualname__
            raise TypeError(f"{record} takes one value per field {self._fields}, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __reduce__(self):
        return (type(self), self._values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._values())])
        return f"{type(self).__qualname__}({shown})"


class ReductionConsistencyWarning(UserWarning):
    """k(B) = k'(A) failed; the stored exceptional set is not orthogonal."""


class AssignmentAmbiguityWarning(UserWarning):
    """Repeated components with several representatives each; the point
    assignment count is a documented convention, not a pinned-down value."""
