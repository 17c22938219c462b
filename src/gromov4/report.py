"""Structured pass/fail reports for the verification operations.

A Report is a list of named condition checks, each with optional witness
objects (usually the offending classes), so tests and the CLI can assert
on individual clauses instead of a single boolean.
"""

from __future__ import annotations

from .errors import _Frozen


class Check(_Frozen):
    _fields = ("cond", "passed", "witness", "detail")

    def __init__(self, cond: str, passed: bool, witness: tuple = (), detail: str = "") -> None:
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "detail", detail)


class Report(_Frozen):
    _fields = ("checks",)

    def __init__(self, checks: tuple[Check, ...]) -> None:
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, cond: str) -> Check:
        for c in self.checks:
            if c.cond == cond:
                return c
        raise KeyError(f"no condition named {cond!r} in this report")
