"""Structured pass/fail reports for the verification operations.

A Report is a list of named condition checks, each with optional witness
objects (usually the offending classes), so tests and the CLI can assert
on individual clauses instead of a single boolean.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    cond: str
    passed: bool
    witness: tuple = ()
    detail: str = ""


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

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
