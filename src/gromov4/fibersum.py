"""Fiber-class counts of elliptic surfaces via an additive piece ledger.

V(n) denotes the fiber sum of n copies of the rational elliptic surface;
its fiber class F has F.F = 0 and K = (n-2)F.  The signed count of
fiber-class tori obeys a cut-and-paste ledger: cutting along square-zero
torus boundaries splits the count into per-piece contributions (the
boundary circle bundle itself carries Euler characteristic 0 and
contributes nothing), so gluing pieces adds their fiber counts.

The shipped pieces and their signed fiber counts:

    D2xT2          1   (one boundary torus; the cap)
    V1             1   (closed rational elliptic surface)
    V1_minus_NF    0   (V(1) minus an open fiber neighborhood)
    N_minus_P     -1   (fiber annulus between two boundary tori)

Each extra fiber-sum copy inserts one N_minus_P piece, so the open piece
for V(n) carries 1-n, and capping with D2xT2 gives the closed count 2-n.
Doubling the cap reproduces the two-section count of the trivial torus
bundle: glue(D2xT2, D2xT2) = 2.

Each count reads as a list of fiber tori labelled (+,0) or (-,0), one per
unit of its size (fiber_tori): every stock piece's tori are of that kind,
and f(+,0) f(-,0) = 1, so adding counts is multiplying the pieces' torus
series.  The fiber rows of the elliptic(n) and s2xt2 presets are read so.
"""

from __future__ import annotations

from collections import namedtuple

from . import lattice
from .errors import DomainError, PreconditionError, _Frozen, _require_int


class Piece(_Frozen):
    """A (possibly bounded) piece with its signed fiber-class torus count.

    notes are the piece's own: a stock piece's description, or the one
    note of the glue that made it, which names neither operand.
    """

    _fields = ("label", "boundary_count", "fiber_gr", "notes")

    def __init__(
        self, label: str, boundary_count: int, fiber_gr: int, notes: tuple[str, ...] = ()
    ) -> None:
        if not isinstance(label, str):
            raise ValueError("piece label must be a string")
        _require_int(boundary_count, "boundary count")
        _require_int(fiber_gr, "fiber count")
        if boundary_count < 0:
            raise ValueError("boundary count must be non-negative")
        if not (isinstance(notes, tuple) and all(isinstance(n, str) for n in notes)):
            raise ValueError("piece notes must be a tuple of strings")
        super().__init__(label, boundary_count, fiber_gr, notes)

    @property
    def closed(self) -> bool:
        return self.boundary_count == 0


def base_pieces() -> dict[str, Piece]:
    """The ledger's stock pieces, keyed by identifier."""
    return {
        "D2xT2": Piece("D2xT2", 1, 1, ("D2xT2 cap: one boundary torus, fiber count 1",)),
        "V1": Piece("V1", 0, 1, ("V1 closed: fiber count 1",)),
        "V1_minus_NF": Piece(
            "V1_minus_NF", 1, 0, ("V1 minus a fiber neighborhood: fiber count 0",)
        ),
        "N_minus_P": Piece(
            "N_minus_P", 2, -1, ("fiber annulus N_minus_P: two boundary tori, fiber count -1",)
        ),
    }


def glue(a: Piece, b: Piece) -> Piece:
    """Glue two pieces along one boundary torus each; fiber counts add."""
    for name, piece in (("a", a), ("b", b)):
        if not isinstance(piece, Piece):
            raise PreconditionError(f"{name} is not a Piece: {piece!r}")
    if a.boundary_count < 1 or b.boundary_count < 1:
        raise PreconditionError("glue needs a boundary torus on each piece")
    fiber = a.fiber_gr + b.fiber_gr
    note = f"glue the last two pieces: fiber count {a.fiber_gr} + {b.fiber_gr} = {fiber}"
    return Piece("", a.boundary_count + b.boundary_count - 2, fiber, (note,))


# The largest n gr_elliptic_fiber builds V(n) for: the ledger glues n
# times, so the bound caps its time and memory before the first glue.
_N_MAX = 10_000


EllipticFiberCount = namedtuple("EllipticFiberCount", [
    "value",  # the signed fiber-class count, an int
    "trace",  # the ledger's notes, a tuple of str
])


def gr_elliptic_fiber(n: int) -> EllipticFiberCount:
    """Signed fiber-class count of V(n), built by the inductive ledger.

    The open piece starts at V1_minus_NF (count 0), each further fiber-sum
    copy glues in one N_minus_P (count -1), and the D2xT2 cap closes the
    piece; the result is 2 - n.  The trace is the chain's 2n+1 notes in
    postfix order: V1_minus_NF's, then for each glue the glued piece's and
    the glue's own, which joins the two latest pieces not yet glued.  An n
    that is not an int (a bool included) raises ValueError; an n past
    _N_MAX raises DomainError.
    """
    _require_int(n, "n")
    if n < 1:
        raise PreconditionError("elliptic surfaces V(n) need n >= 1")
    if n > _N_MAX:
        raise DomainError(f"n past the ledger limit {_N_MAX}")
    stock = base_pieces()
    piece = stock["V1_minus_NF"]
    trace = list(piece.notes)
    for b in [stock["N_minus_P"]] * (n - 1) + [stock["D2xT2"]]:
        piece = glue(piece, b)
        trace += b.notes + piece.notes
    if not piece.closed:
        raise AssertionError("the capped piece must be closed")
    return EllipticFiberCount(piece.fiber_gr, tuple(trace))


def fiber_tori(count: int) -> tuple[tuple[str, int], ...]:
    """The torus list a signed fiber count stands for: |count| tori of cover
    1, labelled +0 for a positive count and -0 for a negative one.  A count
    past _N_MAX in size raises DomainError before any list is made, and one
    that is not an int (a bool included) ValueError."""
    _require_int(count, "fiber count")
    if abs(count) > _N_MAX:
        raise DomainError(f"fiber count past the ledger limit {_N_MAX}")
    return (("+0" if count > 0 else "-0", 1),) * abs(count)


def fiber_gr_table(n: int) -> dict[lattice.HClass, int]:
    """Counts of fiber multiples kF on V(n), each read by the model's gr0,
    over the full nonzero row k = 0 .. max(n-2, 1)."""
    _require_int(n, "n")
    if n < 1:
        raise PreconditionError("elliptic surfaces V(n) need n >= 1")
    model = lattice.preset("elliptic", n)
    F = model.lattice.basis_class(0)
    return {k * F: model.gr0(k * F) for k in range(max(n - 2, 1) + 1)}
