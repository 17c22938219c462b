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
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .errors import DomainError, PreconditionError, _Frozen, _require_int
from .lattice import HClass, ManifoldModel, preset


class Piece(_Frozen):
    """A (possibly bounded) piece with its signed fiber-class torus count.

    A stock piece has its own label and notes.  glue keeps only the two
    operands and its one note, with {} for their names; notes walks the
    operands again on each read, so the ledger is never held whole.
    Pieces compare by identity and repr leaves the operands out, so
    neither recurses into them.
    """

    _fields = ("label", "boundary_count", "fiber_gr", "own_notes", "operands")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        label: str,
        boundary_count: int,
        fiber_gr: int,
        own_notes: tuple[str, ...] = (),
        operands: tuple[Piece, Piece] | None = None,
    ) -> None:
        _require_int(boundary_count, "boundary count")
        _require_int(fiber_gr, "fiber count")
        if boundary_count < 0:
            raise ValueError("boundary count must be non-negative")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "boundary_count", boundary_count)
        object.__setattr__(self, "fiber_gr", fiber_gr)
        object.__setattr__(self, "own_notes", own_notes)
        object.__setattr__(self, "operands", operands)

    def __repr__(self) -> str:
        return (
            f"Piece(label={self.label!r}, boundary_count={self.boundary_count!r}, "
            f"fiber_gr={self.fiber_gr!r}, own_notes={self.own_notes!r})"
        )

    @property
    def closed(self) -> bool:
        return self.boundary_count == 0

    @property
    def notes(self) -> Ledger:
        return Ledger(self)


class Ledger:
    """A piece's notes in gluing order, remade on each iteration: the walk
    keeps only the names of the operands it has not joined yet."""

    def __init__(self, piece: Piece) -> None:
        self.piece = piece

    def __iter__(self) -> Iterator[str]:
        names, todo = [], [(self.piece, False)]
        while todo:
            piece, joined = todo.pop()
            if piece.operands is None:
                yield from piece.own_notes
                names.append(piece.label)
            elif not joined:
                todo += ((piece, True), (piece.operands[1], False), (piece.operands[0], False))
            else:
                b, a = names.pop(), names.pop()
                yield from (note.format(a, b) for note in piece.own_notes)
                names.append(f"{a}+{b}")


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
    note = f"glue {{}} with {{}}: fiber count {a.fiber_gr} + {b.fiber_gr} = {fiber}"
    return Piece("", a.boundary_count + b.boundary_count - 2, fiber, (note,), (a, b))


# The largest n gr_elliptic_fiber builds V(n) for: the ledger glues n - 1
# pieces, so the bound caps its time and memory before the first glue.
_N_MAX = 10_000


EllipticFiberCount = namedtuple("EllipticFiberCount", [
    "value",  # the signed fiber-class count, an int
    "trace",  # the ledger's notes, an iterable of str
])


def gr_elliptic_fiber(n: int) -> EllipticFiberCount:
    """Signed fiber-class count of V(n), built by the inductive ledger.

    The open piece starts at V1_minus_NF (count 0), each further fiber-sum
    copy glues in one N_minus_P (count -1), and the D2xT2 cap closes the
    piece; the result is 2 - n.  The trace is the capped piece's Ledger of
    2n+1 notes, made as it is read.  An n that is not an int (a bool
    included) raises ValueError; an n past _N_MAX raises DomainError.
    """
    _require_int(n, "n")
    if n < 1:
        raise PreconditionError("elliptic surfaces V(n) need n >= 1")
    if n > _N_MAX:
        raise DomainError(f"n past the ledger limit {_N_MAX}")
    stock = base_pieces()
    open_piece = stock["V1_minus_NF"]
    for _ in range(n - 1):
        open_piece = glue(open_piece, stock["N_minus_P"])
    closed = glue(open_piece, stock["D2xT2"])
    if not closed.closed:
        raise AssertionError("the capped piece must be closed")
    return EllipticFiberCount(closed.fiber_gr, closed.notes)


def fiber_gr_table(n: int) -> dict[HClass, int]:
    """Counts of fiber multiples kF on V(n), each read by the model's gr0,
    over the full nonzero row k = 0 .. max(n-2, 1)."""
    _require_int(n, "n")
    if n < 1:
        raise PreconditionError("elliptic surfaces V(n) need n >= 1")
    model: ManifoldModel = preset("elliptic", n)
    F = model.lattice.basis_class(0)
    return {k * F: model.gr0(k * F) for k in range(max(n - 2, 1) + 1)}
