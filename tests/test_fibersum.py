"""Fiber-class bookkeeping across torus gluings of elliptic pieces."""

from __future__ import annotations

import contextlib
import copy
import pickle
import sys
import tracemalloc
from math import comb

import pytest

from gromov4 import (
    cli,
    DomainError,
    Piece,
    PreconditionError,
    base_pieces,
    check_kmin_constraints,
    fiber_gr_table,
    fiber_tori,
    glue,
    gr_elliptic_fiber,
    preset,
)


def doubled_annulus() -> Piece:
    """N_minus_P glued to itself 60 times over: fiber count -2**60."""
    doubled = base_pieces()["N_minus_P"]
    for _ in range(60):
        doubled = glue(doubled, doubled)
    return doubled


def test_base_piece_ledger():
    pieces = base_pieces()
    assert set(pieces) == {"D2xT2", "V1", "V1_minus_NF", "N_minus_P"}
    assert (pieces["D2xT2"].boundary_count, pieces["D2xT2"].fiber_gr) == (1, 1)
    assert (pieces["V1"].boundary_count, pieces["V1"].fiber_gr) == (0, 1)
    assert (pieces["V1_minus_NF"].boundary_count, pieces["V1_minus_NF"].fiber_gr) == (1, 0)
    assert (pieces["N_minus_P"].boundary_count, pieces["N_minus_P"].fiber_gr) == (2, -1)
    assert pieces["V1"].closed
    assert not pieces["D2xT2"].closed


def test_n_past_the_ledger_limit_is_a_domain_error(monkeypatch, capsys):
    # Checked before the first glue; only limit + 1 is tried.
    from gromov4 import fibersum

    def no_glue(a, b):
        raise AssertionError("glue ran past the limit")

    monkeypatch.setattr(fibersum, "glue", no_glue)
    over = fibersum._N_MAX + 1
    with pytest.raises(DomainError, match=f"ledger limit {over - 1}$"):
        gr_elliptic_fiber(over)
    assert cli.run(["fibersum", "--n", str(over)]) == 1
    assert capsys.readouterr() == ("", f"error code=domain msg=n past the ledger limit {over - 1}\n")


def test_bad_piece_and_bad_row_are_refused():
    with pytest.raises(ValueError, match="^boundary count must be non-negative$"):
        Piece("hole", -1, 0)
    with pytest.raises(PreconditionError, match="^elliptic surfaces V\\(n\\) need n >= 1$"):
        fiber_gr_table(0)


@pytest.mark.parametrize(
    "boundary_count, fiber_gr, what",
    [(True, "a", "boundary count"), (1.0, 0, "boundary count"), (1, "a", "fiber count"), (1, False, "fiber count")],
)
def test_piece_counts_must_be_integers(boundary_count, fiber_gr, what):
    with pytest.raises(ValueError, match=f"^{what} must be an integer$"):
        Piece("x", boundary_count, fiber_gr)


@pytest.mark.parametrize(
    "args, what",
    [
        ((5, 1, 1), "label must be a string"),
        ((None, 1, 1), "label must be a string"),
        (("x", 1, 1, "ab"), "notes must be a tuple of strings"),
        (("x", 1, 1, ["n"]), "notes must be a tuple of strings"),
        (("x", 1, 1, ("n", 2)), "notes must be a tuple of strings"),
    ],
    ids=["label-int", "label-none", "notes-str", "notes-list", "notes-int"],
)
def test_a_piece_checks_the_fields_it_stores(args, what):
    # A string of notes was read as one note per letter.
    with pytest.raises(ValueError, match=f"^piece {what}$"):
        Piece(*args)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None])
def test_non_integer_n_is_a_value_error(n):
    with pytest.raises(ValueError, match="^n must be an integer$"):
        gr_elliptic_fiber(n)


def test_glue_adds_counts_and_boundaries():
    pieces = base_pieces()
    cap = pieces["D2xT2"]
    joined = glue(cap, cap)
    assert joined.fiber_gr == 2
    assert joined.boundary_count == 0
    assert joined.closed
    with pytest.raises(PreconditionError):
        glue(pieces["V1"], cap)


def test_glue_refuses_what_is_not_a_piece():
    cap = base_pieces()["D2xT2"]
    for a, b, message in (
        (None, cap, "^a is not a Piece: None$"),
        (cap, (1, 1), "^b is not a Piece: \\(1, 1\\)$"),
        ("D2xT2", cap, "^a is not a Piece: 'D2xT2'$"),
    ):
        with pytest.raises(PreconditionError, match=message):
            glue(a, b)


def test_fiber_count_of_elliptic_surfaces():
    assert gr_elliptic_fiber(2).value == 0
    for n in range(1, 21):
        assert gr_elliptic_fiber(n).value == 2 - n
    with pytest.raises(PreconditionError):
        gr_elliptic_fiber(0)


def test_fiber_count_trace_n3():
    result = gr_elliptic_fiber(3)
    assert result.value == -1
    assert result.trace == (
        "V1 minus a fiber neighborhood: fiber count 0",
        "fiber annulus N_minus_P: two boundary tori, fiber count -1",
        "glue the last two pieces: fiber count 0 + -1 = -1",
        "fiber annulus N_minus_P: two boundary tori, fiber count -1",
        "glue the last two pieces: fiber count -1 + -1 = -2",
        "D2xT2 cap: one boundary torus, fiber count 1",
        "glue the last two pieces: fiber count -2 + 1 = -1",
    )


def test_fiber_table_rows_are_signed_binomials():
    for n in range(2, 9):
        table = fiber_gr_table(n)
        el = preset("elliptic", n)
        F = el.parse("F")
        for k in range(n + 1):
            want = (-1) ** k * comb(n - 2, k)
            assert el.gr0(k * F) == want
            if k <= max(n - 2, 1):
                assert table[k * F] == want


def test_fiber_table_agrees_with_the_gluing_ledger():
    for n in range(1, 12):
        el = preset("elliptic", n)
        F = el.parse("F")
        assert fiber_gr_table(n)[F] == gr_elliptic_fiber(n).value


def test_the_elliptic_fiber_rows_are_the_ledger_counts_as_tori():
    # The rows elliptic(n) stored before the ledger wrote them.
    for n in range(1, 65):
        el = preset("elliptic", n)
        row = el.torus_table[el.parse("F")]
        assert row == ((("+0", 1),) if n == 1 else () if n == 2 else (("-0", 1),) * (n - 2))


def test_fiber_rows_are_symmetric():
    # gr0(kF) = (-1)^k C(n-2, k) on elliptic(n): the row reads the same both ways.
    for n in range(2, 65):
        el = preset("elliptic", n)
        F = el.parse("F")
        for k in range(n - 1):
            assert abs(el.gr0(k * F)) == abs(el.gr0((n - 2 - k) * F))


def test_a_count_past_the_ledger_limit_makes_no_torus_list():
    from gromov4 import fibersum

    limit = fibersum._N_MAX
    assert len(fiber_tori(-limit)) == limit
    for count in (limit + 1, -limit - 1, doubled_annulus().fiber_gr):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"ledger limit {limit}$"):
                fiber_tori(count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


@pytest.mark.parametrize("count", [1.5, None, "3", True])
def test_a_fiber_count_that_is_not_an_int_is_a_value_error(count):
    with pytest.raises(ValueError, match="^fiber count must be an integer$"):
        fiber_tori(count)


def test_fiber_table_default_span():
    el = preset("elliptic", 5)
    F = el.parse("F")
    table = fiber_gr_table(5)
    assert set(table) == {0 * F, F, 2 * F, 3 * F}
    el1 = preset("elliptic", 1)
    F1 = el1.parse("F")
    table1 = fiber_gr_table(1)
    assert set(table1) == {el1.lattice.zero(), F1}
    assert table1[F1] == 1


def test_shipped_tables_satisfy_minimal_constraints():
    for n in (2, 3, 4, 7):
        el = preset("elliptic", n)
        assert check_kmin_constraints(el, fiber_gr_table(n)).ok


# --- the written trace against an eager fold of the notes -----------------


def eager_glue(a, b):
    """(fiber count, notes) of a glued piece, with the notes concatenated
    at every step: the operands' notes, then the glue note."""
    fiber = a[0] + b[0]
    return fiber, a[1] + b[1] + (f"glue the last two pieces: fiber count {a[0]} + {b[0]} = {fiber}",)


def eager(piece):
    return piece.fiber_gr, piece.notes


def test_lazy_trace_matches_an_eager_fold():
    stock = base_pieces()
    for n in range(1, 31):
        piece = eager(stock["V1_minus_NF"])
        for _ in range(n - 1):
            piece = eager_glue(piece, eager(stock["N_minus_P"]))
        assert tuple(gr_elliptic_fiber(n)) == eager_glue(piece, eager(stock["D2xT2"]))


def test_lazy_ledger_of_a_balanced_gluing():
    # A glued piece keeps its count, its boundary tori and its one glue
    # note, and nothing of the pieces under it.
    stock = base_pieces()
    N, cap = stock["N_minus_P"], stock["D2xT2"]
    whole = glue(glue(N, N), glue(N, cap))
    assert (whole.fiber_gr, whole.boundary_count) == (-2, 1)
    assert whole.notes == ("glue the last two pieces: fiber count -2 + 0 = -2",)


def test_a_fiber_count_equals_itself_and_its_pickle():
    for n in range(1, 5):
        a, b = gr_elliptic_fiber(n), gr_elliptic_fiber(n)
        assert a == b and hash(a) == hash(b)
        assert a.trace != gr_elliptic_fiber(n + 1).trace
    result = gr_elliptic_fiber(3)
    again = pickle.loads(pickle.dumps(result))
    assert again == result and hash(again) == hash(result)


def test_a_deep_ledger_deep_copies_and_pickles():
    # V(1000) glues 1000 times; its result holds no piece, so a copy does not
    # recurse along the chain.
    result = gr_elliptic_fiber(1000)
    assert copy.deepcopy(result) == result
    assert pickle.loads(pickle.dumps(result)) == result


def test_pieces_differing_only_in_count_or_notes_are_unequal():
    # A piece compares by every field: equal notes do not make equal pieces,
    # and notes that run on past another's differ from them.
    one = Piece("P", 1, 1, ("note",))
    assert one == Piece("P", 1, 1, ("note",)) and hash(one) == hash(Piece("P", 1, 1, ("note",)))
    assert one != Piece("P", 1, 0, ("note",))
    assert one != Piece("P", 1, 1, ("note", "more"))


def test_ledger_deeper_than_the_recursion_limit():
    n = 1500
    assert n > sys.getrecursionlimit()
    trace = gr_elliptic_fiber(n).trace
    assert len(trace) == 2 * n + 1
    assert trace[-1] == f"glue the last two pieces: fiber count {1 - n} + 1 = {2 - n}"


class _Sink:
    """Stdout that keeps only the bytes and the lines written to it."""

    size = lines = 0

    def write(self, text):
        self.size += len(text.encode())
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


def test_fibersum_cli_streams_its_lines():
    # The output at n = 600 is about 90 KB, and the notes and lines are
    # held while it is printed.
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            code = cli.run(["fibersum", "--n", "600", "--format", "records"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000


def test_the_fibersum_output_is_linear_in_n():
    # Each glue note has the same size whatever it glues: at the limit the
    # output is under 2 MB, where notes naming their operands made 500 MB.
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        assert cli.run(["fibersum", "--n", "10000", "--format", "records"]) == 0
    assert sink.size <= 2_000_000 and sink.lines == 20_002
