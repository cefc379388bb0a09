"""MembershipTable against the definition of U_k.

The oracle builds every row by the O(N^2) sweep of pointwise u_contains over
the window; the table must give the same member tuples, in window order, and
the same bitmask for every anchor and index, on windows of all four kinds,
branchings 1 to 3, unsigned and signed sequences, and for anchors longer
than the window's support.
"""

import itertools

import pytest

from nbhdprod.kripke import FrameKind, SymbolicTreeFrame
from nbhdprod.omega import (MembershipTable, PseudoSeq, enumerate_pseudo,
                            u_contains)

WINDOWS = ([(b, False, d) for b in (1, 2) for d in range(5)]
           + [(b, True, d) for b in (1, 2) for d in range(4)]
           + [(3, False, d) for d in range(4)] + [(3, True, d) for d in range(3)])


def oracle_mask(window, row):
    return sum(1 << bi for bi, beta in enumerate(window) if beta.stored in row)


@pytest.mark.parametrize("kind", list(FrameKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("branching,signed,d", WINDOWS)
def test_rows_match_pointwise_sweep(kind, branching, signed, d):
    frame = SymbolicTreeFrame(kind, branching)
    window = enumerate_pseudo(branching, d, signed)
    table = MembershipTable(kind, [x.stored for x in window])
    # anchors past the window's support, as lex_window_compare may pass
    longer = [PseudoSeq(x.stored + (0,) * (d + 1 - len(x.stored)) + (x.stored[-1:] or (1,)),
                        branching, signed) for x in window[::7]]
    for alpha, k in itertools.product(window + longer, range(d + 3)):
        expected = [x.stored for x in window if u_contains(frame, alpha, k, x)]
        row = table.members(alpha.stored, k)
        assert row == expected, (alpha, k)
        assert table.mask(row) == oracle_mask(window, set(expected)), (alpha, k)


def test_rows_are_one_per_stabilized_index():
    table = MembershipTable(FrameKind.RT, [x.stored for x in enumerate_pseudo(2, 4)])
    # st((1, 2)) = 3, so every k <= 3 names the same row, and k = 4 a shorter one
    rows = [table.members((1, 2), k) for k in range(4)]
    assert rows == [rows[0]] * 4 and rows[0]
    assert table.members((1, 2), 4) != rows[0]


def test_rows_are_fresh_lists():
    table = MembershipTable(FrameKind.RT, [x.stored for x in enumerate_pseudo(2, 3)])
    row = table.members((1,), 2)
    expected = list(row)
    row.append((2, 2, 2))
    row[0] = (1, 1, 1)
    assert table.members((1,), 2) == expected
    assert table.mask(table.members((1,), 2)) == \
        sum(1 << table.index[x] for x in expected)


def test_empty_rows():
    table = MembershipTable(FrameKind.IN, [x.stored for x in enumerate_pseudo(2, 2)])
    # members of U_3((1, 1)) start with (1, 1, 0), so in a support-2 window
    # only (1, 1) itself qualifies, and IN needs one more letter
    assert table.members((1, 1), 3) == []
    assert table.mask([]) == 0
