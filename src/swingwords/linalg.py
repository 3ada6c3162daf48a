"""Sparse exact row reduction over the rationals or a prime residue field.

Rows are dicts keyed by sortable column labels. The pivot of a row is its
smallest column, and inserting a row back-eliminates its pivot from the stored
rows, so the stored basis is a fixed multiple of the reduced row echelon form
of everything inserted. Insertion order therefore does not affect the final
basis, only which inputs report as rank-increasing.

Over the rationals elimination is fraction-free (Bareiss 1968): an incoming
row is cleared to integers once (`scalars.cleared`), every later step is
integer arithmetic, and a normal form is divided once (`scalars.divided`).
Each stored row is primitive: an integer vector with content 1 and a positive
leading entry, which is the one integer multiple of its reduced echelon row
with those properties. Over F_q each stored row has leading entry 1.

Invariant: every stored row is zero at every pivot column but its own. So
clearing one pivot column of a row never changes its entry at another, and
`reduce` clears each pivot column the row has in one pass.

Every rank the package reads comes from one scan, `independent`: rows are
inserted in the order given until the rank reaches a limit, and the indices
of those that raised it are returned. The greedy bases keep their word order
and read the indices; `rank` inserts sparsest first and reads their number.
Only the relation spans keep a `RowSpace` of their own, to reduce against.
"""

from __future__ import annotations

from itertools import count
from math import gcd

from .scalars import cleared, divided


class RowSpace:
    """An incrementally built row space in (scaled) reduced echelon form."""

    def __init__(self, char: int | None = None):
        self.char = char
        self.pivots: dict[object, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _clear(self, row: dict, col, pivot: dict) -> int:
        """row <- b*row - a*pivot, in place, pruning zeros (mod char if set),
        with a/b = row[col]/pivot[col] in lowest terms, so row[col] becomes 0.
        Returns the multiplier b, which is 1 over F_q (stored leading entries
        are 1 there)."""
        a, b = row[col], pivot[col]
        g = gcd(a, b)
        a //= g
        b //= g
        if b != 1:
            for c in row:
                row[c] *= b
        char = self.char
        for c, v in pivot.items():
            acc = row.get(c, 0) - a * v
            if char is not None:
                acc %= char
            if acc:
                row[c] = acc
            else:
                row.pop(c, None)
        return b

    def _reduced(self, row: dict) -> tuple[dict, int]:
        """(integer row, scale) whose quotient is the normal form of the input;
        over F_q the row of residues and scale 1."""
        row, scale = cleared(row, self.char)
        pivots = self.pivots
        for col in [c for c in row if c in pivots]:
            scale *= self._clear(row, col, pivots[col])
        return row, scale

    def reduce(self, row: dict) -> dict:
        """Normal form of a row modulo the stored space."""
        return divided(*self._reduced(row), self.char)

    def contains(self, row: dict) -> bool:
        return not self._reduced(row)[0]

    def insert(self, row: dict) -> bool:
        """Add a row; returns True when it enlarged the space."""
        new, _ = self._reduced(row)
        if not new:
            return False
        col = min(new)
        char = self.char
        if char is None:
            g = gcd(*new.values())
            if new[col] < 0:
                g = -g
            if g != 1:
                new = {c: v // g for c, v in new.items()}
        else:
            new = divided(new, new[col], char)
        # back-eliminate the new pivot column from existing rows
        for other in self.pivots.values():
            if col in other:
                self._clear(other, col, new)
                if char is None:
                    g = gcd(*other.values())
                    if g != 1:
                        for c in other:
                            other[c] //= g
        self.pivots[col] = new
        return True

    def rows(self) -> list[dict]:
        """The reduced echelon basis, ordered by pivot column."""
        return [divided(dict(self.pivots[c]), self.pivots[c][c], self.char)
                for c in sorted(self.pivots)]

    def __eq__(self, other):
        if not isinstance(other, RowSpace):
            return NotImplemented
        if self.char != other.char or set(self.pivots) != set(other.pivots):
            return False
        return all(self.pivots[c] == other.pivots[c] for c in self.pivots)


def row_space(rows, char: int | None = None) -> RowSpace:
    space = RowSpace(char)
    for row in rows:
        space.insert(row)
    return space


def independent(rows, limit: int | None = None, char: int | None = None) -> list[int]:
    """The indices, in order, of the rows that raise the rank of the rows
    before them, inserting until the rank reaches `limit`. The limit is
    checked before each row is drawn, so a generator builds no row past the
    stop. This is the one insert-until-full scan: the greedy bases read its
    indices, `rank` their number."""
    space = RowSpace(char)
    raised: list[int] = []
    rows = iter(rows)
    for i in count():
        if space.rank == limit or (row := next(rows, None)) is None:
            return raised
        if space.insert(row):
            raised.append(i)


def rank(rows, char: int | None = None, columns: int | None = None) -> int:
    """The rank of some rows, which does not depend on their order. So they
    are inserted sparsest first (fewest entries; a stable sort), which keeps
    the fill-in of the stored rows low, and, when `columns` gives the number
    of columns, the inserts stop once the rank reaches it: no rank can pass
    the number of columns, so no later row can raise it."""
    return len(independent(sorted(rows, key=len), columns, char))
