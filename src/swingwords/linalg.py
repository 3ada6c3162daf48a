"""Sparse exact row reduction over the rationals or a prime residue field.

Rows are dicts keyed by sortable column labels. The pivot of a row is its
smallest column, rows are normalized to leading coefficient 1, and inserting a
row back-eliminates its pivot from the stored rows, so the stored basis is the
reduced row echelon form of everything inserted. Insertion order therefore
does not affect the final basis, only which inputs report as rank-increasing.

Invariant: every stored row is zero at every pivot column but its own. So
clearing one pivot column of a row never changes its entry at another, and
`reduce` clears each pivot column the row has in one pass.
"""

from __future__ import annotations

from fractions import Fraction


def _inverse(value, char: int | None):
    if char is None:
        return Fraction(1, 1) / Fraction(value)
    return pow(value % char, char - 2, char)


class RowSpace:
    """An incrementally built row space in reduced echelon form."""

    def __init__(self, char: int | None = None):
        self.char = char
        self.pivots: dict[object, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _clean(self, row: dict) -> dict:
        char = self.char
        if char is None:
            return {c: v for c, v in row.items() if v}
        return {c: v % char for c, v in row.items() if v % char}

    def _axpy(self, row: dict, factor, pivot: dict) -> None:
        """row -= factor * pivot, in place, pruning zeros (mod char if set)."""
        char = self.char
        for c, v in pivot.items():
            acc = row.get(c, 0) - factor * v
            if char is not None:
                acc %= char
            if acc:
                row[c] = acc
            else:
                row.pop(c, None)

    def reduce(self, row: dict) -> dict:
        """Normal form of a row modulo the stored space."""
        row = self._clean(row)
        for col in [c for c in row if c in self.pivots]:
            self._axpy(row, row[col], self.pivots[col])
        return row

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def insert(self, row: dict) -> bool:
        """Add a row; returns True when it enlarged the space."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        inv = _inverse(row[col], self.char)
        normalized = self._clean({c: v * inv for c, v in row.items()})
        # back-eliminate the new pivot column from existing rows
        for other in self.pivots.values():
            factor = other.get(col)
            if factor:
                self._axpy(other, factor, normalized)
        self.pivots[col] = normalized
        return True

    def rows(self) -> list[dict]:
        """The reduced echelon basis, ordered by pivot column."""
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]

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


def rank(rows, char: int | None = None) -> int:
    return row_space(rows, char).rank


def kernel_basis(rows: list[dict], columns: list, char: int | None = None) -> list[dict]:
    """Basis of the right kernel of the matrix whose rows are given.

    Columns not listed are treated as absent (zero). The result is one row dict
    per free column, in reduced form with free coordinate 1.
    """
    space = row_space(rows, char)
    pivot_cols = set(space.pivots)
    basis = []
    for free in columns:
        if free in pivot_cols:
            continue
        vec = {free: 1}
        for col in sorted(space.pivots):
            coeff = space.pivots[col].get(free, 0)
            if coeff:
                vec[col] = -coeff if char is None else (-coeff) % char
        basis.append(vec)
    return basis
