"""Exact linear algebra over Q(sqrt3, sqrt5).

Rows are sparse dicts {column: Scalar} that store no zero, a rule that
`scalars.add_to` keeps during elimination.  A column may be any sortable
key: the index tuples of `MultiVector.terms` serve as coordinates as they
stand, and for the tuples of one grade their order is that of
`exterior.monomials`; the pairs (i, j) of a Ricci tensor and the
(monomial, member) unknowns of a curvature operator are columns too.
Elimination pivots on the least column holding a nonzero entry and keeps
the form fully reduced, so ranks, kernels and solution sets come out in a
deterministic normal form.  `solve` augments its rows with one more
column that sorts after every key.

A linear map is stored as its column images, a dict {column: Row} holding
the image of every basis element that the map does not kill.  `apply`
combines the columns, `transpose` turns them into the rows that
`nullspace` and `solve` eliminate, and `kernel` does both.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from .scalars import ONE, Scalar, add_to

Row = dict[Any, Scalar]


class _Last:
    """The augmented column of `solve`: sorts after every column key."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return other is not self


_RHS = _Last()


def _clean(row: Row) -> Row:
    return {c: v for c, v in row.items() if not v.is_zero}


def _axpy(target: Row, factor: Scalar, source: Row) -> None:
    """target -= factor * source, in place."""
    neg = -factor
    for c, v in source.items():
        add_to(target, c, neg * v)


class Echelon:
    """Incrementally built reduced echelon form.

    Invariant: every stored pivot row has coefficient 1 in its pivot column
    and no support on any other pivot column.
    """

    def __init__(self) -> None:
        self.pivot_rows: dict[Any, Row] = {}

    def reduce(self, row: Row) -> Row:
        row = _clean(row)
        for c in [c for c in row if c in self.pivot_rows]:
            if c in row:
                _axpy(row, row[c], self.pivot_rows[c])
        return row

    def add_row(self, row: Row) -> Any:
        """Insert a row; returns its pivot column, or None if dependent."""
        row = self.reduce(row)
        if not row:
            return None
        c = min(row)
        inv = row[c].inverse()
        row = {cc: v * inv for cc, v in row.items()}
        for prow in self.pivot_rows.values():
            if c in prow:
                _axpy(prow, prow[c], row)
        self.pivot_rows[c] = row
        return c

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)


def apply(columns: dict, vec: dict) -> dict:
    """Image of a sparse vector under the map with these column images."""
    out: dict = {}
    for k, v in vec.items():
        for r, w in columns.get(k, {}).items():
            add_to(out, r, v * w)
    return out


def transpose(columns: dict) -> dict:
    """The rows {row key: {column: entry}} of a map given by its columns."""
    rows: dict = defaultdict(dict)
    for c, col in columns.items():
        for r, v in col.items():
            rows[r][c] = v
    return dict(rows)


def kernel(columns: dict, keys: Iterable) -> list[Row]:
    """`nullspace` basis of the map with these images of the columns keys."""
    return nullspace(list(transpose(columns).values()), keys)


def echelon(rows: list[Row]) -> Echelon:
    ech = Echelon()
    for row in rows:
        ech.add_row(row)
    return ech


def rank(rows: list[Row]) -> int:
    return echelon(rows).rank


def nullspace(rows: list[Row], keys: Iterable) -> list[Row]:
    """Basis of {x : A x = 0} over the columns keys, one vector per free
    column in the order of keys, reduced form.

    The basis vector attached to free column f has entry 1 at f and its
    pivot-column entries read off the reduced form, so the output is
    deterministic for a given row order.
    """
    ech = echelon(rows)
    piv = ech.pivot_rows
    basis = []
    for f in keys:
        if f in piv:
            continue
        vec: Row = {f: ONE}
        for c, prow in piv.items():
            coeff = prow.get(f)
            if coeff is not None:
                vec[c] = -coeff
        basis.append(vec)
    return basis


def solve(rows: list[Row], rhs: list[Scalar]) -> Row | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, making the particular solution
    deterministic.  Combine with `nullspace` for the general solution.
    """
    ech = Echelon()
    for row, b in zip(rows, rhs):
        aug = dict(row)
        if not b.is_zero:
            aug[_RHS] = -b
        if ech.add_row(aug) == _RHS:
            return None
    sol: Row = {}
    for c, prow in ech.pivot_rows.items():
        r = prow.get(_RHS)
        if r is not None:
            sol[c] = -r
    return sol


def span_equal(rows_a: list[Row], rows_b: list[Row]) -> bool:
    ea, eb = echelon(rows_a), echelon(rows_b)
    if ea.rank != eb.rank:
        return False
    return all(ea.contains(r) for r in rows_b) and all(eb.contains(r) for r in rows_a)


def in_span(rows: list[Row], vec: Row) -> bool:
    return echelon(rows).contains(vec)
