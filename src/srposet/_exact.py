"""Exact rank computations over the rationals and prime fields.

Over Q and F_p a matrix is a list of sparse integer rows {column: entry}.
Columns are int keys, not positions: only their order matters, so a
boundary row is keyed by the masks of its faces.  Every rank is one sparse
echelon: each row is reduced at its highest column by the pivot row stored
there, until it vanishes or becomes the pivot of a new column.  Boundary
matrices have few nonzeros per row, so this keeps the work near the
nonzeros (Dumas, Heckenbach, Saunders and Welker, "Computing simplicial
homology based on efficient Smith normal form algorithms", 2003).  Over Q
every stored row is an integer row divided by the gcd of its entries, over
F_p it is reduced mod p, and over F_2 a row is a bitmask.  No floating
point anywhere.
"""

from __future__ import annotations

from math import gcd


def _rank(rows: list[dict[int, int]], p: int) -> int:
    """Rank over F_p (p prime) or over Q (p = 0) of sparse integer rows."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {j: y for j, x in row.items() if (y := x % p if p else x)}
        while row:
            high = max(row)
            pivot = pivots.get(high)
            if pivot is None:
                pivots[high] = row
                break
            # a*row - b*pivot clears column `high`; a != 0 keeps the rank.
            a, b = pivot[high], row[high]
            merged = {j: a * x for j, x in row.items()}
            for j, y in pivot.items():
                merged[j] = merged.get(j, 0) - b * y
            if p:
                row = {j: y for j, x in merged.items() if (y := x % p)}
            else:
                g = gcd(*merged.values())
                row = {j: x // g for j, x in merged.items() if x}
    return len(pivots)


def rank_char0(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows {column: entry}."""
    return _rank(rows, 0)


def rank_mod2(bitrows: list[int]) -> int:
    """Rank over F_2 of a matrix whose rows are given as bitmasks."""
    pivots: dict[int, int] = {}
    for row in bitrows:
        while row:
            high = row.bit_length() - 1
            if high not in pivots:
                pivots[high] = row
                break
            row ^= pivots[high]
    return len(pivots)
