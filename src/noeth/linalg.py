"""Exact Gauss-Jordan elimination over any field-like coefficient type.

Rows are lists; entries only need +, -, *, /, bool.  Used for kernel bases;
operator spans are reduced sparsely by diffop.Echelon.
"""

from __future__ import annotations


def rref(rows):
    """Reduced row echelon form; returns (reduced nonzero rows, pivot columns)."""
    if not rows:
        return [], []
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][col]
        if pv != pv / pv:  # normalize pivot to 1
            rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def nullspace(rows, ncols, zero, one):
    """Basis of {c : rows . c = 0}, one vector per free column, in column order."""
    reduced, pivots = rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row, p in zip(reduced, pivots):
            if row[free]:
                vec[p] = -row[free]
        basis.append(vec)
    return basis
