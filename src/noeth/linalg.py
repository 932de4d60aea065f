"""Dense exact Gauss-Jordan elimination over any field-like coefficient type.

Rows are lists; entries only need +, -, *, /, bool.  Nothing in the library
calls it: every span and kernel question runs on diffop.Echelon.  It stays as
the dense reference the tests compare Echelon against, and as a layer the
benchmark tracer wraps.
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
