"""The CSR invariants of a graph, written once: ``_check_csr``.

``Graph(adjacency)`` runs it on the rows it has sorted, and tier-1's autouse
fixture runs it on every ``Graph._set``. It costs about a third of a build, so
the builders behind the CLI, whose rows are valid by construction, never run
it, and no subcommand imports this module: ``Graph.__init__`` imports it when
it runs. Kept out of graph.py, its code adds nothing to the compile of every
job that loads graph.py.
"""
from __future__ import annotations

import numpy as np

from .graph import _id_dtype


def _check_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first CSR invariant that ``indptr`` and ``indices`` break.

    ``indptr`` is int64, starts at 0, never falls and ends at ``len(indices)``;
    the ids have ``_id_dtype(n)`` and lie in 0..n-1; no row holds its own node;
    each row is strictly increasing; and every arc (u, v) has its reverse
    (v, u). Each rule on the arcs names its first offender in row order. The
    reversed arc keys, sorted, must equal the arc keys, which the row order
    already sorts: O(m log m) for one sort. Where they first differ, the
    smaller key is the smallest one that the other side lacks, the edge named.
    """
    n = len(indptr) - 1
    if indptr.dtype != np.int64 or n < 0:
        raise ValueError(f"indptr is {indptr.dtype} of length {len(indptr)}, not int64 of length n + 1")
    if indptr[0] != 0 or indptr[-1] != len(indices):
        raise ValueError(f"indptr runs from {indptr[0]} to {indptr[-1]}, not from 0 to {len(indices)}")
    deg = np.diff(indptr)
    if (deg < 0).any():
        raise ValueError(f"indptr falls: row {int(np.argmax(deg < 0))} ends before it starts")
    if indices.dtype != _id_dtype(n):
        raise ValueError(f"indices are {indices.dtype}, not {np.dtype(_id_dtype(n))}, for {n} nodes")
    rows, cols = np.repeat(np.arange(n, dtype=np.int64), deg), indices.astype(np.int64)
    rise = np.diff(cols, prepend=0)  # each arc less the one before it
    rise[indptr[:-1][deg > 0]] = 1  # the first arc of a row, which has none before it in its row
    for bad, what in (((cols < 0) | (cols >= n), f"is out of range 0..{n - 1}"),
                      (cols == rows, "is a self-loop"),
                      (rise == 0, "is repeated"), (rise < 0, "is out of order")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"neighbor {cols[i]} of node {rows[i]} {what}")
    arcs, reversed_arcs = rows * n + cols, np.sort(cols * n + rows)
    if not np.array_equal(arcs, reversed_arcs):
        i = int(np.argmax(arcs != reversed_arcs))
        a, b = divmod(int(min(arcs[i], reversed_arcs[i])), n)
        raise ValueError(f"edge ({a}, {b}) is listed by only one of its end nodes")
