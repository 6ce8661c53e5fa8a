"""OSPA set distance and Monte-Carlo aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class OspaParams:
    cutoff: float = 20.0
    order: float = 2.0

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ValueError("cutoff must be positive")
        if not self.order >= 1:
            raise ValueError("order must be >= 1")


def _linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of the rows of a 2-D cost array to its columns,
    as `(rows, cols)` lists of min(n_rows, n_cols) pairs, rows ascending.

    Crouse's shortest augmenting path (IEEE TAES 2016) with the tie rules of
    scipy's `linear_sum_assignment`, so it returns scipy's indices exactly:
    each search scans the remaining columns from the last one down and
    removes a visited column by swapping in the last remaining one; among
    columns of equal lowest reduced cost it takes the last free one scanned,
    or the first one scanned if none is free; a matrix with more rows than
    columns is solved transposed, and its pairs are returned sorted by row.
    +inf entries are allowed; nan or -inf raises, as does a matrix with no
    finite assignment.
    """
    nr, nc = cost.shape
    if nr == 0 or nc == 0:
        return [], []
    if not (cost > -math.inf).all():
        raise ValueError("matrix contains invalid numeric entries")
    transpose = nc < nr
    if transpose:
        cost, nr, nc = cost.T, nc, nr
    c = cost.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row `cur` to a free column (the sink)
        shortest = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows_seen.append(i)
            index, lowest = -1, math.inf
            row, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then flip the path's assignments
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        pairs = sorted(zip(col4row, range(nr)))
        return [a for a, _ in pairs], [b for _, b in pairs]
    return list(range(nr)), col4row


def ospa(truth: Sequence, estimates: Sequence, params: OspaParams = OspaParams()) -> float:
    """Optimal-subpattern-assignment distance between two 2D point sets
    (Schuhmacher, Vo & Vo, IEEE TSP 2008).

    Cutoff-clipped Euclidean base distance, exact optimal assignment, and a
    cardinality penalty of cutoff^order per unmatched point. Empty vs empty
    is 0; empty vs nonempty is exactly the cutoff. The assignment is
    `_linear_sum_assignment`: Crouse's shortest augmenting path with scipy's
    tie rules, so the matched costs, and their sum, are the ones scipy's
    `linear_sum_assignment` gives. A nan coordinate raises ValueError, and so
    does an infinite one under an infinite cutoff.
    """
    x = np.asarray(truth, dtype=float).reshape(-1, 2)
    y = np.asarray(estimates, dtype=float).reshape(-1, 2)
    if x.shape[0] == 0 and y.shape[0] == 0:
        return 0.0
    if x.shape[0] == 0 or y.shape[0] == 0:
        return float(params.cutoff)
    c, p = params.cutoff, params.order
    dist = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    cost = np.minimum(dist, c) ** p
    rows, cols = _linear_sum_assignment(cost)
    n = max(x.shape[0], y.shape[0])
    total = cost[rows, cols].sum() + c ** p * (n - len(rows))
    return float((total / n) ** (1.0 / p))


def mospa_curve(per_run_per_step: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-step mean of per-run OSPA sequences; runs must have equal length."""
    if len(per_run_per_step) == 0:
        raise ValueError("no runs to aggregate")
    lengths = {len(run) for run in per_run_per_step}
    if len(lengths) != 1:
        raise ValueError("runs have unequal step counts")
    return np.asarray(per_run_per_step, dtype=float).mean(axis=0)
