"""OSPA set distance and Monte-Carlo aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class OspaParams:
    cutoff: float = 20.0
    order: float = 2.0

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ValueError("cutoff must be positive")
        if not self.order >= 1:
            raise ValueError("order must be >= 1")


def ospa(truth: Sequence, estimates: Sequence, params: OspaParams = OspaParams()) -> float:
    """Optimal-subpattern-assignment distance between two 2D point sets.

    Cutoff-clipped Euclidean base distance, exact optimal assignment, and a
    cardinality penalty of cutoff^order per unmatched point. Empty vs empty
    is 0; empty vs nonempty is exactly the cutoff.
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
    rows, cols = linear_sum_assignment(cost)
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
