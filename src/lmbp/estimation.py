"""Object detection and state estimation from the labeled part of the posterior."""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rfs import FilterState, Label, pdf_mean


@dataclass(frozen=True)
class TrackEstimate:
    label: Label
    state: np.ndarray
    existence: float


def detect_and_estimate(state: FilterState, gamma_d: float) -> list[TrackEstimate]:
    """Declare tracks with existence strictly above gamma_d and estimate their
    states as the pdf mean (`pdf_mean`), row by row from the state's block.
    Output is ordered by label; purely deterministic.
    """
    block = state.block
    rows = block.rows()
    existence = block.existence.tolist()
    out = []
    for i in sorted(range(len(block.labels)), key=block.labels.__getitem__):
        if existence[i] > gamma_d:
            states, weights = rows[i]
            out.append(TrackEstimate(block.labels[i], pdf_mean(states, weights), existence[i]))
    return out


ESTIMATE_HEADER = "k,label_birth,label_index,x1,x2,v1,v2,existence"


def write_estimates_csv(out: io.TextIOBase,
                        per_step: Sequence[tuple[int, Sequence[TrackEstimate]]]) -> None:
    """CSV rows `k,label_birth,label_index,x1,x2,v1,v2,existence` per estimate."""
    out.write(ESTIMATE_HEADER + "\n")
    for k, estimates in per_step:
        for est in estimates:
            fields = [str(k), str(est.label.birth_time), str(est.label.index)]
            fields += [f"{v:.17g}" for v in est.state]
            fields.append(f"{est.existence:.17g}")
            out.write(",".join(fields) + "\n")
