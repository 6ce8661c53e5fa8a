"""Data association: hypothesis weights, plausibility partitioning, and
marginal association probabilities (exact enumeration and loopy BP).

Measurement indices are 1-based throughout this module: index 0 is reserved
for the miss hypothesis, and transferred tracks get labels (k, m) with m >= 1.
A frame's m-th measurement lives at `frame[m - 1]`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import ClutterModel, SensorModel
from .rfs import BernoulliTrack, Label, Measurement, ParticleSet, PoissonPhd

_TINY = 1e-300  # denominator floor; keeps degenerate messages finite


@dataclass(frozen=True)
class Hypothesis:
    """One association hypothesis: its weight, the existence probability it
    implies, and the spatial pdf given it.

    The same type serves a track's miss, a track's detection of one
    measurement, and the new component of a measurement transferred to the
    labeled part (see `lmbp.update.select_transfers`).
    """

    beta: float
    existence: float
    pdf: ParticleSet


# shared by every detection hypothesis with zero weight
_NO_DETECTION = Hypothesis(0.0, 0.0, ParticleSet.empty())


def detection_hypotheses(track: BernoulliTrack, frame: Sequence[Measurement],
                         sensor: SensorModel) -> list[Hypothesis]:
    """Detection hypotheses of one predicted track against every measurement.

    Per measurement: b = sum_i w_i pD(x_i) f(z|x_i), beta = r * b, and the
    pdf reweights the predicted particles by pD * likelihood, so every pdf
    lives on the track's own particles. A measurement with b = 0 yields
    beta = 0 with an empty pdf (pruned later by gating); the weights are
    multiplied and summed only over likelihood rows with a nonzero entry.
    """
    states = track.pdf.states
    likelihood = sensor.likelihood_table(frame, states)
    rows = np.flatnonzero(likelihood.any(axis=1))
    table = (track.pdf.weights * sensor.detection_prob(states)) * likelihood[rows]
    out = [_NO_DETECTION] * len(frame)
    for m, weights, b in zip(rows, table, table.sum(axis=1)):
        if b <= 0.0:
            continue
        out[m] = Hypothesis(track.existence * float(b), 1.0, ParticleSet(states, weights / b))
    return out


def miss_hypothesis(track: BernoulliTrack, sensor: SensorModel) -> Hypothesis:
    """Miss hypothesis of one predicted track.

    c = sum_i w_i (1 - pD(x_i)); beta = 1 - r + r c; existence = r c / beta.
    beta can only vanish in the forced-detection corner (r = 1, pD = 1),
    which returns beta = 0 with existence 0.
    """
    pd = sensor.detection_prob(track.pdf.states)
    weights = track.pdf.weights * (1.0 - pd)
    c = float(weights.sum())
    beta = 1.0 - track.existence + track.existence * c
    if beta <= 0.0:
        return Hypothesis(0.0, 0.0, ParticleSet.empty())
    if c <= 0.0:
        # object, if present, was surely detected; pdf carries no mass
        return Hypothesis(beta, 0.0, ParticleSet.empty())
    pdf = ParticleSet(track.pdf.states, weights / c)
    return Hypothesis(beta, track.existence * c / beta, pdf)


def new_components(phd: PoissonPhd, frame: Sequence[Measurement], sensor: SensorModel,
                   clutter: ClutterModel) -> tuple[np.ndarray, np.ndarray]:
    """Unlabeled-or-clutter evidence of every measurement, as weights over the
    intensity particles.

    Returns `beta` (M,) and `table` (M, N) with table[m-1, i] =
    w_i pD(x_i) f(z_m|x_i). Measurement m's component has d = table[m-1].sum(),
    beta = clutter intensity + d, existence d / beta, and pdf table[m-1] / d
    over the intensity particles; no particle set is built here.
    """
    states = phd.particles.states
    table = (phd.particles.weights * sensor.detection_prob(states)) * \
        sensor.likelihood_table(frame, states)
    beta = np.array([clutter.intensity(z) for z in frame]) + table.sum(axis=1)
    if np.any(beta <= 0.0):
        raise ValueError("measurement outside model support")
    return beta, table


# ---------------------------------------------------------------------------
# Partitioning of labels and measurement indices
# ---------------------------------------------------------------------------


def partition(labels: Sequence[Label], betas: np.ndarray, meas_count: int,
              gamma_c: float) -> tuple[list[tuple[tuple[Label, ...], tuple[int, ...]]],
                                       tuple[int, ...]]:
    """Group labels with the measurements they plausibly associate with.

    `betas[i, m-1]` is the detection weight of labels[i] with measurement m.
    A pair is plausible when its weight is >= gamma_c; clusters are grown by
    iteratively merging label groups whose plausible measurement sets overlap
    (ties resolved toward the smallest group index for determinism). Returns
    `(clusters, residual)` where each cluster is `(labels, meas_indices)` with
    1-based measurement indices, clusters are ordered by their smallest label,
    and `residual` holds the measurement indices in no cluster.
    """
    labels = list(labels)
    betas = np.asarray(betas, dtype=float).reshape(len(labels), meas_count)
    plausible = [frozenset(int(m) + 1 for m in np.nonzero(betas[i] >= gamma_c)[0])
                 for i in range(len(labels))]

    clusters: list[tuple[list[int], set[int]]] = []
    for j, lab_meas in enumerate(plausible):
        overlapping = [c for c, (_, ms) in enumerate(clusters) if ms & lab_meas]
        if not overlapping:
            clusters.append(([j], set(lab_meas)))
        else:
            # merge all overlapping groups into the lowest-indexed one
            target = overlapping[0]
            for c in overlapping[1:]:
                clusters[target][0].extend(clusters[c][0])
                clusters[target][1].update(clusters[c][1])
            clusters[target][0].append(j)
            clusters[target][1].update(lab_meas)
            clusters = [cl for c, cl in enumerate(clusters) if c not in overlapping[1:]]

    out = []
    for idxs, meas in clusters:
        out.append((tuple(sorted(labels[i] for i in idxs)), tuple(sorted(meas))))
    out.sort(key=lambda cl: cl[0][0])
    used = set().union(*(set(ms) for _, ms in out)) if out else set()
    residual = tuple(m for m in range(1, meas_count + 1) if m not in used)
    return out, residual


# ---------------------------------------------------------------------------
# Cluster association problem and its marginalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """One independent association problem: a label subset, a measurement
    subset, and the association-weight tables restricted to them.

    `det_beta[i, j]` pairs legacy_labels[i] with meas_indices[j]; transfer
    labels are (k, m) with m in meas_indices and carry implicit weights
    beta(m) for claim and 1 for no-claim.
    """

    legacy_labels: tuple[Label, ...]
    transfer_labels: tuple[Label, ...]
    meas_indices: tuple[int, ...]      # 1-based, sorted
    miss_beta: np.ndarray              # (L,)
    det_beta: np.ndarray               # (L, M)
    new_beta: np.ndarray               # (M,)

    def __post_init__(self):
        L, M = len(self.legacy_labels), len(self.meas_indices)
        object.__setattr__(self, "miss_beta", np.asarray(self.miss_beta, float).reshape(L))
        object.__setattr__(self, "det_beta", np.asarray(self.det_beta, float).reshape(L, M))
        object.__setattr__(self, "new_beta", np.asarray(self.new_beta, float).reshape(M))
        for lab in self.transfer_labels:
            if lab.index not in self.meas_indices:
                raise ValueError(f"transfer label {lab} outside cluster measurements")
        if len(set(self.transfer_labels)) != len(self.transfer_labels):
            raise ValueError("duplicate transfer labels")

    def meas_pos(self, m: int) -> int:
        return self.meas_indices.index(m)


@dataclass(frozen=True)
class MarginalAssociation:
    """Per-label marginal pmfs: legacy over {0} + meas_indices, transfer over {0, 1}."""

    legacy: dict[Label, dict[int, float]]
    transfer: dict[Label, dict[int, float]]

    def __post_init__(self):
        for pmf in list(self.legacy.values()) + list(self.transfer.values()):
            total = sum(pmf.values())
            if abs(total - 1.0) > 1e-9 or any(p < 0 for p in pmf.values()):
                raise ValueError("marginal pmf is not normalized")


def enumerate_admissible(cluster: Cluster) -> list[tuple[dict[Label, int], float]]:
    """All admissible association vectors of a cluster with normalized weights.

    Legacy entries live in {0} + meas_indices, transfer entries in {0, 1};
    no measurement is claimed twice (a transfer label (k, m) with entry 1
    claims m). Every unclaimed measurement contributes its beta(m) factor.
    Weights are products of beta factors, computed in log domain and
    normalized to sum to one.
    """
    L = len(cluster.legacy_labels)
    M = len(cluster.meas_indices)
    with np.errstate(divide="ignore"):
        log_miss = np.log(cluster.miss_beta)
        log_det = np.log(cluster.det_beta)
        log_new = np.log(cluster.new_beta)
    tr_pos = [cluster.meas_pos(t.index) for t in cluster.transfer_labels]

    assignments: list[tuple[tuple[int, ...], tuple[int, ...], float]] = []

    def recurse_legacy(i: int, used: int, acc: float, entries: list[int]):
        if i == L:
            recurse_transfer(0, used, acc, entries, [])
            return
        recurse_legacy(i + 1, used, acc + log_miss[i], entries + [0])
        for j in range(M):
            if not used & (1 << j):
                recurse_legacy(i + 1, used | (1 << j), acc + log_det[i, j],
                               entries + [cluster.meas_indices[j]])

    def recurse_transfer(t: int, used: int, acc: float, leg: list[int], tr: list[int]):
        if t == len(tr_pos):
            unclaimed = acc
            for j in range(M):
                if not used & (1 << j):
                    unclaimed += log_new[j]
            assignments.append((tuple(leg), tuple(tr), unclaimed))
            return
        recurse_transfer(t + 1, used, acc, leg, tr + [0])  # no-claim weight is 1
        j = tr_pos[t]
        if not used & (1 << j):
            recurse_transfer(t + 1, used | (1 << j), acc + log_new[j], leg, tr + [1])

    recurse_legacy(0, 0, 0.0, [])

    log_w = np.array([a[2] for a in assignments])
    peak = log_w.max()
    if not np.isfinite(peak):
        raise ValueError("all association hypotheses have zero weight")
    w = np.exp(log_w - peak)
    w /= w.sum()

    out = []
    for (leg, tr, _), weight in zip(assignments, w):
        vector = dict(zip(cluster.legacy_labels, leg))
        vector.update(zip(cluster.transfer_labels, tr))
        out.append((vector, float(weight)))
    return out


def exact_marginals(cluster: Cluster) -> MarginalAssociation:
    """Marginal association pmfs by direct summation over admissible vectors."""
    hypotheses = enumerate_admissible(cluster)
    legacy = {lab: {0: 0.0, **{m: 0.0 for m in cluster.meas_indices}}
              for lab in cluster.legacy_labels}
    transfer = {lab: {0: 0.0, 1: 0.0} for lab in cluster.transfer_labels}
    for vector, weight in hypotheses:
        for lab in cluster.legacy_labels:
            legacy[lab][vector[lab]] += weight
        for lab in cluster.transfer_labels:
            transfer[lab][vector[lab]] += weight
    return MarginalAssociation(legacy, transfer)


def enumeration_size(cluster: Cluster) -> float:
    """Upper bound on the admissible-vector count (guards exact mode)."""
    M = len(cluster.meas_indices)
    return float((M + 1) ** len(cluster.legacy_labels) * 2 ** len(cluster.transfer_labels))


def bp_marginals(cluster: Cluster, iterations: int = 20) -> MarginalAssociation:
    """Loopy belief propagation on the bipartite label-measurement graph.

    Detection weights are normalized per measurement (w = beta(l,m)/beta(m)),
    which makes the scheme invariant to measurement-unit scaling. Messages

        x(l->m) = w(l,m) / (beta(l,0) + sum_{m' != m} w(l,m') nu(m'->l))
        nu(m->l) = 1 / (1 + [transfer on m] + sum_{l' != l} x(l'->m))

    run for a fixed iteration count from nu = 1 (no convergence test); a
    transfer label's outgoing message is the constant 1 because its claim
    weight equals beta(m). Beliefs: p(l->m) proportional to w(l,m) nu(m->l),
    p(l->0) to beta(l,0); for a transfer label p(1)/p(0) = nu(m->l). Exact
    whenever the cluster's plausibility graph is acyclic.
    """
    L = len(cluster.legacy_labels)
    M = len(cluster.meas_indices)
    w = cluster.det_beta / np.maximum(cluster.new_beta, _TINY)[None, :]
    tmask = np.zeros(M)
    for t in cluster.transfer_labels:
        tmask[cluster.meas_pos(t.index)] += 1.0

    nu = np.ones((M, L))
    x = np.zeros((L, M))
    for _ in range(iterations):
        weighted = w * nu.T                                   # (L, M)
        denom = cluster.miss_beta[:, None] + weighted.sum(axis=1, keepdims=True) - weighted
        x = w / np.maximum(denom, _TINY)
        sum_x = x.sum(axis=0)
        nu = 1.0 / np.maximum(1.0 + tmask[:, None] + sum_x[:, None] - x.T, _TINY)

    legacy = {}
    for i, lab in enumerate(cluster.legacy_labels):
        raw = np.concatenate([[cluster.miss_beta[i]], w[i] * nu[:, i]])
        raw /= raw.sum()
        legacy[lab] = {0: float(raw[0])}
        legacy[lab].update({m: float(p) for m, p in zip(cluster.meas_indices, raw[1:])})
    transfer = {}
    for lab in cluster.transfer_labels:
        j = cluster.meas_pos(lab.index)
        claim = 1.0 / (1.0 + tmask[j] - 1.0 + x[:, j].sum())
        total = 1.0 + claim
        transfer[lab] = {0: 1.0 / total, 1: claim / total}
    return MarginalAssociation(legacy, transfer)
