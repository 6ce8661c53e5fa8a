import numpy as np
import pytest

from lmbp.association import (
    Cluster,
    bp_marginals,
    detection_hypotheses,
    enumerate_admissible,
    exact_marginals,
    miss_hypothesis,
    new_components,
    partition,
)
from lmbp.models import ClutterModel
from lmbp.rfs import BernoulliTrack, Label, Measurement, ParticleSet, PoissonPhd

from helpers import StubSensor, max_label_tv, random_cluster

Z = Measurement(100.0, 0.0)


def track_of(weights, r, label=Label(1, 1)):
    n = len(weights)
    states = np.zeros((n, 4))
    states[:, 0] = np.arange(n)
    return BernoulliTrack(label, r, ParticleSet(states, np.asarray(weights, float)))


class TestDetectionHypothesis:
    def test_nonexistent_track_detects_nothing(self):
        track = track_of([1.0], r=0.0)
        hyp = detection_hypotheses(track, [Z], StubSensor([0.7], [[0.05]]))[0]
        assert hyp.beta == 0.0

    def test_single_particle(self):
        track = track_of([1.0], r=0.5)
        hyp = detection_hypotheses(track, [Z], StubSensor([0.7], [[0.05]]))[0]
        assert hyp.beta == pytest.approx(0.0175, abs=1e-15)
        assert hyp.existence == 1.0
        np.testing.assert_allclose(hyp.pdf.weights, [1.0])

    def test_two_particle_hand_values(self):
        # w = (.5, .5), pD = 1, f = (.2, .1): b = 0.15, pdf = (2/3, 1/3)
        track = track_of([0.5, 0.5], r=1.0)
        hyp = detection_hypotheses(track, [Z], StubSensor([1.0, 1.0], [[0.2, 0.1]]))[0]
        assert hyp.beta == pytest.approx(0.15, abs=1e-15)
        np.testing.assert_allclose(hyp.pdf.weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_zero_likelihood_yields_empty_hypothesis(self):
        track = track_of([1.0], r=0.5)
        hyp = detection_hypotheses(track, [Z], StubSensor([1.0], [[0.0]]))[0]
        assert hyp.beta == 0.0 and len(hyp.pdf) == 0

    def test_whole_frame_matches_single_calls(self):
        track = track_of([0.3, 0.7], r=0.9)
        lik = [[0.2, 0.1], [0.01, 0.3], [0.0, 0.0]]
        sensor = StubSensor([0.6, 0.8], lik)
        frame = [Z, Z, Z]
        hyps = detection_hypotheses(track, frame, sensor)
        for m, hyp in enumerate(hyps):
            single = detection_hypotheses(track, [Z], StubSensor([0.6, 0.8], [lik[m]]))[0]
            assert hyp.beta == pytest.approx(single.beta)


class TestMissHypothesis:
    def test_constant_pd_closed_form(self):
        track = track_of([1.0], r=0.5)
        hyp = miss_hypothesis(track, StubSensor([0.7]))
        assert hyp.beta == pytest.approx(0.65, abs=1e-15)
        assert hyp.existence == pytest.approx(0.5 * 0.3 / 0.65, abs=1e-15)

    def test_blind_sensor(self):
        track = track_of([0.4, 0.6], r=0.3)
        hyp = miss_hypothesis(track, StubSensor([0.0, 0.0]))
        assert hyp.beta == pytest.approx(1.0)
        assert hyp.existence == pytest.approx(0.3)
        np.testing.assert_allclose(hyp.pdf.weights, [0.4, 0.6])

    def test_forced_detection_degenerate(self):
        track = track_of([1.0], r=1.0)
        hyp = miss_hypothesis(track, StubSensor([1.0]))
        assert hyp.beta == 0.0 and hyp.existence == 0.0


class TestNewComponent:
    def clutter(self, intensity, max_range=300.0):
        return ClutterModel(mean_count=intensity * max_range * 2 * np.pi,
                            max_range=max_range)

    def phd_of_mass(self, mass, n=4):
        states = np.zeros((n, 4))
        return PoissonPhd(ParticleSet(states, np.full(n, mass / n)))

    def test_pure_clutter(self):
        beta, table = new_components(PoissonPhd.empty(), [Z], StubSensor([], [[]]),
                                     self.clutter(0.053))
        assert beta[0] == pytest.approx(0.053)
        assert table.shape == (1, 0)  # existence 0: no intensity mass

    def test_clutter_free(self):
        phd = self.phd_of_mass(0.02)
        sensor = StubSensor([1.0] * 4, [[1.0] * 4])
        beta, table = new_components(phd, [Measurement(1000.0, 0.0)], sensor,
                                     self.clutter(0.5))
        # measurement outside clutter ROI
        assert table[0].sum() / beta[0] == pytest.approx(1.0)

    def test_equal_evidence(self):
        phd = self.phd_of_mass(0.053)
        sensor = StubSensor([1.0] * 4, [[1.0] * 4])
        beta, table = new_components(phd, [Z], sensor, self.clutter(0.053))
        assert table[0].sum() / beta[0] == pytest.approx(0.5)

    def test_table_holds_weighted_likelihoods(self):
        # table[m-1, i] = w_i pD(x_i) f(z_m|x_i); beta(m) adds the clutter intensity
        phd = PoissonPhd(ParticleSet(np.zeros((3, 4)), [0.1, 0.2, 0.3]))
        sensor = StubSensor([0.5, 1.0, 0.0], [[0.2, 0.4, 0.6], [0.0, 0.1, 0.0]])
        beta, table = new_components(phd, [Z, Z], sensor, self.clutter(0.053))
        np.testing.assert_allclose(table, [[0.01, 0.08, 0.0], [0.0, 0.02, 0.0]],
                                   atol=1e-15)
        np.testing.assert_allclose(beta, [0.053 + 0.09, 0.053 + 0.02], atol=1e-15)

    def test_builds_no_particle_set(self, monkeypatch):
        phd = self.phd_of_mass(0.053)
        built = []
        init = ParticleSet.__post_init__

        def counted(pset):
            built.append(pset)
            init(pset)

        monkeypatch.setattr(ParticleSet, "__post_init__", counted)
        new_components(phd, [Z, Z], StubSensor([1.0] * 4, [[1.0] * 4] * 2),
                       self.clutter(0.053))
        assert built == []

    def test_no_support_errors(self):
        with pytest.raises(ValueError, match="outside model support"):
            new_components(PoissonPhd.empty(), [Measurement(1000.0, 0.0)],
                           StubSensor([], [[]]), self.clutter(0.5))


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def cc_oracle(betas, gamma):
    """Independent oracle: BFS connected components of the plausibility graph."""
    L, M = betas.shape
    adj_label = [set(np.nonzero(betas[i] >= gamma)[0]) for i in range(L)]
    adj_meas = [set(np.nonzero(betas[:, j] >= gamma)[0]) for j in range(M)]
    seen_labels, comps = set(), []
    for start in range(L):
        if start in seen_labels:
            continue
        labels, meas, queue = set(), set(), [("l", start)]
        while queue:
            kind, idx = queue.pop()
            if kind == "l":
                if idx in labels:
                    continue
                labels.add(idx)
                queue.extend(("m", j) for j in adj_label[idx])
            else:
                if idx in meas:
                    continue
                meas.add(idx)
                queue.extend(("l", i) for i in adj_meas[idx])
        seen_labels |= labels
        comps.append((frozenset(labels), frozenset(j + 1 for j in meas)))
    return set(comps)


class TestPartition:
    labels4 = [Label(1, i + 1) for i in range(4)]

    def test_disconnected_components(self):
        betas = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        clusters, residual = partition(self.labels4[:2], betas, 3, gamma_c=0.5)
        assert clusters == [((Label(1, 1),), (1,)), ((Label(1, 2),), (2,))]
        assert residual == (3,)

    def test_shared_measurement_merges(self):
        betas = np.array([[1.0], [1.0]])
        clusters, residual = partition(self.labels4[:2], betas, 1, gamma_c=0.5)
        assert clusters == [((Label(1, 1), Label(1, 2)), (1,))]
        assert residual == ()

    def test_label_with_no_plausible_measurement_is_singleton(self):
        betas = np.array([[0.0, 0.0]])
        clusters, residual = partition(self.labels4[:1], betas, 2, gamma_c=0.5)
        assert clusters == [((Label(1, 1),), ())]
        assert residual == (1, 2)

    def test_no_labels(self):
        clusters, residual = partition([], np.empty((0, 3)), 3, gamma_c=0.5)
        assert clusters == [] and residual == (1, 2, 3)

    def test_threshold_is_inclusive(self):
        betas = np.array([[0.5]])
        clusters, _ = partition(self.labels4[:1], betas, 1, gamma_c=0.5)
        assert clusters == [((Label(1, 1),), (1,))]

    def test_matches_connected_component_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            L = int(rng.integers(1, 9))
            M = int(rng.integers(0, 9))
            betas = rng.random((L, M))
            gamma = float(rng.uniform(0.3, 0.9))
            labels = [Label(1, i + 1) for i in range(L)]
            clusters, residual = partition(labels, betas, M, gamma)
            got = {(frozenset(labels.index(l) for l in ls), frozenset(ms))
                   for ls, ms in clusters}
            assert got == cc_oracle(betas, gamma)
            # disjointness and completeness
            all_meas = [m for _, ms in clusters for m in ms] + list(residual)
            assert sorted(all_meas) == list(range(1, M + 1))
            all_labels = [l for ls, _ in clusters for l in ls]
            assert sorted(all_labels) == sorted(labels)


# ---------------------------------------------------------------------------
# Enumeration and marginalization
# ---------------------------------------------------------------------------


def single_legacy_cluster(miss, det, new):
    return Cluster((Label(1, 1),), (), tuple(range(1, len(new) + 1)),
                   np.array([miss]), np.array([det]), np.array(new))


class TestEnumerateAdmissible:
    def test_one_legacy_one_measurement(self):
        cluster = single_legacy_cluster(0.4, [2.0], [1.5])
        hyps = dict()
        for vector, weight in enumerate_admissible(cluster):
            hyps[vector[Label(1, 1)]] = weight
        total = 0.4 * 1.5 + 2.0
        assert hyps[0] == pytest.approx(0.4 * 1.5 / total, abs=1e-12)
        assert hyps[1] == pytest.approx(2.0 / total, abs=1e-12)

    def test_isolated_transfer_label_is_fifty_fifty(self):
        lab = Label(5, 1)
        cluster = Cluster((), (lab,), (1,), np.empty(0), np.empty((0, 1)),
                          np.array([3.7]))
        hyps = enumerate_admissible(cluster)
        assert len(hyps) == 2
        for _, weight in hyps:
            assert weight == pytest.approx(0.5, abs=1e-12)

    def test_two_legacy_one_measurement_counts(self):
        cluster = Cluster((Label(1, 1), Label(1, 2)), (), (1,), np.array([0.5, 0.5]),
                          np.array([[1.0], [2.0]]), np.array([0.3]))
        assert len(enumerate_admissible(cluster)) == 3

    def test_weights_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cluster = random_cluster(rng)
            weights = [w for _, w in enumerate_admissible(cluster)]
            assert abs(sum(weights) - 1.0) <= 1e-12

    def test_no_measurement_claimed_twice(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cluster = random_cluster(rng)
            for vector, _ in enumerate_admissible(cluster):
                used = [vector[lab] for lab in cluster.legacy_labels if vector[lab] > 0]
                used += [lab.index for lab in cluster.transfer_labels if vector[lab] == 1]
                assert len(used) == len(set(used))

    def test_empty_cluster(self):
        cluster = Cluster((), (), (), np.empty(0), np.empty((0, 0)), np.empty(0))
        assert enumerate_admissible(cluster) == [({}, 1.0)]

    def test_log_domain_handles_tiny_weights(self):
        cluster = Cluster((Label(1, 1), Label(1, 2)), (), (1, 2),
                          np.full(2, 1e-180), np.full((2, 2), 1e-180),
                          np.full(2, 1e-180))
        weights = [w for _, w in enumerate_admissible(cluster)]
        assert abs(sum(weights) - 1.0) <= 1e-12
        assert all(np.isfinite(w) for w in weights)


class TestExactMarginals:
    def test_balanced_pair(self):
        # beta(l,0) beta(m1) == beta(l,m1) makes both hypotheses equal
        cluster = single_legacy_cluster(0.5, [1.0], [2.0])
        marg = exact_marginals(cluster)
        assert marg.legacy[Label(1, 1)][0] == pytest.approx(0.5, abs=1e-12)
        assert marg.legacy[Label(1, 1)][1] == pytest.approx(0.5, abs=1e-12)

    def test_no_measurements(self):
        cluster = Cluster((Label(1, 1),), (), (), np.array([0.7]),
                          np.empty((1, 0)), np.empty(0))
        marg = exact_marginals(cluster)
        assert marg.legacy[Label(1, 1)] == {0: 1.0}

    def test_pmfs_normalized_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            marg = exact_marginals(random_cluster(rng))
            for pmf in list(marg.legacy.values()) + list(marg.transfer.values()):
                assert abs(sum(pmf.values()) - 1.0) <= 1e-9
                assert all(0.0 <= p <= 1.0 for p in pmf.values())


class TestBpMarginals:
    def test_single_label_cluster_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cluster = random_cluster(rng, max_legacy=1, max_transfer=0)
            assert max_label_tv(exact_marginals(cluster),
                                bp_marginals(cluster, 20)) <= 1e-9

    def test_single_transfer_cluster_is_exact(self):
        lab = Label(5, 1)
        cluster = Cluster((), (lab,), (1,), np.empty(0), np.empty((0, 1)),
                          np.array([0.8]))
        marg = bp_marginals(cluster, 20)
        assert marg.transfer[lab][1] == pytest.approx(0.5, abs=1e-12)

    def test_disconnected_blocks_are_exact(self):
        # two labels with disjoint plausible sets: zero cross entries
        cluster = Cluster((Label(1, 1), Label(1, 2)), (), (1, 2),
                          np.array([0.3, 0.9]),
                          np.array([[2.0, 0.0], [0.0, 5.0]]),
                          np.array([1.0, 0.4]))
        assert max_label_tv(exact_marginals(cluster), bp_marginals(cluster, 20)) <= 1e-9

    def test_star_with_transfer_is_exact(self):
        # one measurement shared by a legacy and a transfer label: still a tree
        tr = Label(5, 1)
        cluster = Cluster((Label(1, 1),), (tr,), (1,), np.array([0.4]),
                          np.array([[3.0]]), np.array([0.7]))
        assert max_label_tv(exact_marginals(cluster), bp_marginals(cluster, 20)) <= 1e-9

    def test_loopy_accuracy_sanity(self):
        # the acceptance suite checks the distributional bound; this is a floor
        rng = np.random.default_rng(7)
        close = 0
        for _ in range(200):
            cluster = random_cluster(rng)
            if max_label_tv(exact_marginals(cluster), bp_marginals(cluster, 20)) <= 0.05:
                close += 1
        assert close >= 180

    def test_pmfs_normalized(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            marg = bp_marginals(random_cluster(rng), 20)
            for pmf in list(marg.legacy.values()) + list(marg.transfer.values()):
                assert abs(sum(pmf.values()) - 1.0) <= 1e-9

    def test_measurement_scale_invariance(self):
        # scaling the likelihood-dimension entries (detection and new-object
        # weights) by a common constant changes nothing
        rng = np.random.default_rng(9)
        for _ in range(40):
            cluster = random_cluster(rng)
            scale = 10.0 ** rng.uniform(-3, 3)
            scaled = Cluster(cluster.legacy_labels, cluster.transfer_labels,
                             cluster.meas_indices, cluster.miss_beta,
                             cluster.det_beta * scale, cluster.new_beta * scale)
            assert max_label_tv(exact_marginals(cluster), exact_marginals(scaled)) <= 1e-9
            assert max_label_tv(bp_marginals(cluster, 20), bp_marginals(scaled, 20)) <= 1e-9
            for (v1, w1), (v2, w2) in zip(enumerate_admissible(cluster),
                                          enumerate_admissible(scaled)):
                assert v1 == v2
                assert w1 == pytest.approx(w2, abs=1e-9)
