"""Acceptance suite: every criterion runs at its stated tolerance and prints
one verdict line (visible with `pytest -s` or in failure reports).

Known red: `test_criterion_1_bp_tvd_bound` — converged loopy BP on dense
log-uniform association tables exceeds the 0.05 per-label TV bound on ~5%
of instances (not a round-count issue: identical failures at `BP_ROUNDS` =
20 and at 2000 rounds; the brute-force enumeration oracle is cross-checked
by an independent formulation, the exact subset pass). The acyclic-exactness and runtime clauses of the same
criterion pass. See that test's docstring for the measured numbers.
"""

import time

import numpy as np

from lmbp.association import (
    Hypothesis,
    bp_marginals,
    detection_hypotheses,
    miss_hypothesis,
    new_components,
)
from lmbp.cli import execute_run, initial_state, run_experiment
from lmbp.config import build_run_config
from lmbp.estimation import detect_and_estimate
from lmbp.metrics import OspaParams, mospa_curve, ospa
from lmbp.models import BirthModel, Models, MotionModel
from lmbp.prediction import predict_phd, predict_track
from lmbp.rfs import (
    BernoulliTrack,
    FilterState,
    Label,
    Measurement,
    ParticleSet,
    PoissonPhd,
    resample,
)
from lmbp.simulate import generate_frames, generate_truth
from lmbp.update import (
    FilterSettings,
    Thresholds,
    lmbp_step,
    select_transfers,
    split_by_retention,
    update_legacy_track,
    update_phd,
    update_transferred_track,
)

from helpers import (
    ClusterTables,
    StubSensor,
    block_of,
    brute_force_marginals,
    cells_of,
    max_label_tv,
    partition_of,
    pdf_of,
    random_cluster,
)
from test_association import cc_oracle
from test_update import ConstantPdSensor


def verdict(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: association oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_bp_tvd_bound():
    """1000 random clusters (<=4 legacy, <=2 transfer, <=4 measurements, betas
    log-uniform over [1e-6, 1e2]): per-label TV distance of 20-iteration BP to
    the enumeration oracle <= 0.05 on >= 99% of instances.

    Expected to fail: the requirement exceeds what converged belief
    propagation delivers on this instance distribution. Measured across
    seeds: 54-61 of 1000 instances have some label above 0.05 (p99 of the
    per-instance worst TV is ~0.25), unchanged when the round cap
    `BP_ROUNDS` is raised from 20 to 2000, so this is fixed-point accuracy rather than a
    convergence artifact. The acyclic and runtime clauses are covered by
    the two companion tests and pass.
    """
    rng = np.random.default_rng(2024)
    instances = 1000
    bad = 0
    started = time.perf_counter()
    for _ in range(instances):
        cluster = random_cluster(rng)
        tv = max_label_tv(brute_force_marginals(cluster), bp_marginals(*cluster))
        if tv > 0.05:
            bad += 1
    elapsed = time.perf_counter() - started
    ok = bad <= instances // 100
    verdict("1 (BP vs oracle, TV<=0.05 on >=99%)", ok,
            f"{instances - bad}/{instances} within bound in {elapsed:.1f}s")
    assert ok


def random_acyclic_cluster(rng):
    """Random cluster whose nonzero-coupling graph is a forest: every
    measurement touches at most one legacy label, transfers are leaves."""
    n_legacy = int(rng.integers(1, 5))
    n_meas = int(rng.integers(0, 5))
    miss = 10.0 ** rng.uniform(-6, 2, n_legacy)
    det = np.zeros((n_legacy, n_meas))
    for j in range(n_meas):
        if rng.random() < 0.85:
            det[rng.integers(0, n_legacy), j] = 10.0 ** rng.uniform(-6, 2)
    new = 10.0 ** rng.uniform(-6, 2, n_meas)
    n_tr = int(rng.integers(0, min(2, n_meas) + 1)) if n_meas else 0
    transferred = np.zeros(n_meas, dtype=bool)
    if n_tr:
        transferred[rng.choice(n_meas, size=n_tr, replace=False)] = True
    return ClusterTables(miss, det, new, transferred)


def test_criterion_1_acyclic_exactness():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(1000):
        cluster = random_acyclic_cluster(rng)
        worst = max(worst, max_label_tv(brute_force_marginals(cluster),
                                        bp_marginals(*cluster)))
    ok = worst <= 1e-9
    verdict("1 (BP exact on acyclic clusters)", ok, f"worst TV {worst:.2e}")
    assert ok


def test_criterion_1_runtime():
    rng = np.random.default_rng(2026)
    started = time.perf_counter()
    for _ in range(1000):
        cluster = random_cluster(rng)
        brute_force_marginals(cluster)
        bp_marginals(*cluster)
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    verdict("1 (oracle comparison runtime)", ok, f"{elapsed:.1f}s for 1000 clusters")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: conservation suite
# ---------------------------------------------------------------------------


def random_intensity(rng, max_n=200):
    n = int(rng.integers(1, max_n))
    return PoissonPhd(ParticleSet(rng.normal(scale=100, size=(n, 4)),
                                  rng.random(n)))


def test_criterion_2_conservation():
    rng = np.random.default_rng(11)
    worst_pred = worst_upd = worst_pmf = worst_pdf = worst_res = 0.0

    for _ in range(500):
        phd = random_intensity(rng)
        ps = float(rng.uniform(0.5, 1.0))
        motion = MotionModel(sigma_u=float(rng.uniform(0, 1)), p_survival=ps)
        birth_n = int(rng.integers(1, 50))
        birth = PoissonPhd(ParticleSet(rng.normal(size=(birth_n, 4)),
                                       np.full(birth_n, rng.random() / birth_n)))
        out = predict_phd(phd, birth, motion, rng)
        expected = birth.mean + ps * phd.mean
        worst_pred = max(worst_pred, abs(out.mean - expected))

    for _ in range(500):
        n_rec = int(rng.integers(0, 4))
        recycled = []
        for i in range(n_rec):
            m = int(rng.integers(1, 30))
            pdf = ParticleSet(rng.normal(size=(m, 4)), np.full(m, 1.0 / m))
            recycled.append((float(rng.random()), pdf.weights, pdf.states))
        phd = random_intensity(rng, max_n=60)
        pd = rng.random(len(phd.particles))
        # unclaimed components: rows w pD f over the intensity particles, beta >= d
        k = int(rng.integers(0, 4))
        table = phd.particles.weights * pd * rng.random((k, len(phd.particles)))
        beta = table.sum(axis=1) + rng.random(k)
        out = update_phd(block_of(recycled), np.arange(n_rec), beta, cells_of(table), phd, pd,
                         256, rng)
        expected = (sum(r for r, _, _ in recycled) + float(np.sum(table.sum(axis=1) / beta))
                    + float(np.sum(phd.particles.weights * (1.0 - pd))))
        worst_upd = max(worst_upd, abs(out.mean - expected))

    for _ in range(500):
        cluster = random_cluster(rng)
        for marg in (brute_force_marginals(cluster), bp_marginals(*cluster)):
            worst_pmf = max(worst_pmf, np.abs(marg.legacy.sum(axis=1) - 1.0).max(initial=0.0),
                            -marg.claim.min(initial=0.0), marg.claim.max(initial=1.0) - 1.0)
        n = int(rng.integers(1, 40))
        track = BernoulliTrack(Label(1, 1), float(rng.uniform(0.1, 1.0)),
                               ParticleSet(rng.normal(size=(n, 4)), np.full(n, 1.0 / n)))
        sensor = StubSensor(rng.random(n), rng.random((1, n)) * 0.1)
        det = detection_hypotheses(track, [Measurement(1.0, 0.0)], sensor)[0]
        miss = miss_hypothesis(track, sensor)
        for pdf in (pdf_of(track.pdf.states, det), pdf_of(track.pdf.states, miss)):
            if len(pdf):
                worst_pdf = max(worst_pdf, abs(pdf.total_weight - 1.0))

    for _ in range(500):
        n = int(rng.integers(1, 100))
        pset = ParticleSet(rng.normal(size=(n, 4)), rng.random(n) * 10 + 1e-9)
        out = resample(pset, int(rng.integers(1, 500)), rng)
        worst_res = max(worst_res, abs(out.total_weight - pset.total_weight))

    ok = (worst_pred <= 1e-9 and worst_upd <= 1e-9 and worst_pmf <= 1e-9
          and worst_pdf <= 1e-9 and worst_res <= 1e-12)
    verdict("2 (conservation suite)", ok,
            f"pred {worst_pred:.1e}, upd {worst_upd:.1e}, pmf {worst_pmf:.1e}, "
            f"pdf {worst_pdf:.1e}, resample {worst_res:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: partitioning equals connected components
# ---------------------------------------------------------------------------


def test_criterion_3_partitioning():
    rng = np.random.default_rng(12)
    mismatches = 0
    for _ in range(1000):
        L = int(rng.integers(1, 9))
        M = int(rng.integers(0, 9))
        betas = rng.random((L, M))
        gamma = float(rng.uniform(0.2, 0.95))
        clusters, residual = partition_of(betas, gamma)
        got = {(frozenset(rows.tolist()), frozenset(cols.tolist())) for rows, cols in clusters}
        if got != cc_oracle(betas, gamma):
            mismatches += 1
        # disjointness + completeness on every instance
        all_meas = [j for _, cols in clusters for j in cols] + list(residual)
        assert sorted(all_meas) == list(range(M))
        all_rows = [i for rows, _ in clusters for i in rows]
        assert sorted(all_rows) == list(range(L))
    ok = mismatches == 0
    verdict("3 (partitioning vs components oracle)", ok,
            f"{1000 - mismatches}/1000 equal")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: closed-form micro-updates at 1e-12
# ---------------------------------------------------------------------------


def test_criterion_4_micro_updates():
    checks = []
    rng = np.random.default_rng(0)

    track = BernoulliTrack(Label(1, 1), 0.8,
                           ParticleSet(np.zeros((1, 4)), np.ones(1)))
    out = predict_track(track, MotionModel(sigma_u=0.0, p_survival=0.99), rng)
    checks.append(abs(out.existence - 0.792))

    stub = StubSensor([0.7], [[0.05]])
    det = detection_hypotheses(BernoulliTrack(Label(1, 1), 0.5,
                                              ParticleSet(np.zeros((1, 4)), np.ones(1))),
                               [Measurement(1.0, 0.0)], stub)[0]
    checks.append(abs(det.beta - 0.0175))

    miss = miss_hypothesis(BernoulliTrack(Label(1, 1), 0.5,
                                          ParticleSet(np.zeros((1, 4)), np.ones(1))),
                           StubSensor([0.7]))
    checks.append(abs(miss.beta - 0.65))
    checks.append(abs(miss.existence - 0.5 * 0.3 / 0.65))

    phd = PoissonPhd(ParticleSet(np.zeros((2, 4)), np.full(2, 0.0265)))
    sensor = StubSensor([1.0, 1.0], [[1.0, 1.0]], clutter_mean=0.053 * 300 * 2 * np.pi)
    beta, mass, _ = new_components(phd, np.ones(2), [Measurement(1.0, 0.0)], sensor,
                                   sensor.range_bearing(phd.particles.states))
    checks.append(abs(mass[0] / beta[0] - 0.5))

    def pdf_at(x, n=1):
        states = np.zeros((n, 4))
        states[:, 0] = x
        return ParticleSet(states, np.full(n, 1.0 / n))

    # miss and detection pdfs on one shared support (x1 = 1 and 9)
    support = np.zeros((2, 4))
    support[:, 0] = [1.0, 9.0]
    upd = update_legacy_track(Label(1, 1), {0: 0.5, 1: 0.5},
                              Hypothesis(0.6, 0.2, np.array([1.0, 0.0])),
                              {1: Hypothesis(0.3, 1.0, np.array([0.0, 1.0]))},
                              support, 64, np.random.default_rng(0))
    checks.append(abs(upd.existence - 0.6))

    pdf = pdf_at(2.0)
    tr = update_transferred_track(block_of([(0.8, pdf.weights, pdf.states)], birth_time=7), 0.5,
                                  64, np.random.default_rng(0))
    checks.append(abs(tr.existence - 0.4))

    state = FilterState((BernoulliTrack(Label(1, 1), 0.8, pdf_at(10.0)),),
                        PoissonPhd.empty(), 1)
    models = Models(MotionModel(sigma_u=0.0, p_survival=1.0),
                    ConstantPdSensor(pd_const=0.5, clutter_mean=2.0),
                    BirthModel(mean_births=0.0, particle_budget=16))
    out = lmbp_step(state, [], models, Thresholds(), np.random.default_rng(0),
                    settings=FilterSettings(track_particles=16, phd_particles=16))
    checks.append(abs(out.tracks[0].existence - 2.0 / 3.0))

    worst = max(checks)
    ok = worst <= 1e-12
    verdict("4 (closed-form micro-updates)", ok, f"worst error {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: single-object sanity scenario
# ---------------------------------------------------------------------------


def test_criterion_5_single_object_sanity():
    config = build_run_config({
        "scenario.object_count": "1",
        "scenario.appear_min": "1",
        "scenario.appear_max": "1",
        "scenario.disappear_after": "100",
        "scenario.total_steps": "100",
        "sensor.pd_max": "0.95",
        "sensor.pd_scale": "1e9",
        "clutter.mean_count": "5",
        "run.seed": "205",
    })
    runs = 50
    started = time.perf_counter()
    seqs = np.random.SeedSequence(config.seed).spawn(runs)
    detected_by_5 = 0
    all_ospa = []
    for r in range(runs):
        _, est_log, ospa_vals, _, _ = execute_run(config, seqs[r])
        if any(len(est) > 0 for _, est in est_log[:5]):
            detected_by_5 += 1
        all_ospa.append(ospa_vals)
    elapsed = time.perf_counter() - started
    curve = mospa_curve(all_ospa)
    steady = float(curve[19:].mean())
    ok = detected_by_5 >= 0.95 * runs and steady < 5.0 and elapsed < 60.0
    verdict("5 (single-object sanity)", ok,
            f"detected by k=5 in {detected_by_5}/{runs}, steady MOSPA {steady:.2f}, "
            f"{elapsed:.0f}s")
    assert detected_by_5 >= 0.95 * runs
    assert steady < 5.0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 6: desk-scale dispersed scenario
# ---------------------------------------------------------------------------


def test_criterion_6_desk_scale():
    config = build_run_config({
        "scenario.object_count": "3",
        "scenario.total_steps": "100",
        "clutter.mean_count": "20",
        "run.seed": "206",
    })
    runs = 50
    seqs = np.random.SeedSequence(config.seed).spawn(runs)
    models = config.models
    all_ospa = []
    step_seconds = []
    for r in range(runs):
        truth_seq, filter_seq = seqs[r].spawn(2)
        rng_truth = np.random.default_rng(truth_seq)
        rng_filter = np.random.default_rng(filter_seq)
        truth = generate_truth(config.scenario, rng_truth)
        frames = generate_frames(truth, config.scenario.sensor, rng_truth)
        state = initial_state(config, rng_filter)
        prev = ()
        seen_labels: set[Label] = set()
        ospa_vals = []
        for k in range(1, config.scenario.total_steps + 1):
            before = set(state.block.labels)
            t0 = time.perf_counter()
            state = lmbp_step(state, frames[k - 1], models, config.thresholds,
                              rng_filter, prev_frame=prev, settings=config.settings)
            step_seconds.append(time.perf_counter() - t0)
            prev = frames[k - 1]
            labels = state.block.labels
            # label continuity: kept labels persist, fresh ones are never reused
            assert len(set(labels)) == len(labels)
            for lab in labels:
                if lab.birth_time == k:
                    assert lab not in seen_labels
                else:
                    assert lab in before
            seen_labels |= set(labels)
            estimates = detect_and_estimate(state, config.thresholds.gamma_d)
            positions = np.array([e.state[:2] for e in estimates]).reshape(-1, 2)
            ospa_vals.append(ospa(truth.alive_positions(k), positions, config.ospa))
        all_ospa.append(ospa_vals)
    curve = mospa_curve(all_ospa)
    steady = float(curve[19:].mean())
    mean_step = float(np.mean(step_seconds))
    ok = steady < 10.0 and mean_step < 1.0
    verdict("6 (desk-scale benchmark)", ok,
            f"steady MOSPA {steady:.2f} < 10, mean step {mean_step * 1e3:.1f} ms")
    assert steady < 10.0
    assert mean_step < 1.0


# ---------------------------------------------------------------------------
# Criterion 7: OSPA unit suite
# ---------------------------------------------------------------------------


def test_criterion_7_ospa_suite():
    params = OspaParams(cutoff=20.0, order=2.0)
    exact_ok = (ospa([(1.0, 1.0)], [(1.0, 1.0)], params) == 0.0
                and ospa([(0.0, 0.0)], [], params) == 20.0
                and abs(ospa([(0.0, 0.0)], [(3.0, 4.0)], params) - 5.0) <= 1e-12)
    rng = np.random.default_rng(13)
    sym_ok = True
    for _ in range(1000):
        n, m = rng.integers(0, 7, 2)
        x = rng.uniform(-200, 200, (n, 2))
        y = rng.uniform(-200, 200, (m, 2))
        d = ospa(x, y, params)
        if abs(d - ospa(y, x, params)) > 1e-12 or not 0.0 <= d <= 20.0 + 1e-12:
            sym_ok = False
    ok = exact_ok and sym_ok
    verdict("7 (OSPA unit suite)", ok, "exact values, symmetry, cutoff bound")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: threshold semantics
# ---------------------------------------------------------------------------


def test_criterion_8_threshold_semantics():
    def pdf_at(x, n=4):
        states = np.zeros((n, 4))
        states[:, 0] = x
        return ParticleSet(states, np.full(n, 1.0 / n))

    gamma = 1e-2
    # one new component of existence gamma: beta 1, mass gamma over 4 particles
    table = np.full((1, 4), gamma / 4)
    columns, transferred, fresh = select_transfers(np.ones(1), table.sum(axis=1),
                                                   cells_of(table), np.zeros((4, 4)), gamma,
                                                   time=3)
    tr_inclusive = (fresh.labels == (Label(3, 1),) and columns.tolist() == [0]
                    and transferred.tolist() == [True])

    # a legacy track of r = gamma is kept
    kept, recycled = split_by_retention(np.array([gamma]), np.array([0]), gamma)
    leg_inclusive = kept.tolist() == [0] and recycled.size == 0

    state = FilterState((BernoulliTrack(Label(1, 1), 0.5, pdf_at(0.0)),),
                        PoissonPhd.empty(), 3)
    d_exclusive = detect_and_estimate(state, 0.5) == []
    state2 = FilterState((BernoulliTrack(Label(1, 1), np.nextafter(0.5, 1.0),
                                         pdf_at(0.0)),), PoissonPhd.empty(), 3)
    d_above = len(detect_and_estimate(state2, 0.5)) == 1

    # monotonicity of the kept-track count in gamma_leg, fixed random stream
    rng_master = np.random.default_rng(14)
    models = Models(MotionModel(sigma_u=0.0, p_survival=0.95),
                    ConstantPdSensor(pd_const=0.6, clutter_mean=2.0),
                    BirthModel(mean_births=0.05, particle_budget=32))
    settings = FilterSettings(track_particles=32, phd_particles=64)
    monotone = True
    for _ in range(100):
        tracks = []
        for i in range(int(rng_master.integers(1, 5))):
            tracks.append(BernoulliTrack(
                Label(1, i + 1), float(rng_master.uniform(0.01, 1.0)),
                pdf_at(float(rng_master.uniform(0, 200)), n=8)))
        state = FilterState(tuple(tracks), PoissonPhd(ParticleSet(
            pdf_at(100.0, n=16).states, np.full(16, 0.2 / 16))), 1)
        frame = [Measurement(float(rng_master.uniform(0, 300)),
                             float(rng_master.uniform(-np.pi, np.pi)))
                 for _ in range(int(rng_master.integers(0, 4)))]
        seed = int(rng_master.integers(0, 2**32))
        counts = []
        for gamma_leg in (1e-3, 1e-2, 1e-1, 0.5, 0.9):
            out = lmbp_step(state, frame, models, Thresholds(gamma_leg=gamma_leg),
                            np.random.default_rng(seed), settings=settings)
            counts.append(len(out.tracks))
        if counts != sorted(counts, reverse=True):
            monotone = False
    ok = tr_inclusive and leg_inclusive and d_exclusive and d_above and monotone
    verdict("8 (threshold semantics)", ok,
            f"tr inclusive {tr_inclusive}, leg inclusive {leg_inclusive}, "
            f"d exclusive {d_exclusive and d_above}, monotone {monotone}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    base = {
        "scenario.object_count": "2",
        "scenario.appear_min": "1",
        "scenario.appear_max": "5",
        "scenario.disappear_after": "20",
        "scenario.total_steps": "20",
        "clutter.mean_count": "5",
        "birth.particles": "256",
        "filter.track_particles": "128",
        "filter.phd_particles": "256",
        "run.mc_runs": "2",
        "run.seed": "99",
    }
    run_experiment(build_run_config({**base, "run.out_dir": str(tmp_path / "a")}),
                   quiet=True)
    run_experiment(build_run_config({**base, "run.out_dir": str(tmp_path / "b")}),
                   quiet=True)
    names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    identical = all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
                    for n in names)
    ok = identical and len(names) >= 5
    verdict("9 (byte-identical determinism)", ok, f"{len(names)} CSVs compared")
    assert ok
