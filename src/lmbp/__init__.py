"""Particle-based labeled multi-Bernoulli / Poisson multi-object tracking filter."""

from .association import (
    Cluster,
    Hypothesis,
    MarginalAssociation,
    TrackEvidence,
    batch_bp_marginals,
    bp_marginals,
    detection_hypotheses,
    enumerate_admissible,
    exact_marginals,
    miss_hypothesis,
    new_components,
    partition,
    track_evidence,
)
from .config import ConfigError, RunConfig, build_run_config, load_run_config, parse_config_text
from .estimation import TrackEstimate, detect_and_estimate
from .metrics import OspaParams, mospa_curve, ospa
from .models import BirthModel, ClutterModel, Models, MotionModel, SensorModel
from .prediction import predict_phd, predict_track, predict_tracks
from .rfs import (
    BernoulliTrack,
    FilterState,
    Label,
    Measurement,
    ParticleSet,
    PoissonPhd,
    TrackBlock,
    read_snapshot,
    resample,
    resample_rows,
    weighted_mean,
    write_snapshot,
)
from .simulate import GroundTruth, ScenarioConfig, generate_frame, generate_truth
from .update import (
    FilterSettings,
    Pending,
    Thresholds,
    lmbp_step,
    select_transfers,
    split_by_retention,
    update_legacy_track,
    update_phd,
    update_transferred_track,
)

__version__ = "0.1.0"
