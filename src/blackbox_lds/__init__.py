"""Black-box control of unknown linear time-invariant systems under
adversarial disturbances and adversarial convex costs.

Three-phase pipeline (robust identification, SDP-based stabilizing-controller
recovery, nonstochastic online control) plus randomized and deterministic
lower-bound adversaries that attack arbitrary controllers.
"""

from .lds import (
    ClippedGaussianDisturbance,
    CostFunction,
    DisturbanceSource,
    LinearSystem,
    PriorBounds,
    ReplayDisturbance,
    RunLog,
    SignAdversarialDisturbance,
    SinusoidalDisturbance,
    StabilityCertificate,
    ZeroDisturbance,
    certify_strong_stability,
    controllability_matrix,
    min_energy_controls,
    step,
    strong_controllability_check,
)
from .plant import BlackBoxPlant, simulate
from .sysid import EstimateBundle, ProbePlan, adv_sys_id, epsilon_zero, probe_plan
from .stabilize import (
    SdpBlockMatrix,
    controller_recovery,
    decay,
    extract_controller,
    project_affine,
    project_psd_trace,
    sdp_feasibility,
)
from .nsc import best_dac_in_hindsight, gpc_run
from .pipeline import PhaseConstants, PipelineReport, derive_constants, run_pipeline
from .lowerbound import (
    AdversaryTranscript,
    SubspaceTracker,
    deterministic_adversary,
    randomized_lb_trial,
    sample_gaussian_system,
)

# the reviewed public surface, by phase; submodules stay importable by name
# (blackbox_lds.stabilize) but are not star-exported
__all__ = [
    # systems, disturbances, costs and certificates
    "ClippedGaussianDisturbance", "CostFunction", "DisturbanceSource",
    "LinearSystem", "PriorBounds", "ReplayDisturbance", "RunLog",
    "SignAdversarialDisturbance", "SinusoidalDisturbance",
    "StabilityCertificate", "ZeroDisturbance", "certify_strong_stability",
    "controllability_matrix", "min_energy_controls", "step",
    "strong_controllability_check",
    "BlackBoxPlant", "simulate",
    # phase 1: identification
    "EstimateBundle", "ProbePlan", "adv_sys_id", "epsilon_zero", "probe_plan",
    # phase 2: controller recovery and decay
    "SdpBlockMatrix", "controller_recovery", "decay", "extract_controller",
    "project_affine", "project_psd_trace", "sdp_feasibility",
    # phase 3: online control and its comparator
    "best_dac_in_hindsight", "gpc_run",
    "PhaseConstants", "PipelineReport", "derive_constants", "run_pipeline",
    # lower bounds
    "AdversaryTranscript", "SubspaceTracker", "deterministic_adversary",
    "randomized_lb_trial", "sample_gaussian_system",
]
