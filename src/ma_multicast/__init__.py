"""Max-min rate optimization for a two-user movable-antenna multicast downlink.

The decoupled solver places the antennas first (ascent on the channel
correlation over the spacing-constrained aperture) and then mixes the two
per-user matched beams in closed form.  Baselines, a brute-force joint grid
oracle, and an experiment CLI live in their own modules.
"""

from .baselines import (
    InfeasibleSchemeError,
    Scheme,
    SchemeResult,
    ao_scheme,
    aps_search,
    closed_form_beamformer,
    fpa_scheme,
    ma_mrt,
    proposed_scheme,
    run_scheme,
)
from .beamformer import (
    Beamformer,
    CaseLabel,
    ThetaCoefficients,
    build_beamformer,
    min_snr_from_projections,
    optimize_mixing,
    projection_coefficients,
    theta_at,
    theta_coefficients,
)
from .expcli import ConfigError, ExperimentConfig, load_config, main, run_single, run_validate
from .oracle import (
    GridSpec,
    JointOptimum,
    brute_force_joint,
    joint_vs_decoupled,
    resolution_bound,
    snap_mixing_to_grid,
    snap_positions_to_grid,
)
from .posopt import (
    ScaTrace,
    correlation,
    multi_start_sca,
    project_polytope,
    random_positions,
    sca_optimize,
    uniform_positions,
)
from .sysmodel import (
    SnrPair,
    SystemConfig,
    beam_gain,
    beam_pattern,
    dbm_to_watt,
    snr_pair,
    steering_vector,
    validate_positions,
)

__version__ = "0.1.0"

__all__ = [
    "Beamformer",
    "CaseLabel",
    "ConfigError",
    "ExperimentConfig",
    "GridSpec",
    "InfeasibleSchemeError",
    "JointOptimum",
    "ScaTrace",
    "Scheme",
    "SchemeResult",
    "SnrPair",
    "SystemConfig",
    "ThetaCoefficients",
    "__version__",
    "ao_scheme",
    "aps_search",
    "beam_gain",
    "beam_pattern",
    "brute_force_joint",
    "build_beamformer",
    "closed_form_beamformer",
    "correlation",
    "dbm_to_watt",
    "fpa_scheme",
    "joint_vs_decoupled",
    "load_config",
    "ma_mrt",
    "main",
    "min_snr_from_projections",
    "multi_start_sca",
    "optimize_mixing",
    "project_polytope",
    "projection_coefficients",
    "proposed_scheme",
    "random_positions",
    "resolution_bound",
    "run_scheme",
    "run_single",
    "run_validate",
    "sca_optimize",
    "snap_mixing_to_grid",
    "snap_positions_to_grid",
    "snr_pair",
    "steering_vector",
    "theta_at",
    "theta_coefficients",
    "uniform_positions",
    "validate_positions",
]
