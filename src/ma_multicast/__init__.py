"""Max-min rate optimization for a two-user movable-antenna multicast downlink.

The decoupled solver places the antennas first (ascent on the channel
correlation over the spacing-constrained aperture) and then mixes the two
per-user matched beams in closed form.  Baselines, a brute-force joint grid
oracle, the `validate` self-check suite and an experiment CLI live in their
own modules.

`import ma_multicast` loads none of them.  Each export below resolves on
first access (PEP 562) by importing its home module, so a command loads only
the modules it runs: `optimize` and the sweeps never load the oracle or the
validation suite.  The config types and `load_config` live in a module that
uses the standard library only, so loading or checking a config loads no
numpy.  Every export is the very object its home module defines.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "baselines": (
        "InfeasibleSchemeError",
        "SchemeResult",
        "ao_scheme",
        "aps_search",
        "closed_form_beamformer",
        "fpa_scheme",
        "ma_mrt",
        "proposed_scheme",
        "run_scheme",
    ),
    "beamformer": (
        "Beamformer",
        "CaseLabel",
        "ThetaCoefficients",
        "build_beamformer",
        "min_snr_from_projections",
        "optimize_mixing",
        "projection_coefficients",
        "theta_at",
        "theta_coefficients",
    ),
    "config": ("ConfigError", "ExperimentConfig", "Scheme", "SystemConfig", "dbm_to_watt", "load_config"),
    "expcli": ("main", "run_single"),
    "oracle": (
        "GridSpec",
        "JointOptimum",
        "brute_force_joint",
        "joint_vs_decoupled",
        "resolution_bound",
        "snap_mixing_to_grid",
        "snap_positions_to_grid",
    ),
    "posopt": (
        "ScaTrace",
        "correlation",
        "multi_start_sca",
        "project_polytope",
        "random_positions",
        "sca_optimize",
        "uniform_positions",
    ),
    "sysmodel": (
        "SnrPair",
        "beam_pattern",
        "snr_pair",
        "steering_vector",
        "validate_positions",
    ),
    "validation": ("run_validate",),
}
# export name -> home module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
