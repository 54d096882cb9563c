"""Experiment harness: JSON config in, JSON/CSV artifacts out, CLI front end.

Every run is deterministic for a fixed config; only validate draws random
numbers, from its fixed seed.  Sweep points are evaluated one after another,
in sweep order.
"""

import argparse
import json
import logging
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .baselines import REFERENCE_SPACING, InfeasibleSchemeError, Scheme, SchemeResult, run_scheme
from .beamformer import (
    _clamp_mixing,
    _projection_gains,
    _theta_coefficients,
    _theta_from_gains,
    optimize_mixing,
    theta_at,
    theta_coefficients,
)
from .oracle import GridSpec, _best_t_rows, joint_vs_decoupled
from .posopt import _correlation_rows, correlation, random_positions
from .sysmodel import (
    FEASIBILITY_TOL, SystemConfig, beam_pattern, exceeds_span, validate_position_rows
)

log = logging.getLogger(__name__)

VALIDATION_SEED = 20240517


class ConfigError(Exception):
    """Configuration document rejected; the message carries the field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    schemes: tuple
    aps_grid_step: float = REFERENCE_SPACING
    sweep: dict | None = None
    output_dir: str = "."


def default_experiment() -> ExperimentConfig:
    return ExperimentConfig(system=SystemConfig(), schemes=tuple(Scheme))


# ---------------------------------------------------------------------------
# Config ingestion


def _expect_number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    if positive and value <= 0.0:
        raise ConfigError(f"{path}: must be positive")
    return value


def _expect_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return value


def _expect_pair(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected a pair of numbers")
    return tuple(_expect_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _system_from_dict(doc, path="system") -> SystemConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {f.name for f in fields(SystemConfig)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")
    kwargs = {}
    if "n_antennas" in doc:
        kwargs["n_antennas"] = _expect_int(doc["n_antennas"], f"{path}.n_antennas", minimum=2)
    for key in ("span_l", "d_min", "wavelength", "tau"):
        if key in doc:
            kwargs[key] = _expect_number(doc[key], f"{path}.{key}", positive=True)
    for key in ("ps_dbm", "sigma2_dbm"):
        if key in doc:
            kwargs[key] = _expect_number(doc[key], f"{path}.{key}")
    if "d_su" in doc:
        kwargs["d_su"] = _expect_pair(doc["d_su"], f"{path}.d_su")
    if "theta_su" in doc:
        kwargs["theta_su"] = _expect_pair(doc["theta_su"], f"{path}.theta_su")
    try:
        return SystemConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _sweep_from_dict(doc, path="sweep"):
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = doc.get("kind")
    if kind == "over_n":
        keys = {"kind", "n_min", "n_max"}
        out = {
            "kind": kind,
            "n_min": _expect_int(doc.get("n_min"), f"{path}.n_min", minimum=2),
            "n_max": _expect_int(doc.get("n_max"), f"{path}.n_max", minimum=2),
        }
    elif kind == "over_l":
        keys = {"kind", "l_min", "l_max", "l_step"}
        out = {
            "kind": kind,
            "l_min": _expect_number(doc.get("l_min"), f"{path}.l_min", positive=True),
            "l_max": _expect_number(doc.get("l_max"), f"{path}.l_max", positive=True),
            "l_step": _expect_number(doc.get("l_step"), f"{path}.l_step", positive=True),
        }
    elif kind == "beam_pattern":
        keys = {"kind", "angle_count"}
        out = {
            "kind": kind,
            "angle_count": _expect_int(doc.get("angle_count"), f"{path}.angle_count", minimum=2),
        }
    else:
        raise ConfigError(f"{path}.kind: expected one of over_n, over_l, beam_pattern")
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown field")
    return out


def config_from_dict(doc) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    known = {"system", "schemes", "seed", "n_starts", "aps_grid_step", "sweep", "output_dir"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    system = _system_from_dict(doc.get("system", {}))
    raw_schemes = doc.get("schemes", [s.value for s in Scheme])
    if not isinstance(raw_schemes, list) or not raw_schemes:
        raise ConfigError("schemes: expected a non-empty list")
    schemes = []
    for i, name in enumerate(raw_schemes):
        try:
            scheme = Scheme(name)
        except ValueError:
            valid = ", ".join(s.value for s in Scheme)
            raise ConfigError(f"schemes[{i}]: unknown scheme {name!r} (valid: {valid})")
        if scheme in schemes:
            raise ConfigError(f"schemes[{i}]: duplicate scheme {name!r}")
        schemes.append(scheme)
    # retired keys that steered AO's random restarts: still checked, then unused
    _expect_int(doc.get("seed", 1), "seed", minimum=0)
    _expect_int(doc.get("n_starts", 10), "n_starts", minimum=1)
    aps_grid_step = _expect_number(doc.get("aps_grid_step", REFERENCE_SPACING), "aps_grid_step", positive=True)
    sweep = _sweep_from_dict(doc.get("sweep"))
    output_dir = doc.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")
    return ExperimentConfig(
        system=system,
        schemes=tuple(schemes),
        aps_grid_step=aps_grid_step,
        sweep=sweep,
        output_dir=output_dir,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Runs


def _db(value: float):
    return 10.0 * math.log10(value) if value > 0.0 else None


def _result_dict(res: SchemeResult, cfg: SystemConfig) -> dict:
    return {
        "x": [float(v) for v in res.x],
        "w_re": [float(v) for v in res.w.w.real],
        "w_im": [float(v) for v in res.w.w.imag],
        "t": float(res.w.t),
        "case": res.w.case_label.value if res.w.case_label is not None else None,
        "gamma_u1": float(res.snr.gamma_u1),
        "gamma_u2": float(res.snr.gamma_u2),
        "gamma_u1_db": _db(res.snr.gamma_u1),
        "gamma_u2_db": _db(res.snr.gamma_u2),
        "min_rate_bps_hz": float(res.snr.min_rate),
        "correlation": correlation(res.x, cfg),
        "iterations": res.trace.iterations if res.trace is not None else None,
    }


def _configured_scheme(exp: ExperimentConfig, scheme: Scheme) -> SchemeResult:
    """run_scheme on the configured system; a scheme that cannot fit it is a config error."""
    try:
        return run_scheme(scheme, exp.system, exp.aps_grid_step)
    except InfeasibleSchemeError as exc:
        raise ConfigError(f"schemes: {scheme.value}: {exc}") from exc


def run_single(exp: ExperimentConfig) -> dict:
    report = {
        "config": {
            "system": asdict(exp.system),
            "schemes": [s.value for s in exp.schemes],
            "aps_grid_step": exp.aps_grid_step,
        },
        "schemes": {},
    }
    for scheme in exp.schemes:
        res = _configured_scheme(exp, scheme)
        report["schemes"][scheme.value] = _result_dict(res, exp.system)
    return report


def run_beampattern(exp: ExperimentConfig, angle_count: int = 361):
    if angle_count < 2:
        raise ConfigError("angle_count must be >= 2")
    thetas = np.linspace(0.0, math.pi, angle_count)
    rows = []
    for scheme in exp.schemes:
        res = _configured_scheme(exp, scheme)
        gains = beam_pattern(res.w.w, res.x, thetas, exp.system.wavelength)
        rows.extend(
            (float(th), scheme.value, float(g)) for th, g in zip(thetas, gains)
        )
    return rows


def _sweep_point(exp: ExperimentConfig, cfg: SystemConfig, label: str):
    """Rates of every scheme at one sweep point; infeasible schemes are skipped."""
    rates = []
    skips = []
    for scheme in exp.schemes:
        try:
            res = run_scheme(scheme, cfg, exp.aps_grid_step)
        except InfeasibleSchemeError as exc:
            skips.append(f"{label} scheme={scheme.value}: {exc}")
            continue
        rates.append((scheme.value, res.snr.min_rate))
    return rates, skips


def _run_sweep(exp: ExperimentConfig, key: str, field: str, values, infeasible: str):
    """Rows (value, scheme, rate) over values of one config field, and the skips.

    A value whose geometry cannot hold n antennas d_min apart is skipped whole;
    a value that makes the config invalid otherwise (an SNR that overflows at
    a larger n) is a config error.
    """
    rows = []
    skips = []
    for value in values:
        label = f"{key}={value:g}"
        geometry = {"n_antennas": exp.system.n_antennas, "span_l": exp.system.span_l, field: value}
        if exceeds_span(geometry["n_antennas"], exp.system.d_min, geometry["span_l"]):
            rates, point_skips = [], [f"{label}: {infeasible}"]
        else:
            try:
                cfg = replace(exp.system, **{field: value})
            except ValueError as exc:
                raise ConfigError(f"{label}: {exc}") from exc
            rates, point_skips = _sweep_point(exp, cfg, label)
        for message in point_skips:
            log.warning("sweep-%s skip: %s", key, message)
            skips.append(message)
        rows.extend((value, scheme, rate) for scheme, rate in rates)
    return rows, skips


def run_sweep_n(exp: ExperimentConfig, n_min: int, n_max: int):
    if n_min < 2 or n_max < n_min:
        raise ConfigError("need 2 <= n_min <= n_max")
    return _run_sweep(
        exp, "n", "n_antennas", range(n_min, n_max + 1), "(n - 1) * d_min exceeds span_l"
    )


def run_sweep_l(exp: ExperimentConfig, l_min: float, l_max: float, l_step: float):
    if not (0.0 < l_min <= l_max < math.inf and 0.0 < l_step < math.inf):
        raise ConfigError("need finite 0 < l_min <= l_max and l_step > 0")
    count = int(math.floor((l_max - l_min) / l_step + FEASIBILITY_TOL)) + 1
    values = (l_min + k * l_step for k in range(count))
    return _run_sweep(exp, "l", "span_l", values, "smaller than (n - 1) * d_min")


# ---------------------------------------------------------------------------
# Output formatting


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _open_output(path):
    """Open an artifact for writing; an unwritable path is a user input error."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, rows):
    """CSV with 12-significant-digit numbers, '.' decimal separator, LF endings."""
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")


def write_json(path, document):
    with _open_output(path) as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Validation suite


def _random_validation_config(rng, n=None, span=None) -> SystemConfig:
    """A config drawn from rng, a numpy Generator or _pcg64.PCG64 (they draw alike)."""
    n = int(n if n is not None else rng.integers(2, 9))
    while True:
        th1, th2 = rng.uniform(0.0, math.pi, 2)
        if abs(math.sin(th2) - math.sin(th1)) >= 0.05:
            break
    d1, d2 = np.exp(rng.uniform(math.log(20.0), math.log(500.0), 2))
    span_l = span if span is not None else (n - 1) * 0.5 + rng.uniform(0.5, 4.0)
    return SystemConfig(
        n_antennas=n,
        span_l=float(span_l),
        d_su=(float(d1), float(d2)),
        theta_su=(float(th1), float(th2)),
    )


def _sampled_check(rng, samples: int, name: str, tol: float, rel_diffs, draw_t=False) -> dict:
    """Worst of rel_diffs over samples random configs, each at random positions.

    Each sample draws its config, positions and, with draw_t, a mixing t, in
    that order.  rel_diffs(cfgs, x, t) then scores each group of equal n: its
    configs, positions as one checked (B, n) array and t (or None), one value
    per row.
    """
    groups = {}
    for _ in range(samples):
        cfg = _random_validation_config(rng)
        x = random_positions(cfg, rng)
        t = rng.uniform() if draw_t else None
        groups.setdefault(cfg.n_antennas, []).append((cfg, x, t))
    peaks = [0.0]
    for draws in groups.values():
        cfgs, x, t = zip(*draws)
        x = np.array(x)
        spans, d_mins = np.array([[c.span_l, c.d_min] for c in cfgs]).T[:, :, None]
        validate_position_rows(x, spans, d_mins)
        peaks.append(np.max(rel_diffs(cfgs, x, np.array(t) if draw_t else None)))
    # np.max, unlike Python's max, lets a NaN through, so the check fails on it
    worst = float(np.max(peaks))
    return {
        "name": name,
        "samples": samples,
        "worst_rel_diff": worst,
        "passed": bool(worst <= tol),
    }


def _path_equivalence_diffs(cfgs, x, t) -> np.ndarray:
    # the correlation route (va) and the projection route (vb), kept apart
    t = _clamp_mixing(t)
    scales = _row_scales(cfgs)
    f = _correlation_rows(x, np.array([[c.kappa] for c in cfgs]))
    va = theta_at(_theta_coefficients(f, x.shape[1], *scales), t)
    vb = _theta_from_gains(*_projection_gains(x, _row_kappas(cfgs)), t, *scales)
    return _rel_diffs(va, vb)


def _rel_diffs(va, vb) -> np.ndarray:
    return np.abs(va - vb) / np.maximum(np.maximum(np.abs(va), np.abs(vb)), 1e-300)


def _projection_identity_diffs(cfgs, x, t) -> np.ndarray:
    a, b, c = _projection_gains(x, _row_kappas(cfgs))
    n = x.shape[1]
    return np.maximum(np.abs(a - math.sqrt(n)) / math.sqrt(n), np.abs(b * b + c * c - n) / n)


def _row_kappas(cfgs) -> np.ndarray:
    """Both users' phase rates per config as a (2, B, 1) array: one column per user."""
    return np.array([c.kappas for c in cfgs]).T[:, :, None]


def _row_scales(cfgs) -> np.ndarray:
    """Both users' SNR scales per config as a (2, B) array: one row per user."""
    return np.array([c.snr_scales for c in cfgs]).T


def _mixing_rule_diffs(cfgs, x, t) -> np.ndarray:
    # the closed form, one row at a time, against the grid oracle on all rows at once
    theta_closed = []
    for cfg, row in zip(cfgs, x):
        coeffs = theta_coefficients(correlation(row, cfg), cfg)
        t_star, _label = optimize_mixing(coeffs, cfg.n_antennas)
        theta_closed.append(float(theta_at(coeffs, t_star)))
    gains = _projection_gains(x, _row_kappas(cfgs))
    _t_ref, theta_ref = _best_t_rows(*gains, _row_scales(cfgs), t_step=1e-5)
    return _rel_diffs(np.array(theta_closed), theta_ref)


def _check_separation(rng, pairs_per_n: int, grid: GridSpec) -> dict:
    details = []
    passed = True
    for n in (2, 3):
        for _ in range(pairs_per_n):
            cfg = _random_validation_config(rng, n=n, span=2.0)
            outcome = joint_vs_decoupled(cfg, grid)
            outcome["n_antennas"] = n
            outcome["theta_su"] = list(cfg.theta_su)
            details.append(outcome)
            passed = passed and outcome["passed"]
    return {
        "name": "separation_certificate",
        "grid": {"position_step": grid.position_step, "t_step": grid.t_step},
        "runs": details,
        "passed": bool(passed),
    }


def run_validate(quick: bool = False) -> tuple:
    """Deterministic self-check suite; returns (report, all_passed).

    Its draws are numpy.random.default_rng(VALIDATION_SEED)'s, bit for bit,
    from a stream that leaves numpy.random unloaded.
    """
    # imported here, so the commands that draw nothing do not compile it
    from ._pcg64 import PCG64

    rng = PCG64(VALIDATION_SEED)
    samples = 40 if quick else 200
    checks = [
        _sampled_check(rng, samples, "min_snr_path_equivalence", 1e-9, _path_equivalence_diffs, True),
        _sampled_check(rng, samples, "projection_identities", 1e-9, _projection_identity_diffs),
        _sampled_check(rng, 10 if quick else 40, "closed_form_mixing_vs_grid", 1e-6, _mixing_rule_diffs),
        _check_separation(
            rng,
            pairs_per_n=2 if quick else 6,
            grid=GridSpec(0.1, 1e-3) if quick else GridSpec(0.05, 1e-4),
        ),
    ]
    passed = all(c["passed"] for c in checks)
    return {"quick": quick, "checks": checks, "passed": passed}, passed


# ---------------------------------------------------------------------------
# CLI


OUT_HELP = "output {} path; a relative path goes under the config's output_dir"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ma-multicast",
        description="Max-min rate experiments for a two-user movable-antenna multicast downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run every configured scheme once")
    p_opt.add_argument("--config", help="JSON experiment configuration")
    p_opt.add_argument("--out", default="result.json", help=OUT_HELP.format("JSON"))

    p_beam = sub.add_parser("beampattern", help="array gain over angles for each scheme")
    p_beam.add_argument("--config", help="JSON experiment configuration")
    p_beam.add_argument("--points", type=int, default=None, help="number of angle samples")
    p_beam.add_argument("--out", default="beampattern.csv", help=OUT_HELP.format("CSV"))

    p_n = sub.add_parser("sweep-n", help="rates versus the number of antennas")
    p_n.add_argument("--config", help="JSON experiment configuration")
    p_n.add_argument("--n-min", type=int, default=None)
    p_n.add_argument("--n-max", type=int, default=None)
    p_n.add_argument("--out", default="sweep_n.csv", help=OUT_HELP.format("CSV"))

    p_l = sub.add_parser("sweep-l", help="rates versus the aperture span")
    p_l.add_argument("--config", help="JSON experiment configuration")
    p_l.add_argument("--l-min", type=float, default=None)
    p_l.add_argument("--l-max", type=float, default=None)
    p_l.add_argument("--l-step", type=float, default=None)
    p_l.add_argument("--out", default="sweep_l.csv", help=OUT_HELP.format("CSV"))

    p_val = sub.add_parser("validate", help="run the oracle-backed self checks")
    p_val.add_argument("--quick", action="store_true", help="reduced sample counts")
    p_val.add_argument("--out", default=None, help="optional JSON report path")
    return parser


def _sweep_param(args_value, sweep, kind, key, label):
    if args_value is not None:
        return args_value
    if sweep and sweep.get("kind") == kind and key in sweep:
        return sweep[key]
    raise ConfigError(f"{label} is required (flag or sweep section of the config)")


def _artifact_path(exp: ExperimentConfig, out):
    """--out resolved against the config's output_dir; "." leaves it as given.

    validate reads no config, so its optional --out always stays as given.
    """
    return out if exp.output_dir == "." else os.path.join(exp.output_dir, out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        exp = load_config(args.config) if getattr(args, "config", None) else default_experiment()
        out = _artifact_path(exp, args.out)
        if args.command == "optimize":
            write_json(out, run_single(exp))
            print(f"wrote {out}")
        elif args.command == "beampattern":
            points = args.points
            if points is None:
                sweep = exp.sweep or {}
                points = sweep.get("angle_count", 361) if sweep.get("kind") == "beam_pattern" else 361
            rows = run_beampattern(exp, points)
            write_csv(out, ["theta_rad", "scheme", "gain"], rows)
            print(f"wrote {out} ({len(rows)} rows)")
        elif args.command == "sweep-n":
            n_min = _sweep_param(args.n_min, exp.sweep, "over_n", "n_min", "--n-min")
            n_max = _sweep_param(args.n_max, exp.sweep, "over_n", "n_max", "--n-max")
            rows, skips = run_sweep_n(exp, n_min, n_max)
            write_csv(out, ["n", "scheme", "min_rate_bps_hz"], rows)
            print(f"wrote {out} ({len(rows)} rows, {len(skips)} skips)")
        elif args.command == "sweep-l":
            l_min = _sweep_param(args.l_min, exp.sweep, "over_l", "l_min", "--l-min")
            l_max = _sweep_param(args.l_max, exp.sweep, "over_l", "l_max", "--l-max")
            l_step = _sweep_param(args.l_step, exp.sweep, "over_l", "l_step", "--l-step")
            rows, skips = run_sweep_l(exp, l_min, l_max, l_step)
            write_csv(out, ["l", "scheme", "min_rate_bps_hz"], rows)
            print(f"wrote {out} ({len(rows)} rows, {len(skips)} skips)")
        elif args.command == "validate":
            report, passed = run_validate(quick=args.quick)
            for check in report["checks"]:
                status = "PASS" if check["passed"] else "FAIL"
                print(f"[{status}] {check['name']}")
            if out:
                write_json(out, report)
                print(f"wrote {out}")
            if not passed:
                return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3
    return 0


def cli_entry():
    sys.exit(main())
