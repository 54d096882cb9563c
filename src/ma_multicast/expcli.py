"""Experiment harness: JSON config in, JSON/CSV artifacts out, CLI front end.

Every run is deterministic for a fixed config; only validate draws random
numbers, from its fixed seed (ma_multicast.validation).  Sweep points are
evaluated one after another, in sweep order.
"""

import argparse
import gc
import json
import logging
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .baselines import REFERENCE_SPACING, InfeasibleSchemeError, Scheme, SchemeResult, run_scheme
from .posopt import correlation
from .sysmodel import FEASIBILITY_TOL, SystemConfig, beam_pattern, exceeds_span

log = logging.getLogger(__name__)

# most points one sweep lists; a sweep past it is a config error
SWEEP_MAX_POINTS = 100_000


class ConfigError(Exception):
    """Configuration document rejected; the message carries the field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    schemes: tuple
    aps_grid_step: float = REFERENCE_SPACING
    sweep: dict | None = None
    output_dir: str = "."


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


def run_beampattern(exp: ExperimentConfig, angle_count: int):
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
        label = f"{key}={_format_cell(value)}"
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
    if n_max - n_min >= SWEEP_MAX_POINTS:
        raise ConfigError(
            f"n_min = {n_min} to n_max = {n_max} lists more than {SWEEP_MAX_POINTS} points"
        )
    return _run_sweep(
        exp, "n", "n_antennas", range(n_min, n_max + 1), "(n - 1) * d_min exceeds span_l"
    )


def run_sweep_l(exp: ExperimentConfig, l_min: float, l_max: float, l_step: float):
    if not (0.0 < l_min <= l_max < math.inf and 0.0 < l_step < math.inf):
        raise ConfigError("need finite 0 < l_min <= l_max and l_step > 0")
    steps = (l_max - l_min) / l_step + FEASIBILITY_TOL
    # a step is too small when the sweep lists more than SWEEP_MAX_POINTS
    # points (an overflowing count among them) or rounds two of them to one l
    if steps < SWEEP_MAX_POINTS:
        values = [l_min + k * l_step for k in range(int(steps) + 1)]
        if len(set(values)) == len(values):
            return _run_sweep(exp, "l", "span_l", values, "smaller than (n - 1) * d_min")
    raise ConfigError(f"l_step = {l_step!r} is too small for the range {l_min!r} to {l_max!r}")


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
    """Run one CLI command; returns its exit code.

    The process exits right after, so main freezes the heap on every way out
    (gc.freeze): the interpreter's shutdown collections then skip the objects
    that the imports and the command left behind instead of walking them one
    by one.  An in-process caller keeps that freeze: every object alive when
    main returns stays uncollected until gc.unfreeze() or exit.  Objects made
    afterwards are collected as usual.
    """
    try:
        # argparse exits through SystemExit, which the handlers below let pass
        args = _build_parser().parse_args(argv)
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
        exp = load_config(args.config) if getattr(args, "config", None) else config_from_dict({})
        out = _artifact_path(exp, args.out)
        if args.command == "optimize":
            write_json(out, run_single(exp))
            print(f"wrote {out}")
        elif args.command == "beampattern":
            # only a beam_pattern sweep section holds angle_count
            points = (exp.sweep or {}).get("angle_count", 361) if args.points is None else args.points
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
            # imported here, so the other commands compile neither the suite nor its oracle
            from .validation import run_validate

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
    finally:
        gc.freeze()
    return 0


def cli_entry():
    sys.exit(main())
