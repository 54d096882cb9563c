"""Experiment harness: runs of a config, JSON/CSV artifacts out, CLI front end.

Configs are read and checked by ma_multicast.config.

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
from dataclasses import asdict, replace

import numpy as np

from .baselines import InfeasibleSchemeError, SchemeResult, run_scheme
from .config import (
    FEASIBILITY_TOL, SWEEP_FIELDS, ConfigError, ExperimentConfig, Scheme, SystemConfig,
    config_from_dict, exceeds_span, load_config,
)
from .posopt import correlation
from .sysmodel import beam_pattern

log = logging.getLogger(__name__)

# most points one sweep lists, or angles one beam pattern samples; past it is a config error
SWEEP_MAX_POINTS = 100_000


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


def _read_sweep_args(kind: str, *values):
    """values, in the order of the SWEEP_FIELDS table of kind, each read by its field's reader under the field's name."""
    return [read(value, key) for (key, read), value in zip(SWEEP_FIELDS[kind].items(), values)]


def run_beampattern(exp: ExperimentConfig, angle_count: int):
    """Rows (theta, scheme, gain) over angle_count angles in [0, pi].

    angle_count is read by its SWEEP_FIELDS reader, then checked against the
    cap on the points.
    """
    [angle_count] = _read_sweep_args("beam_pattern", angle_count)
    if angle_count > SWEEP_MAX_POINTS:
        raise ConfigError(f"angle_count = {angle_count} lists more than {SWEEP_MAX_POINTS} points")
    thetas = np.linspace(0.0, math.pi, angle_count)
    rows = []
    for scheme in exp.schemes:
        res = _configured_scheme(exp, scheme)
        gains = beam_pattern(res.w.w, res.x, thetas, exp.system.wavelength)
        rows.extend(
            (float(th), scheme.value, float(g)) for th, g in zip(thetas, gains)
        )
    return rows


def _run_sweep(exp: ExperimentConfig, key: str, field: str, values, infeasible: str):
    """Rows (value, scheme, rate) over values of one config field, and the skips.

    Values whose geometry cannot hold n antennas d_min apart are skipped, and
    a scheme that cannot fit a point is skipped at that point; each skip is
    logged as it happens.  Feasibility only falls as n grows and only rises
    as l grows, so those values are a tail of an n sweep, which ends at its
    first such n, and a head of an l sweep: each is one skip, labelled with
    its first and last value (n=10..100001), or its one value (n=10).  A
    value that makes the config invalid otherwise (an SNR that overflows at
    a larger n, or an n past the antenna cap) is a config error.
    """
    rows = []
    skips = []

    def skip(message):
        log.warning("sweep-%s skip: %s", key, message)
        skips.append(message)

    def fits(value):
        geometry = {"n_antennas": exp.system.n_antennas, "span_l": exp.system.span_l, field: value}
        lam = exp.system.wavelength
        try:
            # in wavelengths, as SystemConfig checks the geometry
            return not exceeds_span(geometry["n_antennas"], exp.system.d_min / lam, geometry["span_l"] / lam, lam)
        except OverflowError:
            # an n past the float range: building its config below names the error
            return True

    def skip_short(short):
        label = f"{key}={_format_cell(short[0])}"
        if len(short) > 1:
            label += f"..{_format_cell(short[-1])}"
        skip(f"{label}: {infeasible}")

    # values[:k] lie on the same side of the feasibility edge as values[0]
    tail = field == "n_antennas"
    k = 0
    while k < len(values) and fits(values[k]) == tail:
        k += 1
    fit, short = (values[:k], values[k:]) if tail else (values[k:], values[:k])
    if short and not tail:
        skip_short(short)
    for value in fit:
        label = f"{key}={_format_cell(value)}"
        try:
            cfg = replace(exp.system, **{field: value})
        except ConfigError as exc:
            raise ConfigError(f"{label}: {exc}") from exc
        for scheme in exp.schemes:
            try:
                res = run_scheme(scheme, cfg, exp.aps_grid_step)
            except InfeasibleSchemeError as exc:
                skip(f"{label} scheme={scheme.value}: {exc}")
                continue
            rows.append((value, scheme.value, res.snr.min_rate))
    if short and tail:
        skip_short(short)
    return rows, skips


def run_sweep_n(exp: ExperimentConfig, n_min: int, n_max: int):
    """Rows and skips of _run_sweep over n = n_min .. n_max.

    Each bound is read by its SWEEP_FIELDS reader, then their order and the
    cap on the points are checked.
    """
    n_min, n_max = _read_sweep_args("over_n", n_min, n_max)
    if n_max < n_min:
        raise ConfigError(f"n_min = {n_min} exceeds n_max = {n_max}")
    if n_max - n_min >= SWEEP_MAX_POINTS:
        raise ConfigError(
            f"n_min = {n_min} to n_max = {n_max} lists more than {SWEEP_MAX_POINTS} points"
        )
    return _run_sweep(
        exp, "n", "n_antennas", range(n_min, n_max + 1), "(n - 1) * d_min exceeds span_l"
    )


def run_sweep_l(exp: ExperimentConfig, l_min: float, l_max: float, l_step: float):
    """Rows and skips of _run_sweep over l = l_min, l_min + l_step, ... up to l_max.

    Each value is read by its SWEEP_FIELDS reader, then the order of the
    bounds and the step size are checked.
    """
    l_min, l_max, l_step = _read_sweep_args("over_l", l_min, l_max, l_step)
    if l_max < l_min:
        raise ConfigError(f"l_min = {l_min!r} exceeds l_max = {l_max!r}")
    steps = (l_max - l_min) / l_step + FEASIBILITY_TOL
    # a step is too small when the sweep lists more than SWEEP_MAX_POINTS
    # points (an overflowing count among them) or two points whose CSV cells
    # and skip labels read the same l
    if steps < SWEEP_MAX_POINTS:
        values = [l_min + k * l_step for k in range(int(steps) + 1)]
        if len({_format_cell(value) for value in values}) == len(values):
            return _run_sweep(exp, "l", "span_l", values, "smaller than (n - 1) * d_min")
    raise ConfigError(f"l_step = {l_step!r} is too small for the range {l_min!r} to {l_max!r}")


# ---------------------------------------------------------------------------
# Output formatting


def _format_cell(value) -> str:
    """A float to 12 significant digits; an int or a str as it is."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


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

# the sweep kind of each command whose flags a config's sweep section may give
SWEEP_KINDS = {"beampattern": "beam_pattern", "sweep-n": "over_n", "sweep-l": "over_l"}

# a sweep value that neither a flag nor the config has to give
SWEEP_DEFAULTS = {"angle_count": 361}


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
    p_beam.add_argument("--points", dest="angle_count", type=int, help="number of angle samples")
    p_beam.add_argument("--out", default="beampattern.csv", help=OUT_HELP.format("CSV"))

    p_n = sub.add_parser("sweep-n", help="rates versus the number of antennas")
    p_n.add_argument("--config", help="JSON experiment configuration")
    p_n.add_argument("--n-min", type=int)
    p_n.add_argument("--n-max", type=int)
    p_n.add_argument("--out", default="sweep_n.csv", help=OUT_HELP.format("CSV"))

    p_l = sub.add_parser("sweep-l", help="rates versus the aperture span")
    p_l.add_argument("--config", help="JSON experiment configuration")
    p_l.add_argument("--l-min", type=float)
    p_l.add_argument("--l-max", type=float)
    p_l.add_argument("--l-step", type=float)
    p_l.add_argument("--out", default="sweep_l.csv", help=OUT_HELP.format("CSV"))

    p_val = sub.add_parser("validate", help="run the oracle-backed self checks")
    p_val.add_argument("--quick", action="store_true", help="reduced sample counts")
    p_val.add_argument("--out", default=None, help="optional JSON report path")
    return parser


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
        else:
            # each sweep value: its flag, read by the field's reader under the flag's
            # name, else the config's sweep section of the command's kind, read on load
            kind = SWEEP_KINDS[args.command]
            section = exp.sweep if exp.sweep is not None and exp.sweep["kind"] == kind else {}
            values = {}
            for key, read in SWEEP_FIELDS[kind].items():
                flag = "--points" if key == "angle_count" else "--" + key.replace("_", "-")
                value = getattr(args, key)
                if value is not None:
                    values[key] = read(value, flag)
                    continue
                values[key] = section.get(key, SWEEP_DEFAULTS.get(key))
                if values[key] is None:
                    raise ConfigError(f"{flag} is required (flag or sweep section of the config)")
            if args.command == "beampattern":
                rows = run_beampattern(exp, **values)
                write_csv(out, ["theta_rad", "scheme", "gain"], rows)
                print(f"wrote {out} ({len(rows)} rows)")
            else:
                run = run_sweep_n if args.command == "sweep-n" else run_sweep_l
                rows, skips = run(exp, **values)
                write_csv(out, [args.command.removeprefix("sweep-"), "scheme", "min_rate_bps_hz"], rows)
                print(f"wrote {out} ({len(rows)} rows, {len(skips)} skips)")
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
