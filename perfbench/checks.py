"""Properties every correct artifact has, checked with the benchmark's own numpy.

Nothing here compares against recorded output, so a legitimate gain in
solution quality is never counted as a failure.  Each check returns a list
of problems; an empty list means the artifact passed.
"""

import math

import numpy as np

FEASIBILITY_TOL = 1e-9
UNIT_NORM_TOL = 1e-12
RECOMPUTE_TOL = 1e-9
VALIDATE_CHECKS = (
    "min_snr_path_equivalence",
    "projection_identities",
    "closed_form_mixing_vs_grid",
    "separation_certificate",
)


def _watt(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def recompute_gammas(system, x, w):
    """Receive SNRs of both users for positions x and beamformer w."""
    x = np.asarray(x, dtype=float)
    gammas = []
    for d, theta in zip(system["d_su"], system["theta_su"]):
        scale = _watt(system["ps_dbm"]) / (d ** system["tau"] * _watt(system["sigma2_dbm"]))
        phase = 2.0 * math.pi / system["wavelength"] * math.sin(theta)
        gammas.append(scale * abs(np.exp(1j * phase * x) @ w) ** 2)
    return gammas


def position_problems(system, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (system["n_antennas"],) or not np.all(np.isfinite(x)):
        return [f"x has shape {x.shape} or is not finite"]
    out = []
    if x[0] < -FEASIBILITY_TOL:
        out.append(f"x[0] = {x[0]!r} lies left of the aperture")
    if x[-1] > system["span_l"] + FEASIBILITY_TOL:
        out.append(f"x[-1] = {x[-1]!r} exceeds span_l")
    if np.min(np.diff(x)) < system["d_min"] - FEASIBILITY_TOL:
        out.append(f"spacing {np.min(np.diff(x))!r} below d_min")
    return out


def _close(a, b, tol):
    """Absolute tolerance up to magnitude 1, relative above (SNRs are ~1e7)."""
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def optimize_problems(config, report):
    """Checks of an `optimize` JSON report against the config it was run on."""
    system = config["system"]
    schemes = report.get("schemes", {})
    out = []
    if sorted(schemes) != sorted(config["schemes"]):
        return [f"schemes {sorted(schemes)} != configured {sorted(config['schemes'])}"]
    for name, res in schemes.items():
        out += [f"{name}: {p}" for p in position_problems(system, res["x"])]
        w = np.asarray(res["w_re"], dtype=float) + 1j * np.asarray(res["w_im"], dtype=float)
        norm2 = float(np.vdot(w, w).real)
        if abs(norm2 - 1.0) > UNIT_NORM_TOL:
            out.append(f"{name}: ||w||^2 = {norm2!r}")
        if out:
            continue
        g1, g2 = recompute_gammas(system, res["x"], w)
        rate = math.log2(1.0 + min(g1, g2))
        for key, ref in (("gamma_u1", g1), ("gamma_u2", g2)):
            if not _close(res[key], ref, RECOMPUTE_TOL):
                out.append(f"{name}: {key} = {res[key]!r}, recomputed {ref!r}")
        if not abs(res["min_rate_bps_hz"] - rate) <= RECOMPUTE_TOL:
            out.append(f"{name}: min_rate_bps_hz = {res['min_rate_bps_hz']!r}, recomputed {rate!r}")
    if out:
        return out
    rates = {name: res["min_rate_bps_hz"] for name, res in schemes.items()}
    if "proposed" in rates and "ma_mrt" in rates and rates["proposed"] < rates["ma_mrt"] - 1e-9:
        out.append(f"proposed {rates['proposed']!r} < ma_mrt {rates['ma_mrt']!r}")
    if "proposed" in rates and "ao" in rates and rates["ao"] < 0.99 * rates["proposed"]:
        out.append(f"ao {rates['ao']!r} < 0.99 * proposed {rates['proposed']!r}")
    return out


def parse_sweep_csv(text):
    """Rows of a sweep CSV as {(point, scheme): rate}; duplicates are kept out."""
    lines = text.splitlines()
    rows = {}
    for line in lines[1:]:
        point, scheme, rate = line.split(",")
        key = (float(point), scheme)
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = float(rate)
    return lines[0] if lines else "", rows


def sweep_problems(config, n_min, n_max, text):
    """Every (n, scheme) row present and finite; proposed never below ma_mrt."""
    try:
        header, rows = parse_sweep_csv(text)
    except ValueError as exc:
        return [f"unreadable sweep CSV: {exc}"]
    if header != "n,scheme,min_rate_bps_hz":
        return [f"unexpected header {header!r}"]
    expected = {(float(n), s) for n in range(n_min, n_max + 1) for s in config["schemes"]}
    out = []
    if set(rows) != expected:
        out.append(f"rows {sorted(set(rows) ^ expected)} missing or unexpected")
    out += [f"{key}: rate {rate!r} not finite" for key, rate in rows.items() if not math.isfinite(rate)]
    for n in range(n_min, n_max + 1):
        p, m = rows.get((float(n), "proposed")), rows.get((float(n), "ma_mrt"))
        if p is not None and m is not None and p < m - 1e-9:
            out.append(f"n={n}: proposed {p!r} < ma_mrt {m!r}")
    return out


def validate_problems(exit_code, report):
    """`validate` exits 0 and every one of its four checks reports passed."""
    if exit_code != 0:
        return [f"validate exited with {exit_code}"]
    checks = {c.get("name"): c.get("passed") for c in report.get("checks", [])}
    if set(checks) != set(VALIDATE_CHECKS):
        return [f"checks {sorted(checks)} != {sorted(VALIDATE_CHECKS)}"]
    return [f"{name} did not pass" for name, ok in checks.items() if ok is not True]
