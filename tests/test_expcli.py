"""Tests for config ingestion, experiment runs, artifacts, and the CLI."""

import csv
import dataclasses
import gc
import io
import json
import logging
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from ma_multicast import (
    ConfigError,
    ExperimentConfig,
    InfeasibleSchemeError,
    Scheme,
    SystemConfig,
    load_config,
    main,
    run_single,
)
from ma_multicast import posopt
from ma_multicast.config import CONFIG_FIELDS, SWEEP_FIELDS, SYSTEM_FIELDS, config_from_dict, exceeds_span
from ma_multicast.expcli import (
    SWEEP_KINDS,
    SWEEP_MAX_POINTS,
    _build_parser,
    _db,
    run_beampattern,
    run_sweep_l,
    run_sweep_n,
    write_csv,
    write_json,
)
from ma_multicast.sysmodel import check_positions

from correlation_reference import best_t

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def small_experiment(**overrides):
    """Three-antenna two-scheme setup that keeps run times negligible."""
    base = dict(
        system=SystemConfig(n_antennas=3, span_l=2.0),
        schemes=(Scheme.PROPOSED, Scheme.FPA),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def default_doc(schemes=None, **system):
    """configs/default.json with these system fields and, when given, these schemes."""
    doc = json.loads((REPO_ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
    doc["system"].update(system)
    doc["schemes"] = schemes or doc["schemes"]
    return doc


def run_python(*args, **env):
    """python -X dev -W error args in a fresh interpreter on src, env updated by env.

    The flags are the ones CI runs the suite under, so a warning in the child
    fails it as one in the suite would.
    """
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), **env),
    )


SMALL_DOC = {
    "system": {"n_antennas": 3, "span_l": 2.0},
    "schemes": ["proposed", "fpa"],
}


# ---------------------------------------------------------------------------
# Config ingestion


def test_config_from_dict_defaults():
    exp = config_from_dict({})
    assert exp.system == SystemConfig()
    assert exp.schemes == tuple(Scheme)
    assert exp.aps_grid_step == 0.5
    assert exp.sweep is None
    assert exp.output_dir == "."
    # the CLI runs config_from_dict({}) when no --config is given, which is configs/default.json
    assert exp == load_config(REPO_ROOT / "configs" / "default.json")


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ([], "top level: expected an object"),
        ({"bogus": 1}, "bogus: unknown field"),
        ({"system": 5}, "system: expected an object"),
        ({"system": {"foo": 1}}, "system.foo: unknown field"),
        ({"system": {"n_antennas": 1}}, "system.n_antennas: must be >= 2"),
        ({"system": {"n_antennas": 2.5}}, "system.n_antennas: expected an integer"),
        ({"system": {"span_l": -1.0}}, "system.span_l: must be positive"),
        ({"system": {"span_l": True}}, "system.span_l: expected a number"),
        ({"system": {"tau": float("nan")}}, "system.tau: must be finite"),
        ({"system": {"d_su": [1.0]}}, "system.d_su: expected a pair"),
        ({"system": {"theta_su": [0.1, "x"]}}, "system.theta_su[1]: expected a number"),
        ({"system": {"n_antennas": 5, "span_l": 1.0}}, "system: "),
        ({"schemes": []}, "schemes: expected a non-empty list"),
        ({"schemes": "proposed"}, "schemes: expected a non-empty list"),
        ({"schemes": ["nope"]}, "schemes[0]: unknown scheme 'nope'"),
        ({"seed": -1}, "seed: must be >= 0"),
        ({"seed": 1.5}, "seed: expected an integer"),
        ({"n_starts": 0}, "n_starts: must be >= 1"),
        ({"aps_grid_step": 0}, "aps_grid_step: must be positive"),
        ({"output_dir": 3}, "output_dir: expected a string"),
        ({"sweep": 7}, "sweep: expected an object"),
        ({"sweep": {"kind": "bogus"}}, "sweep.kind: expected one of"),
        ({"sweep": {"kind": "over_n", "n_min": 2}}, "sweep.n_max: expected an integer"),
        (
            {"sweep": {"kind": "over_l", "l_min": 1.0, "l_max": 2.0, "l_step": 0.5, "x": 1}},
            "sweep.x: unknown field",
        ),
        ({"sweep": {"kind": "beam_pattern", "angle_count": 1}}, "sweep.angle_count: must be >= 2"),
        ({"schemes": ["proposed", "fpa", "proposed"]}, "schemes[2]: duplicate scheme 'proposed'"),
        # integers past the float range: float() raised OverflowError
        ({"system": {"span_l": 10**400}}, "system.span_l: must be finite"),
        ({"system": {"ps_dbm": -(10**400)}}, "system.ps_dbm: must be finite"),
        ({"system": {"d_su": [100.0, 10**400]}}, "system.d_su[1]: must be finite"),
        ({"aps_grid_step": 10**400}, "aps_grid_step: must be finite"),
        ({"sweep": {"kind": "over_l", "l_min": 1.0, "l_max": 10**400, "l_step": 1.0}}, "sweep.l_max: must be finite"),
        # the antenna cap is read with the field, before any check across fields
        ({"system": {"n_antennas": 4099, "span_l": 1.0}}, "system.n_antennas: must be <= 4098"),
    ],
)
def test_config_from_dict_rejections(doc, fragment):
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert fragment in str(err.value)


def test_system_table_reads_every_system_config_field():
    assert set(SYSTEM_FIELDS) == {f.name for f in dataclasses.fields(SystemConfig)}


@pytest.mark.parametrize("command, kind", SWEEP_KINDS.items())
def test_sweep_tables_name_their_commands_flag_dests(command, kind):
    dests = set(vars(_build_parser().parse_args([command]))) - {"command", "config", "out"}
    assert dests == set(SWEEP_FIELDS[kind])


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"bogus": 1, "system": 5}, "bogus: unknown field"),
        ({"system": {"n_antennas": 1, "foo": 1}}, "system.foo: unknown field"),
        # an unknown field is named before a missing or invalid one
        ({"sweep": {"kind": "over_n", "n_min": 2, "x": 1}}, "sweep.x: unknown field"),
        ({"sweep": {"kind": "over_l", "l_min": -1.0, "y": 2}}, "sweep.y: unknown field"),
        # fields are read in table order, not document order
        ({"output_dir": 3, "seed": -1}, "seed: must be >= 0"),
        ({"schemes": [], "system": 5}, "system: expected an object"),
    ],
)
def test_a_document_with_several_errors_reports_one(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, doc)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_config_nan_rejected_via_json(tmp_path):
    # json.loads accepts NaN literals, the validator must not
    path = tmp_path / "nan.json"
    path.write_text('{"system": {"span_l": NaN}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="finite"):
        load_config(str(path))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_main_integer_past_the_digit_limit_is_config_error(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on a
    # 5 001-digit integer, past Python's default int_max_str_digits of 4 300
    path = tmp_path / "long.json"
    path.write_text('{"aps_grid_step": 1' + "0" * 5000 + "}", encoding="utf-8")
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path} is not valid JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


def test_load_config_round_trip(tmp_path):
    doc = dict(SMALL_DOC, sweep={"kind": "over_n", "n_min": 2, "n_max": 4})
    exp = load_config(write_config(tmp_path, doc))
    assert exp.system.n_antennas == 3
    assert exp.system.span_l == 2.0
    assert exp.schemes == (Scheme.PROPOSED, Scheme.FPA)
    assert exp.sweep == {"kind": "over_n", "n_min": 2, "n_max": 4}


def test_shipped_default_config_loads():
    exp = load_config(str(REPO_ROOT / "configs" / "default.json"))
    assert exp.system == SystemConfig()
    assert exp.schemes == tuple(Scheme)


# ---------------------------------------------------------------------------
# Runs


def test_run_single_report_shape():
    exp = small_experiment(schemes=(Scheme.PROPOSED, Scheme.AO, Scheme.FPA))
    report = run_single(exp)
    assert set(report["schemes"]) == {"proposed", "ao", "fpa"}
    assert report["config"]["system"]["n_antennas"] == 3
    for name, entry in report["schemes"].items():
        assert len(entry["x"]) == 3
        assert len(entry["w_re"]) == 3
        assert len(entry["w_im"]) == 3
        assert 0.0 <= entry["t"] <= 1.0
        assert entry["min_rate_bps_hz"] > 0.0
        gamma_min = min(entry["gamma_u1"], entry["gamma_u2"])
        assert entry["min_rate_bps_hz"] == pytest.approx(math.log2(1.0 + gamma_min))
        assert entry["gamma_u1_db"] == pytest.approx(10.0 * math.log10(entry["gamma_u1"]))
        assert 0.0 <= entry["correlation"] <= 3.0 + 1e-9
    assert isinstance(report["schemes"]["proposed"]["iterations"], int)
    assert report["schemes"]["ao"]["iterations"] is None
    assert report["schemes"]["fpa"]["iterations"] is None
    assert report["schemes"]["proposed"]["case"] is not None


def test_db_helper():
    assert _db(100.0) == pytest.approx(20.0)
    assert _db(0.0) is None


def test_run_beampattern_rows():
    exp = small_experiment(schemes=(Scheme.FPA,))
    rows = run_beampattern(exp, angle_count=19)
    assert len(rows) == 19
    thetas = [row[0] for row in rows]
    assert thetas[0] == 0.0
    assert thetas[-1] == pytest.approx(math.pi)
    assert all(row[1] == "fpa" for row in rows)
    assert all(0.0 <= row[2] <= 3.0 + 1e-9 for row in rows)
    # a direct call reads its argument as main reads the flag, under the field's name
    for count, message in [(2.5, "angle_count: expected an integer"), (1, "angle_count: must be >= 2")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_beampattern(exp, count)


def test_run_sweep_n_skips_infeasible_points():
    exp = small_experiment(schemes=(Scheme.FPA,))
    rows, skips = run_sweep_n(exp, 2, 6)
    # span 2.0 fits at most five antennas at the 0.5 separation floor
    assert [row[0] for row in rows] == [2, 3, 4, 5]
    assert all(row[1] == "fpa" for row in rows)
    assert len(skips) == 1 and "n=6" in skips[0]
    # each bound is read by its field's reader, under the field's name
    for bounds, message in [
        ((1, 3), "n_min: must be >= 2"),
        ((True, 3), "n_min: expected an integer"),
        ((2, 2.5), "n_max: expected an integer"),
        ((4, 3), "n_min = 4 exceeds n_max = 3"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_sweep_n(exp, *bounds)


def test_sweep_n_ends_at_the_first_n_the_span_cannot_hold(tmp_path, monkeypatch, capsys, caplog):
    # feasibility only falls as n grows: on the default 4-wavelength span
    # n = 10 to 100 001 is one skip line, not 99 992
    checked = []
    monkeypatch.setattr(
        "ma_multicast.expcli.exceeds_span", lambda n, *args: checked.append(n) or exceeds_span(n, *args)
    )
    cfg = write_config(tmp_path, {"schemes": ["fpa"]})
    out = tmp_path / "sweep_n.csv"
    argv = ["sweep-n", "--config", cfg, "--n-min", "2", "--n-max", "100001", "--out", str(out)]
    with caplog.at_level(logging.WARNING, logger="ma_multicast.expcli"):
        assert main(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(2, 10)]
    assert [r.getMessage() for r in caplog.records] == [
        "sweep-n skip: n=10..100001: (n - 1) * d_min exceeds span_l"
    ]
    assert checked == list(range(2, 11))
    assert "(8 rows, 1 skips)" in capsys.readouterr().out


def test_sweeps_too_long_or_repeating_are_refused_before_the_first_point(monkeypatch):
    listed = []
    monkeypatch.setattr(
        "ma_multicast.expcli._run_sweep",
        lambda exp, key, field, values, infeasible: listed.append(list(values)),
    )
    exp = small_experiment(schemes=(Scheme.FPA,))
    # SWEEP_MAX_POINTS points are listed, one more is refused
    run_sweep_n(exp, 2, SWEEP_MAX_POINTS + 1)
    run_sweep_l(exp, 1.0, 1.0 + (SWEEP_MAX_POINTS - 1) / 8, 1 / 8)
    assert [len(values) for values in listed] == [SWEEP_MAX_POINTS] * 2
    with pytest.raises(ConfigError, match=f"^n_min = 2 to n_max = {SWEEP_MAX_POINTS + 2} "):
        run_sweep_n(exp, 2, SWEEP_MAX_POINTS + 2)
    with pytest.raises(ConfigError, match="^l_step = 0.125 is too small for the range 1.0 to "):
        run_sweep_l(exp, 1.0, 1.0 + SWEEP_MAX_POINTS / 8, 1 / 8)
    with pytest.raises(ConfigError, match="^n_min = 2 to n_max = 1000000000 "):
        run_sweep_n(exp, 2, 10**9)
    # 1e15 points
    with pytest.raises(ConfigError, match="^l_step = 1e-15 is too small for the range 3.0 to 4.0$"):
        run_sweep_l(exp, 3.0, 4.0, 1e-15)
    # 3 334 points, but 3e-16 is under one ulp of 3 (4.4e-16): only 2 253 distinct l
    with pytest.raises(ConfigError, match="^l_step = 3e-16 is too small for the range 3.0 to "):
        run_sweep_l(exp, 3.0, 3.000000000001, 3e-16)
    assert len(listed) == 2


def test_run_sweep_l_skips_infeasible_schemes():
    system = SystemConfig(n_antennas=4, span_l=2.0, d_min=0.4)
    exp = small_experiment(system=system)
    rows, skips = run_sweep_l(exp, 1.3, 1.8, 0.5)
    # the half-wavelength array needs 1.5 of span, the movable one only 1.2
    assert [(row[0], row[1]) for row in rows] == [
        (1.3, "proposed"),
        (1.8, "proposed"),
        (1.8, "fpa"),
    ]
    assert len(skips) == 1 and "scheme=fpa" in skips[0]
    # each value is read by its field's reader, under the field's name; a zero
    # step divided by zero, a negative one swept nothing, an infinite one swept l = nan
    for args, message in [
        ((3.0, 4.0, 0.0), "l_step: must be positive"),
        ((3.0, 4.0, -0.5), "l_step: must be positive"),
        ((3.0, 4.0, math.inf), "l_step: must be finite"),
        ((3.0, math.nan, 0.5), "l_max: must be finite"),
        ((0.0, 1.0, 0.5), "l_min: must be positive"),
        ((2.0, 1.0, 0.5), "l_min = 2.0 exceeds l_max = 1.0"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_sweep_l(exp, *args)


def test_sweep_rates_match_run_single():
    exp = small_experiment(schemes=(Scheme.PROPOSED,))
    rows, _skips = run_sweep_n(exp, 3, 3)
    report = run_single(exp)
    assert rows[0][2] == pytest.approx(
        report["schemes"]["proposed"]["min_rate_bps_hz"], rel=1e-12
    )


# ---------------------------------------------------------------------------
# Artifact formatting


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    rows = [
        (1, "proposed", 0.123456789012345),
        (2.5, "fpa", 1e-17),
        (np.int64(3), np.float64(0.25), True),
    ]
    write_csv(str(path), ["a", "b", "c"], rows)
    text = path.read_bytes().decode("utf-8")
    assert text == "a,b,c\n1,proposed,0.123456789012\n2.5,fpa,1e-17\n3,0.25,True\n"


def test_write_json_format(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"b": 1, "a": [1.5]})
    text = path.read_bytes().decode("utf-8")
    assert text == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'


# ---------------------------------------------------------------------------
# CLI entry point


def test_main_optimize_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_DOC)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["optimize", "--config", cfg, "--out", str(out_a)]) == 0
    posopt.multi_start_sca.cache_clear()  # recompute, not a cache hit
    assert main(["optimize", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text(encoding="utf-8"))
    assert set(doc["schemes"]) == {"proposed", "fpa"}
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize"],
        ["beampattern", "--points", "5"],
        ["sweep-n", "--n-min", "2", "--n-max", "3"],
        ["sweep-l", "--l-min", "2", "--l-max", "2.5", "--l-step", "0.5"],
    ],
)
def test_main_writes_a_relative_out_into_output_dir(tmp_path, monkeypatch, capsys, argv):
    results = tmp_path / "results"
    results.mkdir()
    cfg = write_config(tmp_path, dict(SMALL_DOC, output_dir=str(results)))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--config", cfg, "--out", "artifact.out"]) == 0
    assert (results / "artifact.out").is_file()
    assert not (tmp_path / "artifact.out").exists()
    # an absolute --out ignores output_dir
    absolute = tmp_path / "absolute.out"
    assert main(argv + ["--config", cfg, "--out", str(absolute)]) == 0
    assert absolute.is_file()
    assert not (results / "absolute.out").exists()
    assert str(results / "artifact.out") in capsys.readouterr().out


def test_main_reports_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["optimize", "--config", missing]) == 1
    bad = write_config(tmp_path, {"schemes": ["nope"]}, name="bad.json")
    assert main(["optimize", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    # a file that is not UTF-8: reading it raised UnicodeDecodeError, an internal error
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'\xff\xfe{"system": {}}')
    assert main(["optimize", "--config", str(not_utf8), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot read {not_utf8}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_main_snr_scale_overflow_is_config_error(tmp_path, capsys):
    for system in (
        {"n_antennas": 3, "span_l": 2.0, "ps_dbm": 4000.0},
        # a finite scale of about 4e307 times 5 antennas would write Infinity
        {"n_antennas": 5, "span_l": 4.0, "ps_dbm": 3036.0},
    ):
        cfg = write_config(tmp_path, dict(SMALL_DOC, system=system))
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "config error: system: " in err and "SNR scale" in err and "Traceback" not in err


def test_main_sweep_point_whose_snr_overflows_is_config_error(tmp_path, capsys):
    # scale * 5 antennas is finite, scale * 6 is not
    doc = dict(SMALL_DOC, system={"n_antennas": 5, "span_l": 4.0, "ps_dbm": 3035.5})
    cfg = write_config(tmp_path, doc)
    argv = ["sweep-n", "--config", cfg, "--n-min", "5", "--n-max", "6"]
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error: n=6: " in err and "SNR scale" in err and "Traceback" not in err


def test_main_retired_keys_leave_the_artifact_unchanged(tmp_path, capsys):
    # seed and n_starts steered AO's random restarts, which are gone; older
    # configs and the benchmark harness still set them
    doc = dict(SMALL_DOC, schemes=["proposed", "ao", "fpa"])
    plain = write_config(tmp_path, doc, name="plain.json")
    retired = write_config(tmp_path, dict(doc, seed=7, n_starts=3), name="retired.json")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["optimize", "--config", plain, "--out", str(out_a)]) == 0
    posopt.multi_start_sca.cache_clear()  # recompute, not a cache hit
    assert main(["optimize", "--config", retired, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert set(json.loads(out_a.read_text(encoding="utf-8"))["config"]) == {
        "system", "schemes", "aps_grid_step"
    }
    capsys.readouterr()


def test_main_optimize_far_below_unit_snr_reports_the_left_endpoint(tmp_path, capsys):
    # SNR scales near 1e-12: an absolute floor of 1 in the case analysis's
    # slack reported "crossing" at a min SNR of 4.978e-13
    doc = default_doc(ps_dbm=-170.0, d_su=[60.0, 100.0])
    out = tmp_path / "r.json"
    assert main(["optimize", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    proposed = json.loads(out.read_text(encoding="utf-8"))["schemes"]["proposed"]
    assert proposed["case"] == "left_endpoint"
    cfg = SystemConfig(**doc["system"])
    _t, theta_grid = best_t(np.array(proposed["x"]), cfg, 1e-4)
    theta = min(proposed["gamma_u1"], proposed["gamma_u2"])
    assert theta == pytest.approx(5.0e-13, rel=1e-12)
    assert abs(theta - theta_grid) <= 1e-12 * theta_grid
    capsys.readouterr()


def test_main_optimize_near_the_float_limit_keeps_the_crossing(tmp_path, capsys):
    # a3 * a3 overflows here, so a crossing norm that squares before scaling
    # reported fpa at t = 0.0 with gamma_u1 = 1.7e273 against gamma_u2 = 1.8e308
    doc = default_doc(["proposed", "fpa"], ps_dbm=3035.5)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["optimize", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        fpa = json.loads(out.read_text(encoding="utf-8"))["schemes"]["fpa"]
        _t, theta_grid = best_t(np.array(fpa["x"]), SystemConfig(**doc["system"]), 1e-4)
    assert fpa["case"] == "crossing" and fpa["t"] > 0.0
    theta = min(fpa["gamma_u1"], fpa["gamma_u2"])
    assert theta == pytest.approx(theta_grid, rel=1e-6)
    capsys.readouterr()


@pytest.mark.parametrize(
    "system, schemes",
    [({}, None), ({"n_antennas": 28, "span_l": 20.0}, ["proposed", "ao", "ma_mrt", "fpa"])],
    ids=["default", "n28-span20"],
)
def test_optimize_reports_the_correlation_of_its_positions(tmp_path, capsys, system, schemes):
    # kappa from the echoed angles and wavelength, x from the report: nothing from the package
    doc = default_doc(schemes, **system)
    out = tmp_path / "r.json"
    assert main(["optimize", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    echoed = report["config"]["system"]
    theta1, theta2 = echoed["theta_su"]
    kappa = (2.0 * math.pi / echoed["wavelength"]) * (math.sin(theta2) - math.sin(theta1))
    assert set(report["schemes"]) == set(doc["schemes"])
    for name, entry in report["schemes"].items():
        want = abs(np.exp(1j * kappa * np.array(entry["x"])).sum())
        assert abs(entry["correlation"] - want) <= 1e-12 * want, (name, entry["correlation"], want)
    capsys.readouterr()


def test_optimize_report_system_block_parses_back_to_its_config(tmp_path, capsys):
    system = SystemConfig(n_antennas=7, d_su=(80, 120), theta_su=(0.0, math.pi))
    doc = {"system": {"n_antennas": 7, "d_su": [80, 120], "theta_su": [0.0, math.pi]},
           "schemes": ["proposed", "fpa"]}
    out = tmp_path / "r.json"
    assert main(["optimize", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["config"]["system"]) == {f.name for f in dataclasses.fields(SystemConfig)}
    # the config block is itself a valid config document
    exp = config_from_dict(report["config"])
    assert exp.system == system and exp.system != SystemConfig()
    assert exp.schemes == (Scheme.PROPOSED, Scheme.FPA)
    capsys.readouterr()


ALIGNED_N2 = dict(n_antennas=2, span_l=2.0, theta_su=[1.8377256686100467, 0.20514194925801882],
                  d_su=[23.65752314919121, 39.49592992383879])
# 31 whole periods of the phase difference fit the span: the chain-DP start returns that chain
ALIGNED_N32 = dict(n_antennas=32, span_l=45.4700347835771, d_min=0.25,
                   theta_su=[0.16994055233248953, 1.1601471462975412])


def parallel_at_t_1(schemes, _logged):
    # parallel channels: both report t = 1, the t that the separation certificate sees
    assert [(schemes[k]["case"], schemes[k]["t"]) for k in ("proposed", "ao")] == [("degenerate_parallel", 1.0)] * 2


def full_correlation(schemes, _logged):
    assert schemes["proposed"]["correlation"] >= 32 - 3.2e-8 and schemes["proposed"]["case"] == "degenerate_parallel"


def one_rate_without_a_round(schemes, _logged):
    # kappa = 0: the solve runs no SCA round, the channels are parallel, and all five schemes reach one rate
    cases = {k: v["case"] for k, v in schemes.items()}
    assert cases == dict.fromkeys(["proposed", "ao", "aps", "fpa"], "degenerate_parallel") | {"ma_mrt": None}
    assert schemes["proposed"]["iterations"] == 0
    rates = [v["min_rate_bps_hz"] for v in schemes.values()]
    assert max(rates) - min(rates) <= 1e-12


def feasible_at_4e30(schemes, _logged):
    # one ulp of the span is about 5e14, so only a slack that scales with it passes these positions
    check_positions(schemes["proposed"]["x"], SystemConfig(span_l=4e30, d_min=1e30))


def rows_without_warnings(count):
    # no warning: an unconverged solve logs "without converging", and a point that does not fit a skip
    def check(rows, logged):
        assert len(rows) == count and logged == []

    return check


def head_skipped_in_wavelengths(rows, logged):
    # l = 1.9e-12 is 0.1 wavelengths short of the 2e-12 the array needs: a skip, as
    # SystemConfig compares in wavelengths, though 1e-13 lies inside 1e-9 user lengths
    assert [row["l"] for row in rows] == ["2e-12", "2.1e-12", "2.2e-12", "2.3e-12", "2.4e-12", "2.5e-12"]
    assert logged == ["sweep-l skip: l=1.5e-12..1.9e-12: smaller than (n - 1) * d_min"]


@pytest.mark.parametrize(
    "argv, system, schemes, check",
    [
        pytest.param(["optimize"], ALIGNED_N2, ["proposed", "ao"], parallel_at_t_1, id="aligned-n2"),
        pytest.param(["optimize"], ALIGNED_N32, ["proposed", "ma_mrt"], full_correlation, id="aligned-n32"),
        pytest.param(["optimize"], dict(theta_su=[0.5, 0.5]), None, one_rate_without_a_round, id="one-angle"),
        # the array fills the span: _sca's entry check refused the uniform start
        pytest.param(["optimize"], dict(span_l=4e30, d_min=1e30), ["proposed"], feasible_at_4e30, id="tight-4e30"),
        pytest.param(["sweep-n", "--n-min", "64", "--n-max", "64"], dict(span_l=40.0),
                     ["proposed", "ma_mrt", "fpa"], rows_without_warnings(3), id="n64-span40"),
        # spans 1e-9 apart: the chain-DP start and the solve stay feasible at every one
        pytest.param(["sweep-l", "--l-min", "3", "--l-max", "3.000000005", "--l-step", "1e-9"], {},
                     None, rows_without_warnings(25), id="sweep-l-step-1e-9"),
        pytest.param(["sweep-l", "--l-min", "1.5e-12", "--l-max", "2.5e-12", "--l-step", "1e-13"],
                     dict(span_l=4e-12, d_min=5e-13, wavelength=1e-12), ["proposed"],
                     head_skipped_in_wavelengths, id="sweep-l-wavelength-1e-12"),
    ],
)
def test_main_on_a_patched_default_config(tmp_path, capsys, caplog, argv, system, schemes, check):
    out = tmp_path / "artifact"
    cfg = write_config(tmp_path, default_doc(schemes, **system))
    with caplog.at_level(logging.WARNING):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    artifact = json.loads(text)["schemes"] if argv[0] == "optimize" else list(csv.DictReader(io.StringIO(text)))
    check(artifact, [r.getMessage() for r in caplog.records])
    capsys.readouterr()


def test_no_command_imports_numpy_random(tmp_path):
    # validate draws from the stdlib PCG64 stream, and no other command draws
    # at all; a fresh interpreter per command shows what each pulls in.  The
    # package loads its modules on first use, so only validate loads the
    # suite, its oracle and its stream
    code = (
        "import json, sys, ma_multicast\n"
        "assert 'numpy.random' not in sys.modules\n"
        "assert [m for m in sys.modules if m.startswith('ma_multicast.')] == []\n"
        "code = ma_multicast.main(sys.argv[1:])\n"
        "assert code == 0, code\n"
        "assert 'numpy.random' not in sys.modules\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ma_multicast.'))))\n"
    )
    validate_only = {"ma_multicast.oracle", "ma_multicast.validation", "ma_multicast._pcg64"}
    config = str(REPO_ROOT / "configs" / "default.json")
    commands = [
        ["optimize", "--config", config, "--out", str(tmp_path / "r.json")],
        ["sweep-n", "--config", config, "--n-min", "4", "--n-max", "5", "--out", str(tmp_path / "s.csv")],
        ["validate", "--quick"],
    ]
    for argv in commands:
        proc = run_python("-c", code, *argv)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        if argv[0] == "validate":
            assert loaded >= validate_only
        else:
            assert not loaded & validate_only, (argv[0], loaded & validate_only)


def test_loading_a_config_imports_no_numpy():
    # the config module uses the standard library only, so a script that
    # reads, builds or refuses a config pays for no numpy import
    code = (
        "import sys, ma_multicast\n"
        "from ma_multicast.config import config_from_dict\n"
        "ma_multicast.load_config(sys.argv[1])\n"
        "config_from_dict({'sweep': {'kind': 'over_l', 'l_min': 3, 'l_max': 4, 'l_step': 0.5}})\n"
        "try:\n"
        "    config_from_dict({'system': {'n_antennas': 10}})\n"
        "except ma_multicast.ConfigError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('an infeasible geometry was accepted')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = run_python("-c", code, str(REPO_ROOT / "configs" / "default.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_full_validate_reports_agree_across_processes(tmp_path):
    # through the package's entry point, under two fixed and different hash
    # seeds, so a report that followed set or str-keyed order would differ
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"validate_{seed}.json"
        proc = run_python("-m", "ma_multicast", "validate", "--out", str(out), PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_optimize_at_2048_antennas_peaks_under_100_mb(tmp_path):
    # the O(n) polytope projection keeps the whole process under 100 MB.  The
    # child reads its peak from VmHWM: its ru_maxrss would also count the
    # peak of the pytest process it was started from
    doc = default_doc(["proposed", "ao", "ma_mrt"], n_antennas=2048, span_l=1.0, d_min=1 / 4096)
    script = (
        "import pathlib, sys, ma_multicast\n"
        "code = ma_multicast.main(sys.argv[1:])\n"
        "status = pathlib.Path('/proc/self/status').read_text()\n"
        "print(code, status.split('VmHWM:')[1].split()[0])\n"
    )
    argv = ["optimize", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "r.json")]
    proc = run_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split()[-2:])
    assert code == 0 and peak_kib < 102400, (code, peak_kib)


def test_optimize_at_1024_antennas_on_span_640_peaks_under_48_mb(tmp_path):
    # the chain-DP start runs its 4 097-point grid in phase blocks and keeps
    # only sqrt(n) entering rows, where a (n, M + 1) value table took the
    # process to 71.5 MB; VmHWM as in the 2 048-antenna case above
    doc = default_doc(["proposed"], n_antennas=1024, span_l=640.0)
    script = (
        "import pathlib, sys, ma_multicast\n"
        "code = ma_multicast.main(sys.argv[1:])\n"
        "status = pathlib.Path('/proc/self/status').read_text()\n"
        "print(code, status.split('VmHWM:')[1].split()[0])\n"
    )
    argv = ["optimize", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "r.json")]
    proc = run_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split()[-2:])
    assert code == 0 and peak_kib < 48 * 1024, (code, peak_kib)


@pytest.mark.parametrize("config_doc", [SMALL_DOC, {"no_such_key": 1}], ids=["ok", "config-error"])
def test_main_leaves_the_heap_frozen_and_the_collector_working(tmp_path, capsys, config_doc):
    # main freezes the heap on its way out, so the exit that follows skips
    # it; a caller that stays on keeps a collector that still reclaims
    # whatever it builds afterwards
    enabled = gc.isenabled()
    assert gc.get_freeze_count() == 0
    cfg = write_config(tmp_path, config_doc)
    code = main(["optimize", "--config", cfg, "--out", str(tmp_path / "r.json")])
    assert code == (0 if config_doc is SMALL_DOC else 1)
    assert gc.get_freeze_count() > 0
    assert gc.isenabled() == enabled

    class Node:
        pass

    node = Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None
    capsys.readouterr()


def test_main_sweep_requires_range(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_DOC)
    assert main(["sweep-n", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 1
    assert "--n-min is required" in capsys.readouterr().err


def test_main_bad_sweep_range_is_config_error(tmp_path, capsys):
    # each row: argv, the config's sweep section, and the one error line; a flag is
    # read by its sweep field's reader under the flag's name
    cases = [
        (["sweep-n", "--n-min", "1", "--n-max", "3"], None, "config error: --n-min: must be >= 2"),
        (["sweep-l", "--l-min", "0", "--l-max", "3", "--l-step", "0.5"], None, "config error: --l-min: must be positive"),
        # argparse reads inf and nan as floats; none of them is a sweep range
        (["sweep-l", "--l-min", "3", "--l-max", "inf", "--l-step", "0.5"], None, "config error: --l-max: must be finite"),
        (["sweep-l", "--l-min", "inf", "--l-max", "inf", "--l-step", "0.5"], None, "config error: --l-min: must be finite"),
        (["sweep-l", "--l-min", "3", "--l-max", "4", "--l-step", "inf"], None, "config error: --l-step: must be finite"),
        (["sweep-l", "--l-min", "nan", "--l-max", "4", "--l-step", "0.5"], None, "config error: --l-min: must be finite"),
        (["sweep-l", "--l-min", "3", "--l-max", "nan", "--l-step", "0.5"], None, "config error: --l-max: must be finite"),
        (["sweep-l", "--l-min", "3", "--l-max", "4", "--l-step", "nan"], None, "config error: --l-step: must be finite"),
        # an n past the float range, named as optimize names it
        (["sweep-n", "--n-min", str(10**400), "--n-max", str(10**400)], None,
         f"config error: n={10**400}: n_antennas: must be <= 4098"),
        # the same value as a flag and in a sweep section gives the same reason
        (["sweep-n"], {"kind": "over_n", "n_min": 1, "n_max": 3}, "config error: sweep.n_min: must be >= 2"),
        (["beampattern", "--points", "1"], None, "config error: --points: must be >= 2"),
        (["beampattern"], {"kind": "beam_pattern", "angle_count": 1}, "config error: sweep.angle_count: must be >= 2"),
        (["sweep-l", "--l-min", "3", "--l-max", "4", "--l-step", "-0.5"], None, "config error: --l-step: must be positive"),
        # two bounds out of order: no single field's reader sees that
        (["sweep-n", "--n-min", "4", "--n-max", "3"], None, "config error: n_min = 4 exceeds n_max = 3"),
        (["sweep-l", "--l-max", "2"], {"kind": "over_l", "l_min": 3.0, "l_max": 4.0, "l_step": 0.5},
         "config error: l_min = 3.0 exceeds l_max = 2.0"),
    ]
    out = tmp_path / "s.csv"
    for argv, sweep, message in cases:
        cfg = write_config(tmp_path, dict(SMALL_DOC, sweep=sweep))
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err == message + "\n", argv
        assert not out.exists()


@pytest.mark.parametrize(
    "l_min, l_max, step",
    [("3", "4", "5e-324"), ("3", "4", "1e-300"), ("1e-300", "1e300", "1e-300")],
)
def test_main_sweep_l_step_too_small_for_its_range_is_config_error(tmp_path, l_min, l_max, step):
    # 3 + step rounds back to 3: at 5e-324 the point count overflows, and at
    # 1e-300 the sweep would evaluate l = 3 about 1e300 times.  1e-300 does move
    # l_min = 1e-300, but the count up to 1e300 overflows.  A subprocess with a
    # timeout turns a hang into a failure.
    cfg = write_config(tmp_path, SMALL_DOC)
    out = tmp_path / "s.csv"
    argv = ["sweep-l", "--config", cfg, "--l-min", l_min, "--l-max", l_max, "--l-step", step,
            "--out", str(out)]
    proc = run_python("-m", "ma_multicast", *argv)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: l_step = ") and "Traceback" not in proc.stderr
    assert not out.exists()


def test_sweep_l_steps_that_move_l_min_still_run():
    exp = small_experiment(schemes=(Scheme.FPA,))
    # one point needs no step, however small
    rows, _skips = run_sweep_l(exp, 3.0, 3.0, 5e-324)
    assert [row[0] for row in rows] == [3.0]
    # steps that the CSV's 12 significant digits tell apart
    rows, _skips = run_sweep_l(exp, 3.0, 3.0 + 3e-11, 1e-11)
    assert [row[0] for row in rows] == [3.0, 3.0 + 1e-11, 3.0 + 2e-11, 3.0 + 3e-11]
    # 1e-15 is about two ulps of 3, so each step moves l, but all four points
    # would print as l = 3 in the CSV and the skip labels
    with pytest.raises(ConfigError, match="^l_step = 1e-15 is too small for the range 3.0 to "):
        run_sweep_l(exp, 3.0, 3.0 + 4e-15, 1e-15)


def test_main_scheme_that_does_not_fit_is_config_error(tmp_path, capsys):
    doc = dict(SMALL_DOC, system={"n_antennas": 3, "span_l": 2.0, "d_min": 0.6})
    cfg = write_config(tmp_path, doc)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
    assert "config error: schemes: fpa:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "step, message",
    [
        # 4e300 grid points: the counts are Python ints, so the cap refuses them
        (1e-300, "schemes: aps: more than 1e18 candidate subsets exceed the cap 10000000; use a coarser grid_step"),
        # 4 / 5e-324 is infinite: no count at all
        (5e-324, "schemes: aps: span_l / step = inf leaves no finite count of grid points"),
        # 4e8 grid points, refused before any is built
        (1e-8, "schemes: aps: more than 1e18 candidate subsets exceed the cap 10000000; use a coarser grid_step"),
    ],
    ids=["1e-300", "5e-324", "1e-8"],
)
def test_main_aps_grid_step_far_below_the_span_is_config_error(tmp_path, capsys, step, message):
    cfg = write_config(tmp_path, {"aps_grid_step": step, "schemes": ["aps"]})
    out = tmp_path / "result.json"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


WAVELENGTH_MESSAGE = "wavelength must keep 2 pi / wavelength finite"
PHASE_MESSAGE = "span_l and wavelength must keep twice the aperture phase, 4 pi span_l / wavelength, finite"
# without aps: its grid cap refuses spans this long on its own
NO_APS = ["proposed", "ao", "ma_mrt", "fpa"]


@pytest.mark.parametrize(
    "system, message",
    [
        # 2 pi / wavelength is infinite: the chain-DP start divided by zero
        ({"wavelength": 5e-324}, f"system: {WAVELENGTH_MESSAGE}"),
        # a 401-digit integer: the span check's float conversion overflowed;
        # the cap is a check of the field alone, so it names the field's path
        ({"n_antennas": 10**400}, "system.n_antennas: must be <= 4098"),
        # kappa x overflowed: the solve raised "positions must be finite"
        ({"wavelength": 1e-150, "span_l": 1e200}, f"system: {PHASE_MESSAGE}"),
        ({"wavelength": 1e-100, "span_l": 1e250}, f"system: {PHASE_MESSAGE}"),
        # just past the bound: 4 pi span_l / wavelength = 1.8096e308
        ({"wavelength": 1e-100, "span_l": 1.44e207}, f"system: {PHASE_MESSAGE}"),
        # uniform_positions asked numpy for 7.28 TiB
        ({"n_antennas": 10**12, "d_min": 1e-300}, "system.n_antennas: must be <= 4098"),
        ({"n_antennas": 4099, "d_min": 1e-6}, "system.n_antennas: must be <= 4098"),
    ],
    ids=["wavelength-5e-324", "n-401-digits",
         "phase-1e-150-1e200", "phase-1e-100-1e250", "phase-1e-100-1.44e207", "n-1e12", "n-past-the-cap"],
)
def test_main_system_outside_the_numeric_domain_is_config_error(tmp_path, capsys, system, message):
    cfg = write_config(tmp_path, {"system": system, "schemes": NO_APS})
    out = tmp_path / "result.json"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "system, schemes",
    [
        # the solve squares only the phase rate per wavelength, at most 2 pi, so every
        # scheme runs where kappa^2 n in user units is 3.6e300 or overflows: when
        # SystemConfig bounded 2 kappa^2 n, it refused 1e-200 and 1e-300
        ({"wavelength": 1e-150}, None),
        ({"wavelength": 1e-200}, None),
        ({"wavelength": 1e-300}, None),
        # the aligned chain fits, so the chain DP forms no step count
        ({"wavelength": 1e-100, "span_l": 1e207}, NO_APS),
        # just inside the bound: 4 pi span_l / wavelength = 1.79699e308
        ({"wavelength": 1e-100, "span_l": 1.43e207}, NO_APS),
        # in user units kappa^2 underflows, which would zero the SCA curvature, and at
        # 1.7e308 the chain period 2 pi / |kappa| overflows; in wavelengths neither does
        ({"wavelength": 1e163, "span_l": 1000.0}, NO_APS),
        ({"wavelength": 1.7e308}, NO_APS),
    ],
    ids=["wavelength-1e-150", "wavelength-1e-200", "wavelength-1e-300", "phase-1e-100-1e207",
         "phase-1e-100-1.43e207", "wavelength-1e163", "wavelength-1.7e308"],
)
def test_main_wavelength_inside_the_domain_runs(tmp_path, capsys, system, schemes):
    cfg = write_config(tmp_path, {"system": system, "schemes": schemes or [s.value for s in Scheme]})
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err == ""


# edge values for any field or flag: past or at the float range, subnormal,
# zero and negative, wrong types, and pairs that hold such values
FUZZ_POOL = [
    0, -1, 2, 0.5, 5e-324, 1e-300, 1e300, 1.7e308, 10**20, 10**400, -(10**400),
    "x", "", True, False, None, [1.0, 2.0], [0, 10**400], [1e-300, 1.7e308], ["proposed", "aps"],
]
# each command's flags with their argparse types
FUZZ_FLAGS = {
    "optimize": {},
    "beampattern": {"--points": int},
    "sweep-n": {"--n-min": int, "--n-max": int},
    "sweep-l": {"--l-min": float, "--l-max": float, "--l-step": float},
}


def fuzz_value(rng, read):
    """A FUZZ_POOL value, most often one that the field's reader accepts, so the run gets past it."""
    def accepted(value):
        try:
            read(value, "field")
        except ConfigError:
            return False
        return True

    fits = [value for value in FUZZ_POOL if accepted(value)]
    return rng.choice(fits if fits and rng.random() < 0.8 else FUZZ_POOL)


def fuzz_case(rng):
    """One random (argv, config document) from FUZZ_POOL: a few fields, most flags."""
    fields = [(None, key, read) for key, read in CONFIG_FIELDS.items()]
    fields += [("system", key, read) for key, read in SYSTEM_FIELDS.items()]
    fields += [(kind, key, read) for kind, table in SWEEP_FIELDS.items() for key, read in table.items()]
    doc = {}
    for section, key, read in rng.sample(fields, rng.randint(1, 3)):
        value = fuzz_value(rng, read)
        if section is None:
            doc[key] = value
            continue
        # a system field, or a field of the sweep kind named by section
        name, head = ("system", {}) if section == "system" else ("sweep", {"kind": section})
        if not isinstance(doc.get(name), dict) or doc[name].get("kind") != head.get("kind"):
            doc[name] = head
        doc[name][key] = value
    command = rng.choice(list(FUZZ_FLAGS))
    argv = [command]
    for flag, kind in FUZZ_FLAGS[command].items():
        # a value the flag's type parses, as argparse exits 2 on any other
        if rng.random() < 0.9:
            argv += [flag, str(rng.choice([v for v in FUZZ_POOL if type(v) in (int, kind)]))]
    return argv, doc


def test_fuzzed_configs_and_flags_exit_0_or_1_with_one_config_error_line(tmp_path, monkeypatch, capsys):
    # every input the CLI can be given is either run or refused as a config
    # error: never an internal error (exit 3), and never more than one error line
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20261020)
    touched = set()
    for _ in range(300):
        argv, doc = fuzz_case(rng)
        touched.update(doc)
        touched.update(key for section in doc.values() if isinstance(section, dict) for key in section)
        cfg = write_config(tmp_path, doc)
        code = main(argv + ["--config", cfg, "--out", "artifact"])
        gc.unfreeze()
        err = capsys.readouterr().err
        assert code in (0, 1), (argv, doc, err)
        errors = [line for line in err.splitlines() if line.startswith("config error:")]
        if code == 1:
            assert len(errors) == 1 and err.endswith(errors[0] + "\n"), (argv, doc, err)
        # the API refuses a system section as the CLI does, with the same reason: the
        # system section is the first field read, and a TypeError or OverflowError fails here
        if isinstance(doc.get("system"), dict):
            try:
                built = SystemConfig(**doc["system"])
            except ValueError as exc:
                # a field's reason goes under system.field, a check across fields under system
                prefix = "system." if re.match(r"\w+[:\[]", str(exc)) else "system: "
                assert errors == [f"config error: {prefix}{exc}"], (doc, err)
            else:
                assert built == config_from_dict({"system": doc["system"]}).system, doc
    # every field of every table was drawn at least once
    assert touched >= set(CONFIG_FIELDS) | set(SYSTEM_FIELDS) | {key for table in SWEEP_FIELDS.values() for key in table}


def test_main_unwritable_out_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_DOC)
    out = tmp_path / "no_such_dir" / "r.json"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: cannot write {out}" in err and "Traceback" not in err


def test_main_solver_fault_is_internal_error(tmp_path, monkeypatch, capsys):
    def broken_solve(*args, **kwargs):
        raise ValueError("solver fault")

    monkeypatch.setattr("ma_multicast.baselines.multi_start_sca", broken_solve)
    cfg = write_config(tmp_path, SMALL_DOC)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "config error" not in err
    assert "Traceback" in err and "solver fault" in err


def test_main_sweep_solver_fault_is_internal_error_but_infeasible_scheme_skips(
    tmp_path, monkeypatch, capsys, caplog
):
    def broken_solve(*args, **kwargs):
        raise ValueError("solver fault")

    def infeasible_solve(*args, **kwargs):
        raise InfeasibleSchemeError("does not fit")

    cfg = write_config(tmp_path, SMALL_DOC)
    out = tmp_path / "sweep.csv"
    argv = ["sweep-n", "--config", cfg, "--n-min", "2", "--n-max", "3", "--out", str(out)]
    monkeypatch.setattr("ma_multicast.baselines.multi_start_sca", broken_solve)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "Traceback" in err and "solver fault" in err
    monkeypatch.setattr("ma_multicast.baselines.multi_start_sca", infeasible_solve)
    assert main(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    # only the proposed scheme needs the solve, so fpa keeps its rows
    assert [line.split(",")[:2] for line in lines[1:]] == [["2", "fpa"], ["3", "fpa"]]
    assert "Traceback" not in capsys.readouterr().err
    assert "n=2 scheme=proposed: does not fit" in caplog.text


def test_main_sweep_n_uses_config_sweep(tmp_path, capsys):
    doc = dict(SMALL_DOC, schemes=["fpa"], sweep={"kind": "over_n", "n_min": 2, "n_max": 4})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert main(["sweep-n", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,scheme,min_rate_bps_hz"
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "3", "4"]
    capsys.readouterr()


def test_main_sweep_l_flags_override(tmp_path, capsys):
    doc = dict(SMALL_DOC, schemes=["fpa"])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep_l.csv"
    code = main(
        ["sweep-l", "--config", cfg, "--l-min", "1.5", "--l-max", "2.5", "--l-step", "0.5",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "l,scheme,min_rate_bps_hz"
    assert len(lines) == 4
    capsys.readouterr()


def test_sweep_skip_labels_name_the_value_the_csv_would_print(tmp_path, capsys, caplog):
    # spans 2e-9 apart just under (n - 1) * d_min = 4: six significant digits
    # would print both ends of the one skip line as l=4, which is not smaller than 4
    cfg = write_config(tmp_path, {"system": {"n_antennas": 9}, "schemes": ["fpa"]})
    argv = ["sweep-l", "--config", cfg, "--l-min", "3.99999999", "--l-max", "3.999999996",
            "--l-step", "2e-9", "--out", str(tmp_path / "sweep_l.csv")]
    with caplog.at_level(logging.WARNING, logger="ma_multicast.expcli"):
        assert main(argv) == 0
    skips = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep-l skip")]
    assert skips == ["sweep-l skip: l=3.99999999..3.999999996: smaller than (n - 1) * d_min"]
    capsys.readouterr()


def test_sweep_l_logs_the_spans_short_of_the_array_as_one_skip(tmp_path, capsys, caplog):
    # feasibility only rises with l: on the default config (n = 5 needs l >= 2)
    # l = 0.001 to 1.999 is one skip line, not 1 999, and l = 2 to 2.1 run
    cfg = write_config(tmp_path, {"schemes": ["fpa"]})
    out = tmp_path / "sweep_l.csv"
    argv = ["sweep-l", "--config", cfg, "--l-min", "0.001", "--l-max", "2.1", "--l-step", "0.001",
            "--out", str(out)]
    with caplog.at_level(logging.WARNING, logger="ma_multicast.expcli"):
        assert main(argv) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "sweep-l skip: l=0.001..1.999: smaller than (n - 1) * d_min"
    ]
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]][::50] == ["2", "2.05", "2.1"]
    assert "(101 rows, 1 skips)" in capsys.readouterr().out
    # a single short span keeps its own label
    _rows, skips = run_sweep_l(small_experiment(schemes=(Scheme.FPA,)), 0.5, 1.5, 0.5)
    assert skips == ["l=0.5: smaller than (n - 1) * d_min"]


@pytest.mark.parametrize(
    "flags, sweep, count",
    [
        (["--points", str(SWEEP_MAX_POINTS + 1)], None, SWEEP_MAX_POINTS + 1),
        (["--points", "100000000"], None, 100_000_000),
        ([], {"kind": "beam_pattern", "angle_count": SWEEP_MAX_POINTS + 1}, SWEEP_MAX_POINTS + 1),
    ],
    ids=["cap+1", "1e8", "config"],
)
def test_beampattern_past_the_sweep_cap_is_config_error(tmp_path, monkeypatch, capsys, flags, sweep, count):
    cfg = write_config(tmp_path, dict(SMALL_DOC, sweep=sweep))
    sampled = []
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: sampled.append(args))
    out = tmp_path / "pattern.csv"
    assert main(["beampattern", "--config", cfg, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: angle_count = {count} lists more than {SWEEP_MAX_POINTS} points\n"
    assert sampled == [] and not out.exists()


def test_main_beampattern_points_from_config(tmp_path, capsys):
    doc = dict(SMALL_DOC, schemes=["fpa"], sweep={"kind": "beam_pattern", "angle_count": 19})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "pattern.csv"
    assert main(["beampattern", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta_rad,scheme,gain"
    assert len(lines) == 20
    capsys.readouterr()


def test_main_validate_quick(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["validate", "--quick", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["passed"] is True
    stdout = capsys.readouterr().out
    assert stdout.count("[PASS]") == 4


def test_main_validate_failure_exit_code(monkeypatch, capsys):
    def fake_validate(quick=False):
        return {"quick": quick, "checks": [], "passed": False}, False

    monkeypatch.setattr("ma_multicast.validation.run_validate", fake_validate)
    assert main(["validate"]) == 2
    capsys.readouterr()
