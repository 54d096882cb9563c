"""Tests of the benchmark's own code: tracing, output checks, job generation.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import ma_multicast  # noqa: E402
from ma_multicast import baselines, expcli, posopt  # noqa: E402

DEFAULT_CONFIG = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))


def _bindings():
    """Every (module, attribute) in the package bound to a traced function."""
    out = {}
    for module_name, func_name in tracing.TARGETS:
        original = getattr(sys.modules[f"ma_multicast.{module_name}"], func_name)
        for name, mod in list(sys.modules.items()):
            if name == "ma_multicast" or name.startswith("ma_multicast."):
                for attr, value in vars(mod).items():
                    if value is original:
                        out[(mod, attr)] = original
    return out


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    before = _bindings()
    # multi_start_sca is bound in posopt, baselines, oracle and the package
    assert {mod.__name__ for mod, attr in before if attr == "multi_start_sca"} >= {
        "ma_multicast", "ma_multicast.posopt", "ma_multicast.baselines", "ma_multicast.oracle",
    }
    recorder = tracing.Recorder(job_id=3)
    inst = tracing.install(recorder)
    try:
        assert inst.absent == []
        for (mod, attr), original in before.items():
            assert getattr(mod, attr) is not original
            assert getattr(mod, attr).__wrapped__ is original
        baselines.proposed_scheme(ma_multicast.SystemConfig(), n_starts=2, seed=0)
    finally:
        inst.restore()
    for (mod, attr), original in before.items():
        assert getattr(mod, attr) is original
    names = [span[3] for span in recorder.spans]
    assert names.count("posopt.multi_start_sca") == 1
    assert names.count("posopt.sca_optimize") == 2
    assert "posopt.project_polytope" in names and "sysmodel.validate_positions" in names
    assert {span[0] for span in recorder.spans} == {3}
    metrics = tracing.layer_metrics(recorder.spans, 1)
    assert metrics["posopt.multi_start_sca.calls"] == 1
    assert metrics["posopt.multi_start_sca.unique_frac"] == 1
    assert metrics["posopt.sca_optimize.iterations"] >= 2


def test_install_tolerates_a_missing_function():
    targets = (("posopt", "no_such_function"), ("no_such_module", "f"), ("posopt", "sca_optimize"))
    original = posopt.sca_optimize
    inst = tracing.install(tracing.Recorder(), targets=targets)
    try:
        assert inst.absent == ["posopt.no_such_function", "no_such_module.f"]
        assert posopt.sca_optimize is not original
    finally:
        inst.restore()
    assert posopt.sca_optimize is original


def test_span_is_recorded_when_the_call_raises():
    recorder = tracing.Recorder()

    def fails():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap("x.fails", fails)()
    assert [span[3] for span in recorder.spans] == ["x.fails"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, 1, 0, "a", 0.0, 10.0, {}),
        (0, 2, 1, "b", 1.0, 4.0, {}),
        (0, 3, 2, "c", 2.0, 3.0, {}),
        (0, 4, 1, "b", 5.0, 6.0, {}),
    ]
    assert tracing.self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_unique_frac_counts_distinct_solves_per_job():
    spans = [
        (0, 1, 0, "posopt.multi_start_sca", 0.0, 1.0, {"key": "k"}),
        (0, 2, 0, "posopt.multi_start_sca", 1.0, 2.0, {"key": "k"}),
        (1, 1, 0, "posopt.multi_start_sca", 0.0, 1.0, {"key": "k"}),
        (1, 2, 0, "posopt.multi_start_sca", 1.0, 2.0, {"key": "k"}),
    ]
    metrics = tracing.layer_metrics(spans, 2)
    assert metrics["posopt.multi_start_sca.unique_frac"] == 0.5
    assert metrics["posopt.multi_start_sca.calls"] == 2


def test_host_scale_uses_the_median_reference_near_the_measurement():
    host = run.HostSpeed()
    host.samples = [(0.0, 0.010), (1.0, 0.020), (2.0, 0.030), (100.0, 0.5)]
    assert host.scale(0.5, 1.5) == pytest.approx(run.REFERENCE_NOMINAL_S / 0.020)
    assert host.scale(100.0, 100.0) == pytest.approx(run.REFERENCE_NOMINAL_S / 0.5)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def optimize_report():
    config = copy.deepcopy(DEFAULT_CONFIG)
    config["n_starts"] = 2
    report = expcli.run_single(expcli.config_from_dict(config))
    return config, json.loads(json.dumps(report))


def test_optimize_check_accepts_the_program_output(optimize_report):
    config, report = optimize_report
    assert checks.optimize_problems(config, report) == []


def test_optimize_check_rejects_a_perturbed_beamformer(optimize_report):
    config, report = optimize_report
    bad = copy.deepcopy(report)
    bad["schemes"]["proposed"]["w_re"][0] += 1e-6
    assert any("||w||" in p for p in checks.optimize_problems(config, bad))
    # a unit-norm w that is not the reported one breaks the recomputed SNRs
    bad = copy.deepcopy(report)
    res = bad["schemes"]["fpa"]
    res["w_re"], res["w_im"] = res["w_im"], res["w_re"]
    assert any("fpa: gamma_u" in p for p in checks.optimize_problems(config, bad))


def test_optimize_check_rejects_infeasible_positions(optimize_report):
    config, report = optimize_report
    bad = copy.deepcopy(report)
    x = bad["schemes"]["ao"]["x"]
    x[1] = x[0] + 0.1
    assert any("ao: spacing" in p for p in checks.optimize_problems(config, bad))
    bad = copy.deepcopy(report)
    bad["schemes"]["aps"]["x"][-1] = config["system"]["span_l"] + 0.01
    assert any("aps: x[-1]" in p for p in checks.optimize_problems(config, bad))


def test_sweep_check_rejects_a_missing_row_and_an_inverted_pair():
    config = {"schemes": ["proposed", "ma_mrt"]}
    good = "n,scheme,min_rate_bps_hz\n4,proposed,2.0\n4,ma_mrt,1.0\n5,proposed,2.5\n5,ma_mrt,1.5\n"
    assert checks.sweep_problems(config, 4, 5, good) == []
    assert checks.sweep_problems(config, 4, 5, good.replace("5,ma_mrt,1.5\n", ""))
    assert checks.sweep_problems(config, 4, 5, good.replace("5,ma_mrt,1.5", "5,ma_mrt,3.0"))
    assert checks.sweep_problems(config, 4, 5, good.replace("4,proposed,2.0", "4,proposed,nan"))


def test_validate_check_requires_all_four_checks_passed():
    report = {"checks": [{"name": n, "passed": True} for n in checks.VALIDATE_CHECKS]}
    assert checks.validate_problems(0, report) == []
    report["checks"][3]["passed"] = False
    assert checks.validate_problems(0, report) == ["separation_certificate did not pass"]
    assert checks.validate_problems(2, report)


@pytest.mark.parametrize("name", ["optimize_default", "sweep_n_large"])
def test_job_configs_repeat_for_a_seed_and_differ_across_seeds(name):
    workload = workloads.WORKLOADS[name]
    base = copy.deepcopy(DEFAULT_CONFIG)
    first = list(islice(workload.configs(base, 11), 5))
    again = list(islice(workload.configs(base, 11), 5))
    other = list(islice(workload.configs(base, 12), 5))
    assert first == again
    assert [c["seed"] for c in first] != [c["seed"] for c in other]
    assert len({c["seed"] for c in first}) == 5
    assert base == DEFAULT_CONFIG
    # the program gets a valid config for every job
    for doc in first:
        expcli.config_from_dict(doc)
