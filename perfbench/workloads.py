"""The benchmark's workloads: the CLI command of each job and what it returned.

A job is one CLI command.  Where the command reads a config, the job's
config `seed` is drawn from the workload seed, so the same workload seed
gives the same sequence of jobs and the program only ever sees the
generated config file.
"""

import copy
import json
import math
import random
from dataclasses import dataclass

import checks

SWEEP_N = 28
SWEEP_SPAN_L = 20.0
SWEEP_SCHEMES = ["proposed", "ma_mrt", "fpa"]


@dataclass
class Outcome:
    """What one finished job produced, after its output checks."""

    problems: list
    solves: int = 0
    rate_proposed: float = math.nan
    rate_all: float = math.nan
    rate_ao: float = math.nan
    gap_rate_max: float = math.nan


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def _seeded_configs(base, seed):
    rng = random.Random(seed)
    while True:
        doc = copy.deepcopy(base)
        doc["seed"] = rng.randrange(2**31)
        yield doc


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class OptimizeDefault:
    name = "optimize_default"
    why = "optimize on configs/default.json (n=5, all five schemes): the paper's operating point; AO and the shared position solve dominate"
    artifact = "result.json"
    nominal_job_s = 0.55

    def configs(self, default_config, seed):
        return _seeded_configs(default_config, seed)

    def argv(self, config_path, out_path):
        return ["optimize", "--config", config_path, "--out", out_path]

    def evaluate(self, config, exit_code, out_path):
        if exit_code != 0:
            return Outcome([f"exit code {exit_code}"])
        report = _load_json(out_path)
        problems = checks.optimize_problems(config, report)
        rates = {k: v["min_rate_bps_hz"] for k, v in report["schemes"].items()}
        return Outcome(
            problems,
            solves=len(rates),
            rate_proposed=rates.get("proposed", math.nan),
            rate_all=_mean(rates.values()),
            rate_ao=rates.get("ao", math.nan),
        )


class SweepNLarge:
    name = "sweep_n_large"
    why = "sweep-n at n=28 on a 20-wavelength span, schemes proposed/ma_mrt/fpa: a large array where SCA and its polytope projection dominate"
    artifact = "sweep_n.csv"
    nominal_job_s = 1.2

    def configs(self, default_config, seed):
        base = copy.deepcopy(default_config)
        base["system"]["span_l"] = SWEEP_SPAN_L
        base["schemes"] = list(SWEEP_SCHEMES)
        base["n_starts"] = 10
        base["sweep"] = {"kind": "over_n", "n_min": SWEEP_N, "n_max": SWEEP_N}
        return _seeded_configs(base, seed)

    def argv(self, config_path, out_path):
        return ["sweep-n", "--config", config_path, "--out", out_path]

    def evaluate(self, config, exit_code, out_path):
        if exit_code != 0:
            return Outcome([f"exit code {exit_code}"])
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        problems = checks.sweep_problems(config, SWEEP_N, SWEEP_N, text)
        if problems:
            return Outcome(problems)
        _header, rows = checks.parse_sweep_csv(text)
        return Outcome(
            problems,
            solves=len(rows),
            rate_proposed=_mean(r for (_n, s), r in rows.items() if s == "proposed"),
            rate_all=_mean(rows.values()),
        )


class ValidateFull:
    name = "validate_full"
    why = "validate without --quick: the brute-force joint grid oracle dominates, plus many tiny n=2,3 position solves"
    artifact = "validate.json"
    nominal_job_s = 2.4

    def configs(self, default_config, seed):
        while True:
            yield None  # the command takes no config and has no seed input

    def argv(self, config_path, out_path):
        return ["validate", "--out", out_path]

    def evaluate(self, config, exit_code, out_path):
        if exit_code not in (0, 2):
            return Outcome([f"exit code {exit_code}"])
        report = _load_json(out_path)
        problems = checks.validate_problems(exit_code, report)
        runs = next(c["runs"] for c in report["checks"] if c["name"] == "separation_certificate")
        return Outcome(
            problems,
            solves=len(runs),
            rate_proposed=_mean(r["rate_decoupled"] for r in runs),
            rate_all=_mean([r["rate_decoupled"] for r in runs] + [r["rate_joint"] for r in runs]),
            gap_rate_max=max(r["gap_rate"] for r in runs),
        )


WORKLOADS = {w.name: w for w in (OptimizeDefault(), SweepNLarge(), ValidateFull())}
