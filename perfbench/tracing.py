"""Spans around calls into the package's public functions, and their roll-up.

The package itself is not instrumented.  `install` replaces each traced
function in every `ma_multicast.*` module that binds it (its home module, the
package namespace, and any module that imported it by name), so calls made
through any of those names are recorded.  `restore` puts the originals back.

A span is (id, parent id, name, start, end, extra); `extra` carries counts
taken from the call's arguments or result, such as SCA iterations.
"""

import inspect
import os
import sys
import time

# (module, function) pairs traced.  A pair that no longer exists is reported
# as absent, not as an error.
TARGETS = (
    ("sysmodel", "validate_positions"),
    ("sysmodel", "snr_pair"),
    ("beamformer", "build_beamformer"),
    ("beamformer", "optimize_mixing"),
    ("beamformer", "projection_coefficients"),
    ("posopt", "multi_start_sca"),
    ("posopt", "sca_optimize"),
    ("posopt", "project_polytope"),
    ("baselines", "ao_optimize"),
    ("baselines", "run_scheme"),
    ("baselines", "aps_search"),
    ("baselines", "closed_form_beamformer"),
    ("oracle", "brute_force_joint"),
    ("oracle", "grid_best_t"),
    ("oracle", "joint_vs_decoupled"),
    ("expcli", "load_config"),
    ("expcli", "write_json"),
    ("expcli", "write_csv"),
    ("expcli", "run_sweep_n"),
    ("expcli", "run_sweep_l"),
)

PACKAGE = "ma_multicast"


def _solve_key(bound):
    args = bound.arguments
    return repr((args.get("cfg"), args.get("n_starts"), args.get("seed")))


def _extra_multi_start(bound, result):
    return {"key": _solve_key(bound)}


def _extra_sca(bound, result):
    trace = result[1]
    return {"iterations": trace.iterations, "converged": bool(trace.converged)}


def _extra_ao(bound, result):
    trace = result.trace
    return {"outer_iterations": trace.outer_iterations, "converged": bool(trace.converged)}


def _extra_run_scheme(bound, result):
    scheme = bound.arguments.get("scheme")
    return {"scheme": getattr(scheme, "value", str(scheme))}


def _extra_artifact(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _extra_sweep(bound, result):
    return {"skips": len(result[1])}


# Span name and extractor of per-call counts, by function.
_SPAN_NAMES = {
    "write_json": "expcli.artifact",
    "write_csv": "expcli.artifact",
    "run_sweep_n": "expcli.sweep",
    "run_sweep_l": "expcli.sweep",
}
_EXTRAS = {
    "multi_start_sca": _extra_multi_start,
    "sca_optimize": _extra_sca,
    "ao_optimize": _extra_ao,
    "run_scheme": _extra_run_scheme,
    "write_json": _extra_artifact,
    "write_csv": _extra_artifact,
    "run_sweep_n": _extra_sweep,
    "run_sweep_l": _extra_sweep,
}


class Recorder:
    """Collects the spans of one job in memory."""

    def __init__(self, job_id=0):
        self.job_id = job_id
        self.spans = []
        self._stack = []
        self._next_id = 1

    def wrap(self, name, fn, extra=None):
        recorder = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = recorder._stack[-1] if recorder._stack else 0
            recorder._stack.append(span_id)
            info = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder.spans.append((recorder.job_id, span_id, parent, name, start, end, info))
            if extra is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info.update(extra(bound, result))
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    pass
            return result

        traced.__wrapped__ = fn
        return traced


class Installation:
    """Wrappers placed into the package's modules; `restore` undoes them."""

    def __init__(self):
        self.replaced = []  # (module, attribute, original)
        self.absent = []

    def restore(self):
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced = []


def install(recorder, targets=TARGETS, package=PACKAGE):
    """Wrap every binding of each target function inside the loaded package."""
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    inst = Installation()
    for module_name, func_name in targets:
        home = sys.modules.get(f"{package}.{module_name}")
        original = getattr(home, func_name, None) if home is not None else None
        if not callable(original):
            inst.absent.append(f"{module_name}.{func_name}")
            continue
        span_name = _SPAN_NAMES.get(func_name, f"{module_name}.{func_name}")
        wrapper = recorder.wrap(span_name, original, _EXTRAS.get(func_name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    inst.replaced.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return inst


# ---------------------------------------------------------------------------
# Roll-up of spans into per-layer metrics


def _by_job(spans):
    jobs = {}
    for span in spans:
        jobs.setdefault(span[0], []).append(span)
    return jobs


def self_times(spans):
    """Per span id: duration minus the time covered by its direct children.

    Spans come from one single-threaded job, so children never overlap.
    """
    out = {}
    child_time = {}
    for _job, span_id, parent, _name, start, end, _info in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for _job, span_id, _parent, _name, start, end, _info in spans:
        out[span_id] = (end - start) - child_time.get(span_id, 0.0)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_jobs):
    """Per-job means of calls, inclusive and self seconds, and the counts."""
    calls, incl, selfs = {}, {}, {}
    scheme_s = {}
    counts = {}
    distinct_keys = 0
    for _job_id, job_spans in _by_job(spans).items():
        own = self_times(job_spans)
        keys = set()
        for _job, span_id, _parent, name, start, end, info in job_spans:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (end - start)
            selfs[name] = selfs.get(name, 0.0) + own[span_id]
            if "key" in info:
                keys.add(info["key"])
            if "scheme" in info:
                scheme_s[info["scheme"]] = scheme_s.get(info["scheme"], 0.0) + (end - start)
            for field in ("iterations", "outer_iterations", "bytes", "skips"):
                if field in info:
                    counts[(name, field)] = counts.get((name, field), 0) + info[field]
            if "converged" in info:
                counts[(name, "converged")] = counts.get((name, "converged"), 0) + int(info["converged"])
        distinct_keys += len(keys)

    jobs = max(n_jobs, 1)

    def per_job(table, name):
        return table.get(name, 0) / jobs

    m = {}
    for name in (
        "posopt.multi_start_sca",
        "posopt.sca_optimize",
        "posopt.project_polytope",
        "baselines.ao_optimize",
        "baselines.aps_search",
        "baselines.closed_form_beamformer",
        "oracle.brute_force_joint",
        "oracle.grid_best_t",
        "beamformer.build_beamformer",
        "beamformer.optimize_mixing",
        "beamformer.projection_coefficients",
        "sysmodel.validate_positions",
        "sysmodel.snr_pair",
    ):
        m[f"{name}.calls"] = per_job(calls, name)
        m[f"{name}.s"] = per_job(incl, name)
    for name in ("posopt.multi_start_sca", "baselines.ao_optimize", "oracle.joint_vs_decoupled"):
        m.setdefault(f"{name}.s", per_job(incl, name))
        m[f"{name}.self_s"] = per_job(selfs, name)
    m["posopt.multi_start_sca.unique_frac"] = _ratio(
        distinct_keys, calls.get("posopt.multi_start_sca", 0)
    )
    m["posopt.sca_optimize.iterations"] = counts.get(("posopt.sca_optimize", "iterations"), 0) / jobs
    m["posopt.sca_optimize.converged_frac"] = _ratio(
        counts.get(("posopt.sca_optimize", "converged"), 0), calls.get("posopt.sca_optimize", 0)
    )
    m["baselines.ao_optimize.outer_iterations"] = (
        counts.get(("baselines.ao_optimize", "outer_iterations"), 0) / jobs
    )
    m["baselines.ao_optimize.converged_frac"] = _ratio(
        counts.get(("baselines.ao_optimize", "converged"), 0), calls.get("baselines.ao_optimize", 0)
    )
    for scheme in ("proposed", "ao", "aps", "ma_mrt", "fpa"):
        m[f"baselines.run_scheme.{scheme}.s"] = scheme_s.get(scheme, 0.0) / jobs
    m["expcli.load_config.s"] = per_job(incl, "expcli.load_config")
    m["expcli.artifact.s"] = per_job(incl, "expcli.artifact")
    m["expcli.artifact.bytes"] = counts.get(("expcli.artifact", "bytes"), 0) / jobs
    m["expcli.sweep.skips"] = counts.get(("expcli.sweep", "skips"), 0) / jobs
    return m
