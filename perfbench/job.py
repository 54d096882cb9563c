"""One benchmark job: a single ma-multicast CLI command in this fresh process.

    python3 job.py setup CONFIG
        import ma_multicast, load CONFIG, print the seconds this took
    python3 job.py run JOB_ID SPANS_OUT -- CLI_ARGS...
        run ma_multicast.expcli.main(CLI_ARGS) with stdout and logging
        silenced; unless SPANS_OUT is "-", trace the package's public
        functions and write the spans there as JSON when the job ends

run.py starts this with the package's `src` directory as PYTHONPATH and the
BLAS thread counts pinned to 1.  The exit code is the CLI's.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _setup(config_path):
    import ma_multicast

    ma_multicast.load_config(config_path)
    print(repr(time.perf_counter() - _T0))
    return 0


def _run(job_id, spans_out, argv):
    import ma_multicast  # noqa: F401  (binds every submodule before tracing)
    from ma_multicast import expcli

    installation = recorder = None
    if spans_out != "-":
        import tracing

        recorder = tracing.Recorder(job_id=int(job_id))
        installation = tracing.install(recorder)
    logging.disable(logging.CRITICAL)
    try:
        with open(os.devnull, "w", encoding="utf-8") as devnull, contextlib.redirect_stdout(devnull):
            code = expcli.main(argv)
    finally:
        if installation is not None:
            installation.restore()
            with open(spans_out, "w", encoding="utf-8") as fh:
                json.dump({"absent": installation.absent, "spans": recorder.spans}, fh)
    return code


def main(args):
    if len(args) == 2 and args[0] == "setup":
        return _setup(args[1])
    if len(args) >= 4 and args[0] == "run" and args[3] == "--":
        return _run(args[1], args[2], args[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
