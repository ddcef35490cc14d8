"""One workload process: run an xprompt CLI command for the benchmark.

    python3 perfbench/child.py MARK_PATH SPANS_PATH -- CLI_ARGS...
    python3 perfbench/child.py --env

The benchmark starts this with PYTHONPATH=src and BLAS pinned to one thread.
It calls ``xprompt.cli.main`` in-process (the package is not installed, and
``python -m xprompt.cli`` warns because ``xprompt/__init__`` imports ``cli``).
When ``harness.load_splits`` first returns, set-up is over: the monotonic
time of that moment goes to MARK_PATH. With SPANS_PATH other than ``-`` the
tracer is installed first and its spans are written there at the end.
``--env`` prints the environment block of a workload process as JSON.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var, "unset")
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def main(argv: list[str]) -> int:
    if argv == ["--env"]:
        print(json.dumps(environment()))
        return 0
    mark_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py MARK_PATH SPANS_PATH -- CLI_ARGS...")

    from xprompt import cli, harness

    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_done: list[float] = []
    load_splits = harness.load_splits

    def marked_load_splits(cfg):
        data = load_splits(cfg)
        if not setup_done:
            setup_done.append(time.monotonic())
            with open(mark_path, "w", encoding="utf-8") as fh:
                fh.write(repr(setup_done[0]))
        return data

    harness.load_splits = marked_load_splits
    code = cli.main(cli_args)
    work_end = time.monotonic()
    if tracer is not None and setup_done:
        tracer.dump(spans_path, setup_done[0], work_end)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
