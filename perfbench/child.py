"""Run one lfmhd CLI command in this process and record its phase marks.

Usage::

    python3 perfbench/child.py --marks OUT.json [--trace] [--stop-at-compute] -- ARGS...

ARGS are the arguments of ``lfmhd`` (``run CONFIG``, ``kappa-sweep
CONFIG`` or ``energy-report CHECKPOINT --out DIR``); ``lfmhd`` must be
importable.  Phase marks are ``time.monotonic()`` readings taken around
the compute functions that ``lfmhd.cli`` imports, so the parent can
place them against the time it started this process.  ``--trace``
additionally installs every layer span (see ``layers.py``);
``--stop-at-compute`` exits when the first compute phase starts, which
measures set-up alone.  The exit code is the command's.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

# functions whose entry ends set-up: the solve, or the read of a checkpoint
COMPUTE_ENTRIES = ("solve_nonlinear_kappa", "kappa_sweep", "read_trajectory")
MARKED = COMPUTE_ENTRIES + ("energy_functionals",)


class StopAtCompute(BaseException):
    """Raised to leave the CLI when set-up is over; not an ``Exception``,
    so the CLI's catch-all does not turn it into an exit code."""


def install_marks(patcher, marks: list, stop_at_compute: bool) -> None:
    import lfmhd.cli

    def marked(name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            if stop_at_compute and name in COMPUTE_ENTRIES:
                marks.append([name, start, start])
                raise StopAtCompute
            try:
                return func(*args, **kwargs)
            finally:
                marks.append([name, start, time.monotonic()])
        return wrapper

    for name in MARKED:
        patcher.set(lfmhd.cli, name, marked(name, getattr(lfmhd.cli, name)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--stop-at-compute", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import lfmhd.cli

    from spans import Patcher, Tracer

    patcher = Patcher()
    tracer = None
    if args.trace:
        import layers

        tracer = Tracer()
        layers.install(patcher, tracer)
    marks: list = []
    install_marks(patcher, marks, args.stop_at_compute)
    try:
        code = lfmhd.cli.main(command)
    except StopAtCompute:
        code = 0
    end = time.monotonic()
    record = {"marks": marks, "end": end, "exit_code": code,
              "trace": tracer.snapshot() if tracer else None}
    with open(args.marks, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
