#!/usr/bin/env python3
"""Benchmark of the lfmhd command line, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory): ``tube32-run``,
``quiescent16-sweep`` and ``report32``.  Commands run closed-loop, one
at a time, each in a fresh process on the sources under ``src/``, with
BLAS pinned to one thread and ``LFMHD_THREADS`` unset.

``--trace 0`` repeats the workload's command within ``--seconds``
seconds (at least once) and reports the median of each end-to-end
metric; set-up is also probed alone until there are nine set-up samples.
``--trace 1`` runs the command once untraced and twice with every layer
span installed, and reports the per-layer metrics of the traced pair.

Every command is checked: exit code 0, key outputs within the committed
reference (``reference.json``), and CSVs byte-identical to the first
command of the run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import layers
from child import COMPUTE_ENTRIES
from workloads import WORKLOADS, Workload, check_outputs, command_args, key_outputs, prepare_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# one BLAS thread is the single-threaded baseline; the 32^3 artifacts
# differ in their last digits between one and two OpenBLAS threads
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_SETUP_SAMPLES = 9
COMMAND_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0      # no command starts that would end later in the run

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "artifacts_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB",
}


@dataclass
class Command:
    """One child process and what it measured."""

    exit_code: int | None = None
    failure: str = ""
    spawned: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.failure


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("LFMHD_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argv: list[str], marks: Path, log: Path, *, trace: bool = False,
           stop_at_compute: bool = False) -> tuple[Command, dict | None]:
    """Run one child to completion; returns the command and its marks."""
    cmd = [sys.executable, str(HERE / "child.py"), "--marks", str(marks)]
    cmd += ["--trace"] * trace + ["--stop-at-compute"] * stop_at_compute
    cmd += ["--"] + argv
    command = Command()
    marks.unlink(missing_ok=True)
    with log.open("w") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = command.exit_code = os.waitstatus_to_exitcode(status)
    if command.exit_code != 0:
        command.failure = f"exit code {command.exit_code}"
        return command, None
    try:
        record = json.loads(marks.read_text())
    except (OSError, ValueError) as exc:
        command.failure = f"no phase marks: {exc}"
        return command, None
    command.spawned = spawned
    command.phases = {
        "wall_s": ended - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
    }
    command.trace = record["trace"]
    return command, record


def phase_times(workload: Workload, spawned: float, record: dict) -> dict[str, float]:
    """setup_s, solve_s and artifacts_s from the child's marks."""
    marks = {name: (start, end) for name, start, end in record["marks"]}
    entry = min(marks[name][0] for name in COMPUTE_ENTRIES if name in marks)
    solve_start, solve_end = marks[workload.solve_phase]
    artifacts_from = marks["read_trajectory"][0] if "read_trajectory" in marks else solve_end
    return {
        "setup_s": entry - spawned,
        "solve_s": solve_end - solve_start,
        "artifacts_s": record["end"] - artifacts_from,
    }


def csv_digests(workload: Workload, out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in workload.csv_files}


class Session:
    """Runs a workload's commands for one seed and checks each of them."""

    def __init__(self, workload: Workload, seed: int, work: Path, reference: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.inputs = work / "inputs"
        self.commands: list[Command] = []
        self.probes: list[Command] = []
        self.launches: list[Command] = []    # every child started, for fail_ratio
        self.first_digests: dict[str, str] | None = None
        prepare_inputs(workload, seed, self.inputs)

    def _argv(self, tag: str) -> tuple[list[str], Path]:
        out = self.work / tag
        return command_args(self.workload, self.seed, self.inputs, out), out

    def run_command(self, trace: bool = False) -> Command:
        tag = f"cmd{len(self.commands) + 1}"
        argv, out = self._argv(tag)
        command, record = launch(argv, self.work / f"{tag}.marks.json",
                                 self.work / f"{tag}.log", trace=trace)
        self.commands.append(command)
        self.launches.append(command)
        if command.ok:
            self._check(command, record, out)
        if command.ok:    # still, after the output checks
            print(f"# {tag}{' traced' * trace}: " + ", ".join(
                f"{k} {v:.4f}" for k, v in command.phases.items()))
        else:
            log = (self.work / f"{tag}.log").read_text()[-2000:]
            print(f"# {tag} FAILED ({command.failure}); output tail:\n# "
                  + log.replace("\n", "\n# "))
        shutil.rmtree(out, ignore_errors=True)
        return command

    def _check(self, command: Command, record: dict, out: Path) -> None:
        try:
            command.phases.update(phase_times(self.workload, command.spawned, record))
            got = key_outputs(self.workload, out)
            digests = csv_digests(self.workload, out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            command.failure = f"unreadable outputs: {exc!r}"
            return
        misses = check_outputs(got, self.reference)
        if misses:
            command.failure = "key outputs off reference: " + "; ".join(misses)
        elif self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            differ = [n for n in digests if digests[n] != self.first_digests[n]]
            command.failure = f"CSVs not byte-identical to the first command: {differ}"

    def probe_setup(self) -> Command:
        tag = f"probe{len(self.launches) + 1}"
        argv, _ = self._argv(tag)
        command, record = launch(argv, self.work / f"{tag}.marks.json",
                                 self.work / f"{tag}.log", stop_at_compute=True)
        if command.ok:
            entry = min(start for name, start, _ in record["marks"] if name in COMPUTE_ENTRIES)
            command.phases["setup_s"] = entry - command.spawned
            self.probes.append(command)
        self.launches.append(command)
        return command

    def warm_up(self) -> None:
        """Fill the page and bytecode caches before anything is timed."""
        if self.probe_setup().ok:
            self.probes.pop()

    @property
    def attempted(self) -> int:
        return len(self.launches)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.launches)


def end_to_end(session: Session, commands: list[Command]) -> dict[str, float]:
    """Median of each end-to-end metric over the successful commands."""
    ok = [c for c in commands if c.ok]
    if not ok:
        return {}
    out = {name: statistics.median(c.phases[name] for c in ok) for name in END_TO_END_UNITS}
    setups = [c.phases["setup_s"] for c in ok + session.probes]
    out["setup_s"] = statistics.median(setups)
    return out


def measure(session: Session, seconds: float, started: float) -> dict:
    """Repeat the command while the next one, taken to last as long as the
    last one did, would end within ``seconds``; always run it once."""
    begin = time.monotonic()
    while True:
        expected = session.run_command().phases.get("wall_s", 0.0)
        now = time.monotonic()
        if now - begin + expected > seconds or now - started + expected > RUN_BUDGET_S:
            break
    while sum(c.ok for c in session.commands + session.probes) < MIN_SETUP_SAMPLES:
        if not session.probe_setup().ok:
            break
    metrics = end_to_end(session, session.commands)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def measure_traced(session: Session) -> tuple[dict, list[str]]:
    problems: list[str] = []
    untraced = session.run_command()
    traced = [session.run_command(trace=True) for _ in range(2)]
    if not untraced.ok or not all(c.ok for c in traced):
        return {}, problems
    print("# untraced end-to-end metrics of this run:")
    for name, value in end_to_end(session, [untraced]).items():
        print(f"#   {name} = {value!r} {END_TO_END_UNITS[name]}")
    per_command = [layers.metrics(c.trace) for c in traced]
    for name in layers.REPEATING_COUNTS:
        first, second = (m[name][0] for m in per_command)
        if first != second:
            problems.append(f"{name} differs between two traced runs: {first} vs {second}")
    metrics = {}
    for name, (value, unit) in per_command[0].items():
        values = [m[name][0] for m in per_command]
        metrics[name] = (statistics.median(values) if unit == "s" else value, unit)
    overhead = statistics.median(c.phases["wall_s"] for c in traced) - untraced.phases["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    report_predictions(session.workload, traced[0].trace, metrics)
    return metrics, problems


def report_predictions(workload: Workload, trace: dict, metrics: dict) -> None:
    """Print the baseline predictions the traced run can confirm."""
    krylov = metrics["linear_step.diffusion_solve.krylov_iters"][0]
    if workload.name == "tube32-run":
        print(f"# prediction krylov_iters > 0: {'holds' if krylov > 0 else 'FAILS'} ({krylov:g})")
    elif workload.name == "quiescent16-sweep":
        print(f"# prediction krylov_iters == 0: {'holds' if krylov == 0 else 'FAILS'} ({krylov:g})")
    else:
        seen = [n for n in layers.SOLVER_LAYERS if trace["spans"].get(n, {}).get("calls")]
        print(f"# prediction no solver-layer span: {'FAILS ' + str(seen) if seen else 'holds'}")


def environment() -> dict:
    """The settings a result depends on, recorded with every result."""
    init = (SRC / "lfmhd" / "__init__.py").read_text()
    version = re.search(r'__version__ = "([^"]+)"', init)
    digest = hashlib.sha256()
    for path in sorted((SRC / "lfmhd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "threads": THREAD_ENV,
        "LFMHD_THREADS": "unset (serial sweep)",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "lfmhd": version.group(1) if version else "unknown",
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lfmhd" / "cli.py").is_file():
        print(f"error: no lfmhd sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[workload.name]
    print(f"# workload {workload.name}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}; closed loop, one command at a time")
    print("# environment " + json.dumps(environment(), sort_keys=True))

    # a terminated run still stops and reaps its child (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        session = Session(workload, args.seed, work, reference)
        session.warm_up()
        if args.trace:
            metrics, problems = measure_traced(session)
        else:
            metrics, problems = measure(session, args.seconds, started), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another run is still using it

    attempted, failed = session.attempted, session.failed
    print(f"# commands: {len(session.commands)} measured, {len(session.probes)} set-up probes; "
          f"fail_ratio = {failed}/{attempted} = {failed / attempted:.3f}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    correct = failed == 0 and not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
