"""Command-line front end.

``COMMANDS`` names each subcommand with its help text and handler, and
``FAILURES`` maps each refusal to its exit code and stderr label.

All tables are CSV with a leading ``#`` header line naming units and the
time-derivative truncation order; floats are printed with ``%.17g`` so
identical runs produce bitwise-identical artifacts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, read_trajectory, write_state, write_trajectory
from .config import ConfigError, RunConfig, load_config
from .diagnostics import ENERGY_COLUMNS, EnergyReport, energy_functionals, lemma_suite
from .geometry import DegenerateMapError
from .grid import Grid
from .linear_step import BreakdownError, CflError, DiffusionSolveError
from .picard import IterationLog, NonContractionError, kappa_sweep, solve_nonlinear_kappa
from .state import EquationOfState, InitialDataError, make_initial_data

EXIT_CONFIG = 2
EXIT_CFL = 3
EXIT_NON_CONTRACTION = 4
EXIT_DEGENERATE = 5
EXIT_CHECKPOINT = 6
EXIT_NOT_CONVERGED = 7  # Picard hit max_iter; only iteration.csv is written
EXIT_DIFFUSION = 8
EXIT_BREAKDOWN = 9
EXIT_OUTPUT = 10

_UNITS_NOTE = "units: dimensionless reference-slab quantities"


class OutputError(Exception):
    """The output directory or an artifact in it cannot be created or written."""


# (exception classes, exit code, stderr label), first match wins; any other
# exception exits 1 with ``error: <type>: <message>``
FAILURES = (
    ((ConfigError, InitialDataError), EXIT_CONFIG, "config error"),
    ((CflError,), EXIT_CFL, "CFL violation"),
    ((NonContractionError,), EXIT_NON_CONTRACTION, "non-contraction"),
    ((DegenerateMapError,), EXIT_DEGENERATE, "degenerate map"),
    ((CheckpointError,), EXIT_CHECKPOINT, "checkpoint error"),
    ((DiffusionSolveError,), EXIT_DIFFUSION, "diffusion solve stalled"),
    ((BreakdownError,), EXIT_BREAKDOWN, "numerical breakdown"),
    ((OutputError,), EXIT_OUTPUT, "output error"),
)


def _write(path: Path, write, *args, **kwargs) -> None:
    """Call ``write(path, *args, **kwargs)``; an ``OSError`` becomes an
    :class:`OutputError` that names the path."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from None


def _output_directory(directory) -> Path:
    out = Path(directory)
    _write(out, Path.mkdir, parents=True, exist_ok=True)
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path: Path, comment: str, header: list[str], rows) -> None:
    lines = [f"# {comment}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(path, Path.write_text, "\n".join(lines) + "\n")


def _print_table(title: str, pairs: list[tuple[str, str]]) -> None:
    print(title)
    width = max(len(k) for k, _ in pairs)
    for key, val in pairs:
        print(f"  {key.ljust(width)}  {val}")


# ----------------------------------------------------------------------
# shared pipeline pieces


def _build_problem(cfg: RunConfig):
    grid = Grid(cfg.grid)
    eos = EquationOfState(diffusivity=cfg.physics.diffusivity)
    init = make_initial_data(grid, cfg.data.preset, amplitude=cfg.data.amplitude,
                             seed=cfg.data.seed, eos=eos, c0=cfg.physics.c0)
    return grid, init


def _write_energy_csv(out: Path, report: EnergyReport) -> None:
    rows = zip(*(report.columns[name] for name in ENERGY_COLUMNS))
    _write_csv(
        out / "energy.csv",
        f"{_UNITS_NOTE}; truncation order m = {report.truncation_order}; "
        f"kappa = {_fmt(report.kappa)}; dt = {_fmt(report.dt)}",
        list(ENERGY_COLUMNS),
        rows,
    )


def _write_iteration_csv(out: Path, log: IterationLog, order: int) -> None:
    rows = zip(range(1, len(log.d_history) + 1), log.d_history, [None, *log.ratios()])
    _write_csv(
        out / "iteration.csv",
        f"{_UNITS_NOTE}; truncation order m = {order}; tol = {_fmt(log.tol)}; "
        f"stop = {log.stop_reason}; self_check = {_fmt(log.self_check)}",
        ["iterate", "difference_energy", "ratio"],
        rows,
    )


def _write_residuals_csv(out: Path, cfg: RunConfig, report: EnergyReport) -> None:
    cons = report.constraint_rows(c0=cfg.physics.c0)
    res = report.residuals
    header = ["t", "res_eta", "res_v", "res_q", "res_b", "wave_residual",
              "div_b", "taylor_margin", "small_geometry", "taylor_ok", "small_ok"]
    rows = ([c["t"], res["eta"][j], res["v"][j], res["q"][j], res["b"][j], res["wave"][j],
             c["div_b"], c["taylor_margin"], c["small_geometry"], c["taylor_ok"], c["small_ok"]]
            for j, c in enumerate(cons))
    _write_csv(
        out / "residuals.csv",
        f"{_UNITS_NOTE}; truncation order m = {cfg.diagnostics.max_time_order}; "
        "residuals are L2 over the slab",
        header,
        rows,
    )


def _solver_options(cfg: RunConfig) -> dict:
    """The solver keywords of the config, shared by one solve and the sweep."""
    s = cfg.scheme
    return dict(T=s.T, dt=s.dt, tol=s.picard_tol, max_iter=s.picard_max_iter,
                truncation_order=cfg.diagnostics.max_time_order, diffusion_tol=s.diffusion_tol)


def _solve_from_config(cfg: RunConfig):
    grid, init = _build_problem(cfg)
    return solve_nonlinear_kappa(grid, init, kappa=cfg.scheme.kappa, **_solver_options(cfg))


def _not_converged(log: IterationLog) -> int:
    print(f"not converged: {log.stop_reason}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


# ----------------------------------------------------------------------
# subcommands


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _output_directory(cfg.outputs.directory)
    traj, log = _solve_from_config(cfg)
    order = cfg.diagnostics.max_time_order
    _write_iteration_csv(out, log, order)
    if not log.converged:
        return _not_converged(log)
    # one pass over the nodes fills both tables
    report = energy_functionals(traj, order=order, residuals=True)
    _write_energy_csv(out, report)
    _write_residuals_csv(out, cfg, report)
    if cfg.outputs.checkpoint:
        _write(out / "trajectory.ckpt", write_trajectory, traj)
        _write(out / "final_state.ckpt", write_state, traj.final)
    _print_table(f"run: {cfg.data.preset} preset, kappa = {cfg.scheme.kappa}", [
        ("nodes", str(len(traj))),
        ("picard iterates", str(log.iterations)),
        ("converged", str(log.converged)),
        ("final difference energy", _fmt(log.d_history[-1])),
        ("self-consistency check", _fmt(log.self_check)),
        ("final physical energy", _fmt(report.columns["E_phys"][-1])),
        ("min Taylor margin", _fmt(report.columns["taylor_margin"].min())),
        ("max geometry gauge", _fmt(report.columns["small_geometry"].max())),
        ("artifacts", str(out)),
    ])
    return 0


def _cmd_picard_trace(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _output_directory(cfg.outputs.directory)
    traj, log = _solve_from_config(cfg)
    _write_iteration_csv(out, log, cfg.diagnostics.max_time_order)
    print(f"picard-trace: {cfg.data.preset} preset, kappa = {cfg.scheme.kappa}, "
          f"T = {cfg.scheme.T}, dt = {cfg.scheme.dt}")
    print("  iterate  difference_energy      ratio")
    for i, (d, r) in enumerate(zip(log.d_history, [None, *log.ratios()]), 1):
        print(f"  {i:7d}  {d:.11e}  {'' if r is None else f'{r:.6f}'}")
    print(f"  stop: {log.stop_reason}")
    return 0 if log.converged else _not_converged(log)


def _cmd_kappa_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if len(cfg.scheme.kappa_list) < 2:
        raise ConfigError("kappa-sweep needs scheme.kappa_list with at least two values")
    out = _output_directory(cfg.outputs.directory)
    grid, init = _build_problem(cfg)
    traj, report = kappa_sweep(grid, init, kappas=cfg.scheme.kappa_list, **_solver_options(cfg))
    _write_csv(
        out / "sweep.csv",
        f"{_UNITS_NOTE}; truncation order m = {cfg.diagnostics.max_time_order}; "
        "delta = difference energy sup between consecutive kappa runs",
        ["kappa", "iterations", "d_final", "psi_max", "delta_to_prev"],
        # the first member has no predecessor: its delta cell stays empty
        ([row["kappa"], row["iterations"], row["d_final"], row["psi_max"], delta]
         for row, delta in zip(report.rows(), [None, *report.deltas])),
    )
    if not all(lg.converged for lg in report.logs):
        for kappa, lg in zip(report.kappas, report.logs):
            if not lg.converged:
                print(f"not converged: kappa = {kappa}: {lg.stop_reason}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    energy = energy_functionals(traj, order=cfg.diagnostics.max_time_order)
    _write_energy_csv(out, energy)
    if cfg.outputs.checkpoint:
        _write(out / "trajectory.ckpt", write_trajectory, traj)
    deltas = report.deltas
    decreasing = all(a > b for a, b in zip(deltas, deltas[1:]))
    _print_table("kappa-sweep", [
        ("kappas", " ".join(_fmt(k) for k in report.kappas)),
        ("deltas", " ".join(_fmt(d) for d in deltas)),
        ("deltas strictly decreasing",
         str(decreasing) if len(deltas) >= 2 else "n/a (fewer than two deltas)"),
        ("max correction norm (finest)", _fmt(report.psi_max[-1])),
        ("artifacts", str(out)),
    ])
    return 0


def _cmd_check_lemmas(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _output_directory(cfg.outputs.directory)
    grid = Grid(cfg.grid)
    report = lemma_suite(grid, seed=cfg.data.seed, kappa=cfg.scheme.kappa)
    _write_csv(
        out / "lemmas.csv",
        f"{_UNITS_NOTE}; empirical inequality constants; "
        f"seed = {cfg.data.seed}; kappa = {_fmt(cfg.scheme.kappa)}",
        ["check", "label", "value"],
        ([r["check"], r["label"], r["value"]] for r in report.rows),
    )
    pairs = []
    for check in ("hodge", "elliptic", "trace_pin", "trace_ratio"):
        vals = report.values(check)
        pairs.append((check, f"max {max(vals):.6g}  min {min(vals):.6g}"))
    _print_table(f"check-lemmas on {grid.spec.n1}x{grid.spec.n2}x{grid.spec.n3 + 1}", pairs)
    return 0


def _cmd_energy_report(args: argparse.Namespace) -> int:
    path, order = args.checkpoint, args.order
    traj = read_trajectory(path)
    if len(traj) < order + 1:
        raise CheckpointError(
            f"{path}: {len(traj)} nodes; an order-{order} time derivative "
            f"needs at least {order + 1}"
        )
    out = _output_directory(args.out)
    report = energy_functionals(traj, order=order)
    _write_energy_csv(out, report)
    _print_table(f"energy-report: {path}", [
        ("nodes", str(len(traj))),
        ("kappa", _fmt(traj.kappa)),
        ("dt", _fmt(traj.dt)),
        ("final E_total", _fmt(report.columns["E_total"][-1])),
        ("final E_phys", _fmt(report.columns["E_phys"][-1])),
        ("max |balance residual|", _fmt(np.abs(report.columns["balance_residual"]).max())),
        ("artifacts", str(out)),
    ])
    return 0


# ----------------------------------------------------------------------


# subcommand -> (help text, handler); the handler takes the parsed command line
COMMANDS = {
    "run": ("solve one nonlinear fixed point and write all artifacts", _cmd_run),
    "picard-trace": ("solve and print the per-iterate contraction trace", _cmd_picard_trace),
    "kappa-sweep": ("run the descending smoothing-scale cascade", _cmd_kappa_sweep),
    "check-lemmas": ("measure inequality constants on random corpora", _cmd_check_lemmas),
    "energy-report": ("tabulate energies from a trajectory checkpoint", _cmd_energy_report),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfmhd",
        description="free-boundary resistive MHD laboratory in flow-map form",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if name == "energy-report":
            p.add_argument("checkpoint", help="path to a trajectory checkpoint")
            p.add_argument("--out", default=".", help="output directory (default: current)")
            p.add_argument("--order", type=int, default=2, choices=(1, 2),
                           help="time-derivative truncation order")
        else:
            p.add_argument("config", help="path to a key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except Exception as exc:
        for classes, code, label in FAILURES:
            if isinstance(exc, classes):
                break
        else:
            code, label = 1, f"error: {type(exc).__name__}"
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
