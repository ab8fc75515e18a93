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

from .checkpoint import CheckpointError, read_trajectory, write_trajectory
from .config import ConfigError, RunConfig, load_config
from .diagnostics import (ENERGY_COLUMNS, RESIDUAL_COLUMNS, SMALL_GEOMETRY, TRUNCATION_ORDER,
                          constraint_rows, energy_functionals, lemma_suite)
from .geometry import DegenerateMapError
from .grid import Grid
from .linear_step import BreakdownError, CflError, DiffusionSolveError, Trajectory
from .picard import (SWEEP_COLUMNS, IterationLog, NonContractionError, kappa_sweep,
                     solve_nonlinear_kappa)
from .state import EquationOfState, InitialDataError, make_initial_data

EXIT_CONFIG = 2
EXIT_CFL = 3
EXIT_NON_CONTRACTION = 4
EXIT_DEGENERATE = 5
EXIT_CHECKPOINT = 6
EXIT_NOT_CONVERGED = 7  # Picard hit max_iter; only iteration.csv or sweep.csv is written
EXIT_DIFFUSION = 8
EXIT_BREAKDOWN = 9
EXIT_OUTPUT = 10
EXIT_MEMORY = 11

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
    ((MemoryError,), EXIT_MEMORY, "out of memory"),
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
    """Write one table; a cell that is a float but not finite is refused as a
    :class:`BreakdownError` before the file is opened, and None is empty."""
    lines = [f"# {comment}", ",".join(header)]
    for i, row in enumerate(rows, start=1):
        for name, value in zip(header, row):
            if value is not None and not isinstance(value, str) and not np.isfinite(value):
                raise BreakdownError(f"{path}: column {name} of row {i} is {_fmt(value)}, "
                                     "not a finite number; the table is not written")
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
    return make_initial_data(grid, cfg.data.preset, amplitude=cfg.data.amplitude,
                             seed=cfg.data.seed, eos=eos, c0=cfg.physics.c0)


def _write_energy_csv(out: Path, traj: Trajectory, table: dict) -> None:
    rows = zip(*(table[name] for name in ENERGY_COLUMNS))
    _write_csv(
        out / "energy.csv",
        f"{_UNITS_NOTE}; truncation order m = {TRUNCATION_ORDER}; "
        f"kappa = {_fmt(traj.kappa)}; dt = {_fmt(traj.dt)}",
        list(ENERGY_COLUMNS),
        rows,
    )


def _write_iteration_csv(out: Path, log: IterationLog) -> None:
    rows = zip(range(1, len(log.d_history) + 1), log.d_history, [None, *log.ratios()])
    _write_csv(
        out / "iteration.csv",
        f"{_UNITS_NOTE}; truncation order m = {TRUNCATION_ORDER}; tol = {_fmt(log.tol)}; "
        f"stop = {log.stop_reason}; self_check = {_fmt(log.self_check)}",
        ["iterate", "difference_energy", "ratio"],
        rows,
    )


def _write_residuals_csv(out: Path, cfg: RunConfig, table: dict) -> None:
    cons = constraint_rows(table, cfg.physics.c0)
    header = ["t", *RESIDUAL_COLUMNS,
              "div_b", "taylor_margin", "small_geometry", "taylor_ok", "small_ok"]
    rows = ([c["t"], *(table[name][j] for name in RESIDUAL_COLUMNS),
             c["div_b"], c["taylor_margin"], c["small_geometry"], c["taylor_ok"], c["small_ok"]]
            for j, c in enumerate(cons))
    _write_csv(
        out / "residuals.csv",
        f"{_UNITS_NOTE}; truncation order m = {TRUNCATION_ORDER}; "
        "residuals are L2 over the slab",
        header,
        rows,
    )


def _say_where_the_regime_ends(table: dict, c0: float) -> None:
    """One stderr line at the first node that ``constraint_rows`` flags
    outside the a priori regime; the exit code does not change."""
    for j, row in enumerate(constraint_rows(table, c0)):
        failing = [text for ok, text in (
            (row["taylor_ok"], f"Taylor margin {row['taylor_margin']:.4g} < c0 / 2 = {0.5 * c0:.4g}"),
            (row["small_ok"], f"geometry gauge {row['small_geometry']:.4g} > {SMALL_GEOMETRY:.4g}"),
        ) if not ok]
        if failing:
            print(f"outside the a priori regime from t = {row['t']:.6g} (node {j}): "
                  + "; ".join(failing), file=sys.stderr)
            return


def _solver_options(cfg: RunConfig) -> dict:
    """The solver keywords of the config, shared by one solve and the sweep."""
    s = cfg.scheme
    return dict(T=s.T, dt=s.dt, tol=s.picard_tol, max_iter=s.picard_max_iter,
                diffusion_tol=s.diffusion_tol)


# ----------------------------------------------------------------------
# subcommands


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _output_directory(cfg.outputs.directory)
    init = _build_problem(cfg)
    traj, log = solve_nonlinear_kappa(init, kappa=cfg.scheme.kappa, **_solver_options(cfg))
    _write_iteration_csv(out, log)
    if not log.converged:
        print(f"not converged: {log.stop_reason}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    # one pass over the nodes fills both tables
    table = energy_functionals(traj, residuals=True)
    _write_energy_csv(out, traj, table)
    _write_residuals_csv(out, cfg, table)
    _say_where_the_regime_ends(table, cfg.physics.c0)
    if cfg.outputs.checkpoint:
        _write(out / "trajectory.ckpt", write_trajectory, traj)
    _print_table(f"run: {cfg.data.preset} preset, kappa = {cfg.scheme.kappa}", [
        ("nodes", str(len(traj))),
        ("picard iterates", str(log.iterations)),
        ("converged", str(log.converged)),
        ("final difference energy", _fmt(log.d_history[-1])),
        ("self-consistency check", _fmt(log.self_check)),
        ("final physical energy", _fmt(table["E_phys"][-1])),
        ("min Taylor margin", _fmt(table["taylor_margin"].min())),
        ("max geometry gauge", _fmt(table["small_geometry"].max())),
        ("artifacts", str(out)),
    ])
    return 0


def _cmd_kappa_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if len(cfg.scheme.kappa_list) < 2:
        raise ConfigError("kappa-sweep needs scheme.kappa_list with at least two values")
    out = _output_directory(cfg.outputs.directory)
    init = _build_problem(cfg)
    traj, log, rows = kappa_sweep(init, kappas=cfg.scheme.kappa_list, **_solver_options(cfg))
    _write_csv(
        out / "sweep.csv",
        f"{_UNITS_NOTE}; truncation order m = {TRUNCATION_ORDER}; "
        "delta = difference energy sup between consecutive kappa runs",
        list(SWEEP_COLUMNS),
        # the first member has no predecessor: its delta cell stays empty
        ([row[name] for name in SWEEP_COLUMNS] for row in rows),
    )
    if not log.converged:  # the cascade stopped at this member
        print(f"not converged: kappa = {rows[-1]['kappa']}: {log.stop_reason}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    energy = energy_functionals(traj)
    _write_energy_csv(out, traj, energy)
    _say_where_the_regime_ends(energy, cfg.physics.c0)
    if cfg.outputs.checkpoint:
        _write(out / "trajectory.ckpt", write_trajectory, traj)
    deltas = [row["delta_to_prev"] for row in rows[1:]]
    decreasing = all(a > b for a, b in zip(deltas, deltas[1:]))
    _print_table("kappa-sweep", [
        ("kappas", " ".join(_fmt(row["kappa"]) for row in rows)),
        ("deltas", " ".join(_fmt(d) for d in deltas)),
        ("deltas strictly decreasing",
         str(decreasing) if len(deltas) >= 2 else "n/a (fewer than two deltas)"),
        ("max correction norm (finest)", _fmt(rows[-1]["psi_max"])),
        ("artifacts", str(out)),
    ])
    return 0


def _cmd_check_lemmas(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _output_directory(cfg.outputs.directory)
    grid = Grid(cfg.grid)
    rows = lemma_suite(grid, seed=cfg.data.seed, kappa=cfg.scheme.kappa)
    _write_csv(
        out / "lemmas.csv",
        f"{_UNITS_NOTE}; empirical inequality constants; "
        f"seed = {cfg.data.seed}; kappa = {_fmt(cfg.scheme.kappa)}",
        ["check", "label", "value"],
        ([r["check"], r["label"], r["value"]] for r in rows),
    )
    pairs = []
    for check in dict.fromkeys(r["check"] for r in rows):
        vals = [r["value"] for r in rows if r["check"] == check]
        pairs.append((check, f"max {max(vals):.6g}  min {min(vals):.6g}"))
    _print_table(f"check-lemmas on {grid.spec.n1}x{grid.spec.n2}x{grid.spec.n3 + 1}", pairs)
    return 0


def _cmd_energy_report(args: argparse.Namespace) -> int:
    path = args.checkpoint
    traj = read_trajectory(path)
    if len(traj) < 3:
        raise CheckpointError(f"{path}: {len(traj)} nodes; the order-{TRUNCATION_ORDER} "
                              "time derivatives of the energies need at least 3")
    out = _output_directory(args.out)
    table = energy_functionals(traj)
    _write_energy_csv(out, traj, table)
    _print_table(f"energy-report: {path}", [
        ("nodes", str(len(traj))),
        ("kappa", _fmt(traj.kappa)),
        ("dt", _fmt(traj.dt)),
        ("final E_total", _fmt(table["E_total"][-1])),
        ("final E_phys", _fmt(table["E_phys"][-1])),
        ("max |balance residual|", _fmt(np.abs(table["balance_residual"]).max())),
        ("artifacts", str(out)),
    ])
    return 0


# ----------------------------------------------------------------------


# subcommand -> (help text, handler); the handler takes the parsed command line
COMMANDS = {
    "run": ("solve one nonlinear fixed point and write all artifacts", _cmd_run),
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
