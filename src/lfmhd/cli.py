"""Command-line front end.

Subcommands
    run            solve one nonlinear fixed point, write the full artifact set
    picard-trace   same solve, print and record the per-iterate contraction trace
    kappa-sweep    run the descending smoothing-scale cascade from the config list
    check-lemmas   measure the inequality constants on random corpora
    energy-report  tabulate energy functionals from a trajectory checkpoint

All tables are CSV with a leading ``#`` header line naming units and the
time-derivative truncation order; floats are printed with ``%.17g`` so
identical runs produce bitwise-identical artifacts.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, read_trajectory, write_state, write_trajectory
from .config import ConfigError, RunConfig, load_config
from .diagnostics import (
    ENERGY_COLUMNS,
    EnergyReport,
    LemmaReport,
    energy_functionals,
    lemma_suite,
)
from .geometry import DegenerateMapError
from .grid import Grid, GridSpec
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


@contextmanager
def _writing(path: Path):
    """Turn an ``OSError`` while creating or writing ``path`` into an
    :class:`OutputError` that names the path."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from None


def _output_directory(directory) -> Path:
    out = Path(directory)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
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
    with _writing(path):
        path.write_text("\n".join(lines) + "\n")


def _print_table(title: str, pairs: list[tuple[str, str]]) -> None:
    print(title)
    width = max(len(k) for k, _ in pairs)
    for key, val in pairs:
        print(f"  {key.ljust(width)}  {val}")


# ----------------------------------------------------------------------
# shared pipeline pieces


def _build_problem(cfg: RunConfig):
    grid = Grid(GridSpec(cfg.grid.n1, cfg.grid.n2, cfg.grid.n3,
                         dealias_fraction=cfg.grid.dealias_fraction))
    eos = EquationOfState(diffusivity=cfg.physics.diffusivity)
    init = make_initial_data(grid, cfg.data.preset, amplitude=cfg.data.amplitude,
                             seed=cfg.data.seed, eos=eos, c0=cfg.physics.c0)
    return grid, init


def _write_energy_csv(out: Path, report: EnergyReport, stride: int) -> None:
    n = len(report.columns["t"])
    rows = (
        [report.columns[name][j] for name in ENERGY_COLUMNS]
        for j in range(0, n, stride)
    )
    _write_csv(
        out / "energy.csv",
        f"{_UNITS_NOTE}; truncation order m = {report.truncation_order}; "
        f"kappa = {_fmt(report.kappa)}; dt = {_fmt(report.dt)}",
        list(ENERGY_COLUMNS),
        rows,
    )


def _write_iteration_csv(out: Path, log: IterationLog, order: int) -> None:
    ratios = [""] + [_fmt(r) for r in log.ratios()]
    rows = []
    for i, d in enumerate(log.d_history):
        rows.append([i + 1, _fmt(d), ratios[i]])
    _write_csv(
        out / "iteration.csv",
        f"{_UNITS_NOTE}; truncation order m = {order}; tol = {_fmt(log.tol)}; "
        f"stop = {log.stop_reason}; self_check = {_fmt(log.self_check)}",
        ["iterate", "difference_energy", "ratio"],
        rows,
    )


def _write_residuals_csv(out: Path, cfg: RunConfig, stride: int, report: EnergyReport) -> None:
    cons = report.constraint_rows(c0=cfg.physics.c0, epsilon=cfg.physics.epsilon)
    res = report.residuals
    header = ["t", "res_eta", "res_v", "res_q", "res_b", "wave_residual",
              "div_b", "taylor_margin", "small_geometry", "taylor_ok", "small_ok"]
    rows = []
    for j in range(0, len(cons), stride):
        c = cons[j]
        rows.append([
            c["t"], res["eta"][j], res["v"][j], res["q"][j], res["b"][j],
            res["wave"][j], c["div_b"], c["taylor_margin"], c["small_geometry"],
            c["taylor_ok"], c["small_ok"],
        ])
    _write_csv(
        out / "residuals.csv",
        f"{_UNITS_NOTE}; truncation order m = {cfg.diagnostics.max_time_order}; "
        "residuals are L2 over the slab",
        header,
        rows,
    )


def _write_lemmas_csv(out: Path, grid: Grid, cfg: RunConfig) -> LemmaReport:
    report = lemma_suite(grid, seed=cfg.data.seed, kappa=cfg.scheme.kappa)
    _write_csv(
        out / "lemmas.csv",
        f"{_UNITS_NOTE}; empirical inequality constants; "
        f"seed = {cfg.data.seed}; kappa = {_fmt(cfg.scheme.kappa)}",
        ["check", "label", "value"],
        ([r["check"], r["label"], r["value"]] for r in report.rows),
    )
    return report


def _solve_from_config(cfg: RunConfig):
    grid, init = _build_problem(cfg)
    s = cfg.scheme
    return solve_nonlinear_kappa(
        grid, init, kappa=s.kappa, T=s.T, dt=s.dt, tol=s.picard_tol,
        max_iter=s.picard_max_iter, truncation_order=cfg.diagnostics.max_time_order,
        cfl_safety=s.cfl_safety, diffusion_tol=s.diffusion_tol,
    )


def _not_converged(log: IterationLog) -> int:
    print(f"not converged: {log.stop_reason}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


# ----------------------------------------------------------------------
# subcommands


def _cmd_run(cfg: RunConfig) -> int:
    out = _output_directory(cfg.outputs.directory)
    traj, log = _solve_from_config(cfg)
    order = cfg.diagnostics.max_time_order
    stride = cfg.outputs.snapshot_stride
    _write_iteration_csv(out, log, order)
    if not log.converged:
        return _not_converged(log)
    # one pass over the nodes fills both tables
    report = energy_functionals(traj, order=order, residuals=True)
    _write_energy_csv(out, report, stride)
    _write_residuals_csv(out, cfg, stride, report)
    if cfg.outputs.checkpoint:
        with _writing(out / "trajectory.ckpt"):
            write_trajectory(out / "trajectory.ckpt", traj)
        with _writing(out / "final_state.ckpt"):
            write_state(out / "final_state.ckpt", traj.final)
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


def _cmd_picard_trace(cfg: RunConfig) -> int:
    out = _output_directory(cfg.outputs.directory)
    traj, log = _solve_from_config(cfg)
    _write_iteration_csv(out, log, cfg.diagnostics.max_time_order)
    print(f"picard-trace: {cfg.data.preset} preset, kappa = {cfg.scheme.kappa}, "
          f"T = {cfg.scheme.T}, dt = {cfg.scheme.dt}")
    print("  iterate  difference_energy      ratio")
    ratios = [None] + list(log.ratios())
    for i, d in enumerate(log.d_history):
        r = "" if ratios[i] is None else f"{ratios[i]:.6f}"
        print(f"  {i + 1:7d}  {d:.11e}  {r}")
    print(f"  stop: {log.stop_reason}")
    return 0 if log.converged else _not_converged(log)


def _cmd_kappa_sweep(cfg: RunConfig) -> int:
    if len(cfg.scheme.kappa_list) < 2:
        raise ConfigError("kappa-sweep needs scheme.kappa_list with at least two values")
    out = _output_directory(cfg.outputs.directory)
    grid, init = _build_problem(cfg)
    s = cfg.scheme
    traj, report = kappa_sweep(
        grid, init, kappas=s.kappa_list, T=s.T, dt=s.dt, tol=s.picard_tol,
        max_iter=s.picard_max_iter, truncation_order=cfg.diagnostics.max_time_order,
        cfl_safety=s.cfl_safety, diffusion_tol=s.diffusion_tol,
    )
    header = ["kappa", "iterations", "d_final", "psi_max", "delta_to_prev"]
    rows = []
    for row in report.rows():
        delta = row["delta_to_prev"]
        rows.append([row["kappa"], row["iterations"], row["d_final"],
                     row["psi_max"], "" if np.isnan(delta) else _fmt(delta)])
    _write_csv(
        out / "sweep.csv",
        f"{_UNITS_NOTE}; truncation order m = {cfg.diagnostics.max_time_order}; "
        "delta = difference energy sup between consecutive kappa runs",
        header,
        rows,
    )
    if not all(report.converged):
        for kappa, ok, reason in zip(report.kappas, report.converged, report.stop_reasons):
            if not ok:
                print(f"not converged: kappa = {kappa}: {reason}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    energy = energy_functionals(traj, order=cfg.diagnostics.max_time_order)
    _write_energy_csv(out, energy, cfg.outputs.snapshot_stride)
    if cfg.outputs.checkpoint:
        with _writing(out / "trajectory.ckpt"):
            write_trajectory(out / "trajectory.ckpt", traj)
    deltas = [row["delta_to_prev"] for row in report.rows()
              if not np.isnan(row["delta_to_prev"])]
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


def _cmd_check_lemmas(cfg: RunConfig) -> int:
    out = _output_directory(cfg.outputs.directory)
    grid = Grid(GridSpec(cfg.grid.n1, cfg.grid.n2, cfg.grid.n3,
                         dealias_fraction=cfg.grid.dealias_fraction))
    report = _write_lemmas_csv(out, grid, cfg)
    pairs = []
    for check in ("hodge", "elliptic", "trace_pin", "trace_ratio"):
        vals = report.values(check)
        pairs.append((check, f"max {max(vals):.6g}  min {min(vals):.6g}"))
    _print_table(f"check-lemmas on {grid.spec.n1}x{grid.spec.n2}x{grid.spec.n3 + 1}", pairs)
    return 0


def _cmd_energy_report(path: str, out_dir: str, order: int) -> int:
    traj = read_trajectory(path)
    if len(traj) < order + 1:
        raise CheckpointError(
            f"{path}: {len(traj)} nodes; an order-{order} time derivative "
            f"needs at least {order + 1}"
        )
    out = _output_directory(out_dir)
    report = energy_functionals(traj, order=order)
    _write_energy_csv(out, report, 1)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfmhd",
        description="free-boundary resistive MHD laboratory in flow-map form",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "solve one nonlinear fixed point and write all artifacts"),
        ("picard-trace", "solve and print the per-iterate contraction trace"),
        ("kappa-sweep", "run the descending smoothing-scale cascade"),
        ("check-lemmas", "measure inequality constants on random corpora"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to a key = value config file")
    p = sub.add_parser("energy-report", help="tabulate energies from a trajectory checkpoint")
    p.add_argument("checkpoint", help="path to a trajectory checkpoint")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--order", type=int, default=2, choices=(1, 2),
                   help="time-derivative truncation order")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "energy-report":
            return _cmd_energy_report(args.checkpoint, args.out, args.order)
        cfg = load_config(args.config)
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "picard-trace":
            return _cmd_picard_trace(cfg)
        if args.command == "kappa-sweep":
            return _cmd_kappa_sweep(cfg)
        if args.command == "check-lemmas":
            return _cmd_check_lemmas(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, InitialDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CflError as exc:
        print(f"CFL violation: {exc}", file=sys.stderr)
        return EXIT_CFL
    except NonContractionError as exc:
        print(f"non-contraction: {exc}", file=sys.stderr)
        return EXIT_NON_CONTRACTION
    except DegenerateMapError as exc:
        print(f"degenerate map: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except DiffusionSolveError as exc:
        print(f"diffusion solve stalled: {exc}", file=sys.stderr)
        return EXIT_DIFFUSION
    except BreakdownError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except Exception as exc:  # pragma: no cover - catch-all contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
