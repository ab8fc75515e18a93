"""Picard iteration for the smoothed nonlinear problem, and the kappa sweep.

Each iterate freezes the ring coefficients of the previous trajectory and
re-solves the linearized system from the true initial data.  The first
frozen trajectory is the trivial one (identity map, zero fields), so the
first iterate already carries the data; convergence is measured in the
order-limited difference energy between consecutive iterates, relative to
the size of that first nontrivial step.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .correction import correction_field
from .diagnostics import difference_energy
from .geometry import build_geometry
from .linear_step import (BreakdownError, FrozenCoefficients, Trajectory, advance_linearized,
                          step_count, trivial_trajectory)
from .state import FlowState, admit

log = logging.getLogger(__name__)


class NonContractionError(RuntimeError):
    """Difference energies grew over three consecutive iterates.

    The two-step averaging bound behind the iteration only contracts for
    short enough horizons; the standard remedy is to shrink T.
    """

    def __init__(self, d_history: list[float], T: float):
        self.d_history = list(d_history)
        self.T = T
        super().__init__(
            f"Picard iteration not contracting at T = {T}: difference energies "
            f"increased over three consecutive iterates "
            f"({', '.join(f'{d:.3e}' for d in d_history[-3:])}); retry with smaller T"
        )


@dataclass
class IterationLog:
    """Per-iterate difference energies and the stopping outcome."""

    tol: float
    d_history: list[float] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    self_check: float | None = None
    wall_seconds: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.d_history)

    def ratios(self) -> list[float]:
        out = []
        for prev, cur in zip(self.d_history, self.d_history[1:]):
            out.append(cur / prev if prev > 0.0 else 0.0)
        return out


def _start_geometry(init: FlowState, kappa: float):
    """Node 0's ``(a_s, J_s, psi)`` at ``kappa``, once ``init`` passes
    :func:`admit`.  One geometry build serves all: the compatibility check
    reads its unsmoothed inverse, the Taylor check its smoothed one."""
    cache = build_geometry(init.grid, init.eta, kappa)
    admit(init, cache)
    return cache.a_s, cache.J_s, correction_field(init.grid, init.eta, init.v, cache.a_s, kappa)


def solve_nonlinear_kappa(
    init: FlowState,
    kappa: float,
    T: float,
    dt: float,
    tol: float = 1e-8,
    max_iter: int = 12,
    diffusion_tol: float = 1e-9,
) -> tuple[Trajectory, IterationLog]:
    """Iterate frozen-coefficient solves on ``init``'s grid to a fixed point.

    Stops when the sup-in-time difference energy d_n between consecutive
    iterates falls below tol * (1 + d_1), checked from the second iterate
    on.  Three consecutive increases of d_n raise
    :class:`NonContractionError`, and a non-finite d_n raises
    :class:`BreakdownError` naming the iterate.  A converged trajectory is
    taken through one more iterate and its d_{n+1} stored in the log as
    the self-check, so the fixed point is certified self-consistent; that
    freeze also fills the trajectory's ``geometry``.  T must be a positive
    integer multiple of dt giving at least three nodes (T >= 2 dt), which
    the wave residual and the order-2 energies read, and max_iter at least
    1 (ValueError, before any iterate).  The trajectory's ``states[0]`` is
    the caller's ``init`` itself, not a copy.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    nsteps = step_count(T, dt)
    start = _start_geometry(init, kappa)

    def step(prev: Trajectory, n: int) -> tuple[Trajectory, float]:
        # the frozen coefficients live only through the advance, so the
        # difference energy runs with two trajectories alive and no more
        traj = advance_linearized(FrozenCoefficients.freeze(prev), init,
                                  diffusion_tol=diffusion_tol)
        traj.start_geometry = start
        with np.errstate(all="ignore"):  # the next line checks d_n
            d_n = float(np.max(difference_energy(traj, prev)))
        if not np.isfinite(d_n):  # it would fail every convergence comparison
            raise BreakdownError(
                f"picard iterate {n}: difference energy d_{n} = {d_n} is not finite; "
                f"its time differences scale as 1/dt^2, and scheme.dt = {dt:.6g}")
        return traj, d_n

    logbook = IterationLog(tol=tol)
    d = logbook.d_history
    traj = trivial_trajectory(init.grid, init.eos, init.rho0, kappa, dt, nsteps)
    for n in range(1, max_iter + 1):
        tic = time.perf_counter()
        traj, d_n = step(traj, n)  # rebinding releases the previous iterate
        d.append(d_n)
        logbook.wall_seconds.append(time.perf_counter() - tic)
        log.info("picard iterate %d: d = %.6e", n, d_n)
        if n >= 2 and d_n <= tol * (1.0 + d[0]):
            logbook.converged = True
            logbook.stop_reason = f"d_{n} <= tol (1 + d_1)"
            logbook.self_check = step(traj, n + 1)[1]
            return traj, logbook
        if n >= 3 and d[-1] > d[-2] > d[-3]:
            raise NonContractionError(d, T)
    logbook.stop_reason = f"max_iter = {max_iter} reached"
    return traj, logbook


def max_correction_norm(traj: Trajectory) -> float:
    """max over nodes of ||psi||_0 along a trajectory, at its own kappa."""
    return max(traj.grid.low_norm(psi) for psi in traj.geometry.psi)


SWEEP_COLUMNS = ("kappa", "iterations", "d_final", "psi_max", "delta_to_prev")


def kappa_sweep(init: FlowState, kappas: list[float], T: float, dt: float,
                **kwargs) -> tuple[Trajectory, IterationLog, list[dict]]:
    """Solve at a descending list of smoothing scales and compare runs.

    Returns the last member solved, its log, and one row per member keyed
    by ``SWEEP_COLUMNS``; ``delta_to_prev`` is the sup-in-time difference
    energy against the previous member (the Cauchy diagnostic for the
    vanishing-smoothing limit), None on the first row.  The cascade stops
    after the first member that does not converge, so that member and its
    log are the ones returned.  The members run one after another, and at
    most two are held at a time.  Every member's ``states[0]`` is the
    caller's ``init`` itself, not a copy.
    """
    if len(kappas) == 0:
        raise ValueError("kappas must name at least one smoothing scale")
    if not all(k > 0 for k in kappas):
        raise ValueError(f"kappas must be positive, got {kappas}")
    if any(a <= b for a, b in zip(kappas, kappas[1:])):
        raise ValueError(f"kappas must be strictly descending, got {kappas}")

    rows = []
    traj = None
    for kappa in kappas:
        prev = traj
        if prev is not None:
            del prev.geometry  # only the last member's memo is read again
        traj, logbook = solve_nonlinear_kappa(init, kappa, T, dt, **kwargs)
        rows.append(dict(zip(SWEEP_COLUMNS, (
            kappa, logbook.iterations, logbook.d_history[-1], max_correction_norm(traj),
            None if prev is None else float(np.max(difference_energy(prev, traj)))))))
        if not logbook.converged:
            break
    return traj, logbook, rows
