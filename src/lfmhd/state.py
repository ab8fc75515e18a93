"""Flow state, equation of state, initial data presets and admissibility.

The equation of state is the exponential barotropic law rho(p) =
exp(p), for which rho and drho/dp coincide and the enthalpy-like
potential int p(r)/r^2 dr has a closed form.  The reference density is
1, so the quiescent state carries unit density and zero pressure head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryCache, build_geometry, cov_div, cov_grad
from .grid import Grid

PRESETS = ("quiescent", "acoustic", "magnetic-tube")


class InitialDataError(ValueError):
    """Initial data violates an admissibility condition; message names it."""


@dataclass(frozen=True)
class EquationOfState:
    """Exponential barotropic law with unit reference density."""

    diffusivity: float = 1.0  # magnetic diffusivity lambda

    def rho(self, p: np.ndarray | float) -> np.ndarray | float:
        return np.exp(p)

    # the p-derivative coincides with rho for this law
    rho_p = rho

    def q_potential(self, rho: np.ndarray | float) -> np.ndarray | float:
        """int_1^rho p(r) / r^2 dr, closed form for the exponential law."""
        return 1.0 - (1.0 + np.log(rho)) / rho


@dataclass
class FlowState:
    """Lagrangian unknowns at one time: flow map, velocity, field, pressure head."""

    grid: Grid
    eos: EquationOfState
    t: float
    eta: np.ndarray    # (3, n1, n2, n3+1)
    v: np.ndarray      # (3, n1, n2, n3+1)
    b: np.ndarray      # (3, n1, n2, n3+1)
    q: np.ndarray      # (n1, n2, n3+1)
    rho0: np.ndarray   # (n1, n2, n3+1), reference density R(q0) J(0)

    @property
    def Q(self) -> np.ndarray:
        """Total pressure head q + |b|^2 / 2."""
        return self.q + 0.5 * np.sum(self.b * self.b, axis=0)

    def copy(self) -> "FlowState":
        return FlowState(
            grid=self.grid, eos=self.eos, t=self.t,
            eta=self.eta.copy(), v=self.v.copy(), b=self.b.copy(),
            q=self.q.copy(), rho0=self.rho0,
        )


# largest order-0 compatibility residual admitted as initial data
COMPAT_TOL = 1e-8


def taylor_sign_margin(grad_Q: np.ndarray) -> float:
    """min over both walls of -N . grad_a Q with outward unit normals, from
    the covariant gradient of the total pressure head Q.

    N = -e3 on the bottom wall and +e3 on the top wall, so the margin is
    the worst-case inward slope of Q; the callers take it in the smoothed
    inverse ``a_s``.
    """
    g3 = grad_Q[2]
    return float(min(g3[..., 0].min(), (-g3[..., -1]).min()))


def check_compatibility(state: FlowState, cache: GeometryCache) -> dict[str, float]:
    """Order-0 boundary and constraint residuals, by name, in the
    unsmoothed geometry of ``cache``: q and b vanish on the walls
    (``q_wall_sup``, ``b_wall_sup``), div_a b vanishes in the bulk
    (``div_b_norm``).
    """
    grid = state.grid
    return {
        "q_wall_sup": float(np.abs(grid.boundary_slices(state.q)).max()),
        "b_wall_sup": float(np.abs(grid.boundary_slices(state.b)).max()),
        "div_b_norm": grid.low_norm(cov_div(grid, cache.a, grid.gradient(state.b))),
    }


def admit(state: FlowState, cache: GeometryCache, c0: float = 0.0) -> None:
    """The admission rule for initial data, in the geometry of ``cache``.

    Refuses a total pressure head Q that is not finite, an order-0
    compatibility residual above ``COMPAT_TOL`` and, unless v, b and q are
    all zero, a Taylor sign margin that is not positive and at least c0.
    Each test fails on NaN, and nothing here warns.  This t = 0 gate is
    stricter than the a priori regime that ``EnergyReport.constraint_rows``
    flags along a run (margin >= c0 / 2 and a geometry gauge, which is 0
    on the identity map the presets start from).
    """
    with np.errstate(all="ignore"):
        if not np.isfinite(state.Q).all():
            raise InitialDataError(
                f"total pressure head Q = q + |b|^2 / 2 is not finite (max |q| = "
                f"{np.abs(state.q).max():.3e}, max |b| = {np.abs(state.b).max():.3e})")
        residuals = check_compatibility(state, cache)
        if not max(residuals.values()) <= COMPAT_TOL:
            raise InitialDataError(f"order-0 compatibility violated: {residuals}")
        if np.any(state.v) or np.any(state.b) or np.any(state.q):
            grad_Q = cov_grad(state.grid, cache.a_s, state.grid.gradient(state.Q))
            margin = taylor_sign_margin(grad_Q)
            if not (margin > 0.0 and margin >= c0):
                raise InitialDataError(f"Rayleigh-Taylor sign condition violated: margin "
                                       f"{margin:.6g} is not positive and at least c0 = {c0}")


def _background_head(grid: Grid, eps_q: float) -> np.ndarray:
    y3 = grid.y3[None, None, :]
    return eps_q * y3 * (1.0 - y3) * np.ones(grid.spec.shape)


def make_initial_data(
    grid: Grid,
    preset: str,
    amplitude: float = 0.1,
    seed: int = 0,
    eos: EquationOfState | None = None,
    c0: float = 0.25,
) -> FlowState:
    """Construct admissible initial data on the identity flow map.

    All presets share the background pressure head eps_q * y3 (1 - y3)
    with eps_q = 2 c0, which puts the Taylor sign margin at eps_q on both
    walls before any perturbation.  ``amplitude`` scales the preset's
    distinguishing perturbation and ``seed`` fixes its phases:

    * ``quiescent``: tangential modulation of the background head only;
    * ``acoustic``: quiescent plus a low-mode velocity with nonzero
      divergence, so div_a v does not vanish on the walls;
    * ``magnetic-tube``: velocity-free, with b the tangential curl of a
      vector potential whose normal profile (4 y3 (1 - y3))^3 vanishes to
      second order at the walls; div b vanishes identically.

    Raises :class:`InitialDataError` when the head or its density is not
    finite, or the data fail :func:`admit` at c0 on the unsmoothed
    geometry; the message names the preset and the amplitude.
    """
    if preset not in PRESETS:
        raise InitialDataError(f"unknown preset {preset!r}; choose from {PRESETS}")
    if amplitude < 0.0:
        raise InitialDataError(f"amplitude must be nonnegative, got {amplitude}")
    eos = eos or EquationOfState()
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
    eps_q = 2.0 * c0

    shape = grid.spec.shape
    Y1 = grid.y1[:, None, None] * np.ones(shape)
    Y2 = grid.y2[None, :, None] * np.ones(shape)

    # a large c0 or amplitude overflows the head or its density: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        q = _background_head(grid, eps_q)
        if preset in ("quiescent", "acoustic"):
            modulation = np.cos(2.0 * np.pi * Y1 + phases[0]) * np.cos(2.0 * np.pi * Y2 + phases[1])
            q = q * (1.0 + amplitude * modulation)
        rho0 = np.asarray(eos.rho(q))
    if not (np.isfinite(q).all() and np.isfinite(rho0).all()):
        raise InitialDataError(
            f"pressure head q or density rho0 = exp(q) is not finite for c0 = {c0} "
            f"(head 2 c0 y3 (1 - y3)) and amplitude {amplitude} (preset {preset!r})"
        )
    v = np.zeros((3,) + shape)
    b = np.zeros((3,) + shape)
    if preset == "acoustic":
        v[0] = amplitude * np.sin(2.0 * np.pi * Y1 + phases[2])
        v[1] = amplitude * np.sin(2.0 * np.pi * Y2 + phases[3])
    if preset == "magnetic-tube":
        prof = (4.0 * grid.y3 * (1.0 - grid.y3)) ** 3
        chi = (np.sin(2.0 * np.pi * Y1 + phases[0])
               * np.sin(2.0 * np.pi * Y2 + phases[1]) / (2.0 * np.pi))
        b[0] = amplitude * prof[None, None, :] * grid.derivative(chi, 2)
        b[1] = -amplitude * prof[None, None, :] * grid.derivative(chi, 1)

    state = FlowState(
        grid=grid, eos=eos, t=0.0,
        eta=grid.identity_map.copy(), v=v, b=b, q=q, rho0=rho0,
    )

    try:
        admit(state, build_geometry(grid, state.eta, kappa=0.0), c0)
    except InitialDataError as exc:
        raise InitialDataError(f"{exc} (preset {preset!r}, amplitude {amplitude})") from None
    return state
