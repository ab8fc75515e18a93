"""Flow state, equation of state, initial data presets and admissibility.

The equation of state is the exponential barotropic law rho(p) =
exp(p), for which rho and drho/dp coincide and the enthalpy-like
potential int p(r)/r^2 dr has a closed form.  The reference density is
1, so the quiescent state carries unit density and zero pressure head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryCache, build_geometry, cov_div, cov_grad, cov_grad_vector, cov_laplacian
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


@dataclass
class CompatibilityReport:
    """Boundary/constraint residuals of a state, by compatibility order."""

    order: int
    q_wall_sup: float
    b_wall_sup: float
    div_b_norm: float
    div_v_wall_sup: float | None = None
    heat_trace_sup: float | None = None

    def residuals(self) -> dict[str, float]:
        out = {
            "q_wall_sup": self.q_wall_sup,
            "b_wall_sup": self.b_wall_sup,
            "div_b_norm": self.div_b_norm,
        }
        if self.order >= 1:
            out["div_v_wall_sup"] = self.div_v_wall_sup
            out["heat_trace_sup"] = self.heat_trace_sup
        return out

    def max_residual(self) -> float:
        return max(v for v in self.residuals().values() if v is not None)


def taylor_sign_margin(state: FlowState, a_s: np.ndarray | None = None) -> float:
    """min over both walls of -N . grad_a Q with outward unit normals.

    N = -e3 on the bottom wall and +e3 on the top wall, so the margin is
    the worst-case inward slope of the total pressure head, taken in the
    smoothed inverse ``a_s``.  Without it the raw (unsmoothed) geometry
    of the state's map is used.
    """
    grid = state.grid
    if a_s is None:
        a_s = build_geometry(grid, state.eta, 0.0).a_s
    return taylor_margin_from_gradient(cov_grad(grid, a_s, state.Q))


def taylor_margin_from_gradient(grad_Q: np.ndarray) -> float:
    """``taylor_sign_margin`` from the covariant gradient of Q."""
    g3 = grad_Q[2]
    return float(min(g3[..., 0].min(), (-g3[..., -1]).min()))


def check_compatibility(
    state: FlowState,
    order: int = 0,
    cache: GeometryCache | None = None,
) -> CompatibilityReport:
    """Measure boundary and constraint residuals at order 0 or 1.

    Order 0: q and b vanish on the walls, div_a b vanishes in the bulk.
    Order 1 adds the quantities forced by the evolution at t = 0: the
    continuity trace div_a v on the walls and the heat-equation trace of
    b there (with b = 0 on the walls the transport terms drop out).
    """
    if order not in (0, 1):
        raise ValueError(f"compatibility order must be 0 or 1, got {order}")
    grid = state.grid
    if cache is None:
        cache = build_geometry(grid, state.eta, kappa=0.0)
    q_wall = grid.boundary_slices(state.q)
    b_wall = grid.boundary_slices(state.b)
    div_b = cov_div(grid, cache.a, state.b)
    report = CompatibilityReport(
        order=order,
        q_wall_sup=float(np.abs(q_wall).max()),
        b_wall_sup=float(np.abs(b_wall).max()),
        div_b_norm=grid.low_norm(div_b),
    )
    if order == 1:
        div_v = cov_div(grid, cache.a, state.v)
        report.div_v_wall_sup = float(np.abs(grid.boundary_slices(div_v)).max())
        lap_b = cov_laplacian(grid, cache.a, state.b)
        Gv = cov_grad_vector(grid, cache.a, state.v)
        transport = np.einsum("a...,al...->l...", state.b, Gv) - state.b * div_v
        trace = grid.boundary_slices(state.eos.diffusivity * lap_b + transport)
        report.heat_trace_sup = float(np.abs(trace).max())
    return report


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
      divergence (order-1 compatibility intentionally not satisfied);
    * ``magnetic-tube``: velocity-free, with b the tangential curl of a
      vector potential whose normal profile (4 y3 (1 - y3))^3 vanishes to
      second order at the walls; div b vanishes identically.

    Raises :class:`InitialDataError` when the resulting Taylor margin
    falls below c0 or a wall/constraint residual is out of tolerance.
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

    q = _background_head(grid, eps_q)
    v = np.zeros((3,) + shape)
    b = np.zeros((3,) + shape)

    if preset in ("quiescent", "acoustic"):
        modulation = np.cos(2.0 * np.pi * Y1 + phases[0]) * np.cos(2.0 * np.pi * Y2 + phases[1])
        q = q * (1.0 + amplitude * modulation)
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
        eta=grid.identity_map.copy(), v=v, b=b, q=q,
        rho0=np.asarray(eos.rho(q)),
    )

    cache = build_geometry(grid, state.eta, kappa=0.0)
    if eps_q > 0.0:
        margin = taylor_sign_margin(state, cache.a_s)
        if margin < c0:
            raise InitialDataError(
                f"Rayleigh-Taylor sign condition violated: margin {margin:.6f} "
                f"below c0 = {c0} (preset {preset!r}, amplitude {amplitude})"
            )
    report = check_compatibility(state, order=0, cache=cache)
    if report.max_residual() > 1e-8:
        raise InitialDataError(
            f"order-0 compatibility violated for preset {preset!r}: {report.residuals()}"
        )
    return state
