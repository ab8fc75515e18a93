"""One linearized evolution step with frozen coefficients.

The advance integrates, over a shared time lattice, the system

    d_t eta = v + psi*
    rho0 / Js* d_t v = (b* . grad_a*) b - grad_a* Q,   Q = q + |b|^2 / 2
    r* d_t q = -div_a* v,                              r* = Js* R'(q*) / rho0
    d_t b - lam lap_a* b = (b* . grad_a*) v - b* div_a* v
    q = 0 and b = 0 on both walls,

where lam is the magnetic diffusivity of the equation of state and
starred quantities come from a previous iterate on the same time
lattice: step n reads them at node n, at the mean of nodes n and n + 1,
and at node n + 1.  (eta, v, q) use an explicit midpoint rule with b
lagged at the step start; b then takes a backward-Euler diffusion step
whose transport source is evaluated at the new velocity.  Wall
conditions are imposed strongly after every stage, and the Dirichlet rows
of the implicit solve are eliminated.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .correction import correction_field
from .geometry import build_geometry, cov_div, cov_grad, cov_grad_vector, cov_laplacian
from .grid import Grid
from .state import EquationOfState, FlowState


# safety factor of the acoustic CFL bound
CFL_SAFETY = 0.4
# Krylov iteration budget of one component of the implicit diffusion solve
DIFFUSION_MAX_ITER = 500


class CflError(RuntimeError):
    """Time step exceeds the acoustic stability bound."""

    def __init__(self, dt: float, bound: float, h3: float):
        self.dt = dt
        self.bound = bound
        super().__init__(
            f"dt = {dt:.6e} violates the acoustic CFL bound "
            f"dt <= CFL_SAFETY * h3 * min sqrt(R'(q)) = "
            f"{CFL_SAFETY} * {h3:.6e} * {bound / (CFL_SAFETY * h3):.6e} = {bound:.6e}"
        )


class BreakdownError(ValueError):
    """A frozen coefficient or an advanced field is not finite or out of range."""


class DiffusionSolveError(RuntimeError):
    """Implicit diffusion solve failed to reach the residual target."""

    def __init__(self, iterations: int, residual: float, tol: float):
        self.iterations = iterations
        self.residual = residual
        if np.isfinite(residual):
            where = f"stalled after {iterations} iterations at relative residual {residual:.3e}"
        else:
            where = f"stopped after {iterations} iterations: the residual is non-finite"
        super().__init__(f"implicit diffusion solve {where} (target {tol:.1e})")


@dataclass
class SmoothedGeometry:
    """Smoothed-map geometry per node, stacked; the correction field psi is
    built on its first read, since the energy tables never read it."""

    a_s: np.ndarray    # (nodes, 3, 3, ...)
    J_s: np.ndarray    # (nodes, ...)
    build_psi: Callable[[], np.ndarray]

    @cached_property
    def psi(self) -> np.ndarray:    # (nodes, 3, ...)
        return self.build_psi()


@dataclass
class Trajectory:
    """States on a uniform time lattice, plus the run parameters.

    The states are treated as immutable: ``geometry`` is computed from
    them once, on first read, and shared by the solver and every
    diagnostic.  ``start_geometry``, when given, is node 0's
    ``(a_s, J_s, psi)`` at the trajectory's kappa and is not rebuilt.
    """

    grid: Grid
    eos: EquationOfState
    kappa: float
    dt: float
    states: list[FlowState]
    start_geometry: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def __len__(self) -> int:
        return len(self.states)

    @property
    def final(self) -> FlowState:
        return self.states[-1]

    @cached_property
    def geometry(self) -> SmoothedGeometry:
        """Smoothed inverse and its Jacobian per node, and psi on first read,
        at the run's kappa."""
        grid, kappa, states = self.grid, self.kappa, self.states
        n = len(states)
        shape = grid.shape
        a_s = np.empty((n, 3, 3) + shape)
        J_s = np.empty((n,) + shape)
        psi0 = None
        for j, s in enumerate(states):
            if j == 0 and self.start_geometry is not None:
                a_s[0], J_s[0], psi0 = self.start_geometry
                self.start_geometry = None  # copied; the memo holds node 0 now
                continue
            cache = build_geometry(grid, s.eta, kappa)
            a_s[j] = cache.a_s
            J_s[j] = cache.J_s

        def build_psi():
            # reads the states list, not the trajectory, so the memo makes no cycle
            psi = np.empty((n, 3) + shape)
            for j, s in enumerate(states):
                psi[j] = (psi0 if j == 0 and psi0 is not None
                          else correction_field(grid, s.eta, s.v, a_s[j], kappa))
            return psi

        return SmoothedGeometry(a_s=a_s, J_s=J_s, build_psi=build_psi)


def trivial_trajectory(
    grid: Grid, eos: EquationOfState, rho0: np.ndarray,
    kappa: float, dt: float, nsteps: int,
) -> Trajectory:
    """Identity map, zero velocity/field/head at every node; its geometry
    memo holds the exact constants a_s = I, J_s = 1, psi = 0."""
    shape = grid.shape
    states = [
        FlowState(
            grid=grid, eos=eos, t=j * dt,
            eta=grid.identity_map.copy(),
            v=np.zeros((3,) + shape), b=np.zeros((3,) + shape),
            q=np.zeros(shape), rho0=rho0,
        )
        for j in range(nsteps + 1)
    ]
    traj = Trajectory(grid=grid, eos=eos, kappa=kappa, dt=dt, states=states)
    n = nsteps + 1
    traj.geometry = SmoothedGeometry(
        a_s=np.broadcast_to(np.eye(3)[:, :, None, None, None], (n, 3, 3) + shape),
        J_s=np.broadcast_to(1.0, (n,) + shape),
        build_psi=lambda: np.broadcast_to(0.0, (n, 3) + shape),
    )
    return traj


def acoustic_weight(traj: Trajectory) -> np.ndarray:
    """The acoustic weight r = Js R'(q) / rho0 at every node, stacked."""
    q = np.stack([s.q for s in traj.states])
    return traj.geometry.J_s * traj.eos.rho_p(q) / traj.states[0].rho0


@dataclass
class FrozenSample:
    """Ring coefficients at one node or one step midpoint."""

    psi: np.ndarray
    a_s: np.ndarray
    J_s: np.ndarray
    b: np.ndarray
    r: np.ndarray


@dataclass
class FrozenCoefficients:
    """Ring quantities of a previous iterate at the nodes of its lattice.

    ``node`` reads one node of the frozen iterate ``traj`` in place: the
    smoothed-geometry inverse and Jacobian and the correction field psi
    from its geometry memo, the magnetic field from its state.  The
    acoustic weight r (``acoustic_weight``) is the one array formed here.
    ``midpoint`` is the mean of two neighbouring nodes.
    """

    traj: Trajectory
    r: np.ndarray    # (nodes, ...)

    @classmethod
    def freeze(cls, traj: Trajectory) -> "FrozenCoefficients":
        r = acoustic_weight(traj)
        if not r.min() > 0.0:  # NaN fails too
            j = next(j for j in range(len(r)) if not r[j].min() > 0.0)
            raise BreakdownError(
                f"frozen acoustic weight r must be positive: node {j} "
                f"(t = {traj.states[j].t:.6g}) has min {r[j].min():.3e}"
            )
        traj.geometry.psi  # built here, on first read, and not inside the advance
        return cls(traj=traj, r=r)

    def node(self, j: int) -> FrozenSample:
        geo = self.traj.geometry
        return FrozenSample(psi=geo.psi[j], a_s=geo.a_s[j], J_s=geo.J_s[j],
                            b=self.traj.states[j].b, r=self.r[j])

    def midpoint(self, j: int) -> FrozenSample:
        x, y = vars(self.node(j)), vars(self.node(j + 1))
        return FrozenSample(**{name: 0.5 * x[name] + 0.5 * y[name] for name in x})

    def cfl_bound(self) -> float:
        # the frozen system rho0 / Js v_t = -grad_a Q, r q_t = -div_a v carries
        # sound at c = sqrt(Js / (rho0 r)); 1 / c = sqrt(R'(q)) pointwise
        traj = self.traj
        slowness = np.sqrt(traj.states[0].rho0[None] * self.r / traj.geometry.J_s)
        return float(CFL_SAFETY * traj.grid.h3 * slowness.min())


# ----------------------------------------------------------------------
# implicit diffusion solve


def _flat_preconditioner(grid: Grid, dt: float):
    nz = grid.spec.n3 + 1

    def modal_factors():
        # eigen-factorization of the composed y3 stencil, interior rows;
        # the stencil applied to the identity's rows is its transposed matrix
        D3 = grid._stencil3(np.eye(nz)).T
        w, V = np.linalg.eig((D3 @ D3)[1:-1, 1:-1])
        return w, V, np.linalg.inv(V)

    w, V, Vinv = grid.cached_symbol("flat_modal_factors", modal_factors)

    def build():
        # per tangential mode and normal eigenmode; the wall planes stay zero
        inv = np.ones(grid.ksq.shape[:2] + (nz,))
        inv[..., 1:-1] = 1.0 / (1.0 + dt * grid.ksq - dt * w)
        return inv

    symbol = grid.cached_symbol(("flat_diffusion", dt), build)

    def apply(res_int: np.ndarray) -> np.ndarray:
        # the real modal basis acts along y3 only, so it commutes with the
        # tangential transform
        full = np.zeros(grid.shape)
        full[..., 1:-1] = res_int @ Vinv.T
        return grid.apply_symbol(full, symbol)[..., 1:-1] @ V.T

    return apply


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # a fixed-order sum: BLAS dot and nrm2 split theirs by thread count,
    # which made the 32^3 artifacts depend on OPENBLAS_NUM_THREADS
    return np.einsum("i,i->", x, y)


def _norm(x: np.ndarray) -> float:
    return np.sqrt(_dot(x, x))


def bicgstab(matvec, b, rtol, maxiter, M, callback=None):
    """Preconditioned BiCGSTAB from x = 0, the iteration of scipy 1.17.

    ``matvec`` applies the operator and ``M`` the preconditioner to a flat
    vector; ``callback(x)`` runs after each full iteration.  Stops when
    ||b - A x|| < rtol ||b||, after ``maxiter`` iterations, on a rho or an
    omega breakdown, and as soon as rho, omega or the residual norm is not
    finite.  Returns ``(x, iterations)``, the number of full iterations;
    the caller judges x by its true residual.  Unlike scipy, the rho
    breakdown bound scales with ||b||^2, since rho = b . r does: a
    right-hand side of any size is solved alike, however small its norm.
    """
    x = np.zeros_like(b)
    bnorm = _norm(b)
    if bnorm == 0.0:
        return x, 0
    atol = rtol * bnorm
    tiny = np.finfo(b.dtype).eps ** 2   # scipy's breakdown bound for omega
    r = b.copy()
    iterations = 0
    while iterations < maxiter:
        rnorm = _norm(r)
        rho = _dot(b, r)        # the shadow residual is r_0 = b
        # converged, a rho breakdown, or a non-finite residual norm or rho
        if not (atol <= rnorm < np.inf and tiny * bnorm * bnorm <= abs(rho) < np.inf):
            break
        if iterations > 0:
            if abs(omega) < tiny:
                break
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = M(p)
        v = matvec(phat)
        rv = _dot(b, v)
        if rv == 0:
            break
        alpha = rho / rv
        r -= alpha * v          # r is now s = b - A (x + alpha phat)
        snorm = _norm(r)
        if snorm < atol:
            x += alpha * phat
            break
        if not np.isfinite(snorm):
            break
        shat = M(r)
        t = matvec(shat)
        omega = _dot(t, r) / _dot(t, t)
        if not np.isfinite(omega):
            break
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
        iterations += 1
        if callback is not None:
            callback(x)
    return x, iterations


def implicit_diffusion_solve(grid: Grid, a_s: np.ndarray, rhs: np.ndarray, dt: float,
                             tol: float = 1e-9) -> np.ndarray:
    """Solve (I - dt lap_a) x = rhs with x = 0 on both walls.

    A resistive step passes ``dt`` as the time step times the magnetic
    diffusivity.  Component-wise for vector right-hand sides.  The Krylov
    iteration is preconditioned by the exact flat-geometry modal solve, so
    it converges in a handful of steps whenever the smoothed geometry is
    close to the identity, and stops after ``DIFFUSION_MAX_ITER`` at most.
    The true relative residual of the result decides, whatever stopped the
    iteration: above 10 tol, or not finite, it raises
    :class:`DiffusionSolveError`.
    """
    if rhs.ndim == 4:
        return np.stack([
            implicit_diffusion_solve(grid, a_s, comp, dt, tol)
            for comp in rhs
        ])

    n1, n2, nz = grid.shape
    nint = nz - 2

    def embed(x_int: np.ndarray) -> np.ndarray:
        full = np.zeros((n1, n2, nz))
        full[..., 1:-1] = x_int
        return full

    def matvec(x_flat: np.ndarray) -> np.ndarray:
        full = embed(x_flat.reshape(n1, n2, nint))
        out = full - dt * cov_laplacian(grid, a_s, cov_grad(grid, a_s, grid.gradient(full)))
        return out[..., 1:-1].ravel()

    precond = _flat_preconditioner(grid, dt)

    def psolve(r_flat: np.ndarray) -> np.ndarray:
        return precond(r_flat.reshape(n1, n2, nint)).ravel()

    b_flat = rhs[..., 1:-1].ravel()
    bnorm = _norm(b_flat)
    if bnorm == 0.0:
        return np.zeros((n1, n2, nz))

    x_flat, iters = bicgstab(matvec, b_flat, rtol=tol, maxiter=DIFFUSION_MAX_ITER, M=psolve)
    residual = _norm(matvec(x_flat) - b_flat) / bnorm
    if not residual <= 10.0 * tol:
        raise DiffusionSolveError(iterations=iters, residual=residual, tol=tol)
    return embed(x_flat.reshape(n1, n2, nint))


# ----------------------------------------------------------------------
# the advance


def _enforce_walls(q: np.ndarray) -> None:
    q[..., 0] = 0.0
    q[..., -1] = 0.0


def _explicit_rates(grid, smp: FrozenSample, v, q, grad_b_lag, half_b2, rho0):
    """Stage rates of eta, v and q; ``grad_b_lag()`` returns the gradient
    table of the lagged b and is called only when the sample's b* is not
    identically zero, since the Lorentz force vanishes with b*."""
    Q = q + half_b2
    lorentz = 0.0
    if np.any(smp.b):
        lorentz = np.einsum(
            "a...,al...->l...", smp.b,
            cov_grad_vector(grid, smp.a_s, grad_b_lag()),
        )
    dv = (smp.J_s / rho0)[None] * (lorentz - cov_grad(grid, smp.a_s, grid.gradient(Q)))
    dq = -cov_div(grid, smp.a_s, grid.gradient(v)) / smp.r
    deta = v + smp.psi
    return deta, dv, dq


def _explicit_midpoint(grid, frozen: FrozenCoefficients, n: int, state: FlowState, dt, rho0):
    """eta, v and q at the end of step n by the explicit midpoint rule, b
    lagged at the step start; one gradient table of b serves both stages,
    and none is taken when b* vanishes at both."""
    b_lag = state.b
    half_b2 = 0.5 * np.sum(b_lag * b_lag, axis=0)
    grad_b_lag = cache(lambda: grid.gradient(b_lag))
    k1 = _explicit_rates(grid, frozen.node(n), state.v, state.q, grad_b_lag, half_b2, rho0)
    v_m = state.v + 0.5 * dt * k1[1]
    q_m = state.q + 0.5 * dt * k1[2]
    _enforce_walls(q_m)
    k2 = _explicit_rates(grid, frozen.midpoint(n), v_m, q_m, grad_b_lag, half_b2, rho0)
    q_n = state.q + dt * k2[2]
    _enforce_walls(q_n)
    return state.eta + dt * k2[0], state.v + dt * k2[1], q_n


def _induction_rhs(grid, smp: FrozenSample, v, b_lag, dt):
    """Right-hand side of the backward-Euler b step: b_lag plus dt times the
    transport at velocity v; one gradient table of v serves both terms.
    The transport vanishes with b*, and then b_lag itself is returned."""
    if not np.any(smp.b):
        return b_lag
    grad_v = grid.gradient(v)
    div_v = cov_div(grid, smp.a_s, grad_v)
    transport = np.einsum(
        "a...,al...->l...", smp.b, cov_grad_vector(grid, smp.a_s, grad_v)
    ) - smp.b * div_v
    return b_lag + dt * transport


def step_count(T: float, dt: float) -> int:
    """The number of dt steps in [0, T]; ValueError unless T is a positive
    integer multiple of dt, to 1e-9 relative, with a finite count of at
    least 2: the wave residual and the order-2 energies read three nodes."""
    steps = T / dt if dt > 0.0 else np.nan
    n = round(steps) if np.isfinite(steps) else 0
    if n < 1 or abs(n * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T = {T} is not a positive integer multiple of dt = {dt}")
    if n < 2:
        raise ValueError(f"T = {T} at dt = {dt} gives {n + 1} nodes; at least 3 are needed")
    return n


def _require_finite(j: int, t: float, **fields: np.ndarray) -> None:
    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise BreakdownError(f"{name} is not finite at node {j} (t = {t:.6g})")


def advance_linearized(frozen: FrozenCoefficients, init: FlowState,
                       diffusion_tol: float = 1e-9) -> Trajectory:
    """Integrate the frozen-coefficient system from ``init`` on the lattice
    of the frozen iterate ``frozen.traj``: its grid, its step dt, its kappa,
    and one step per pair of nodes.  Node 0 is ``init`` itself, not a copy:
    no step writes into a state it did not just compute.

    dt must satisfy the acoustic CFL bound evaluated over all frozen
    nodes, else :class:`CflError`.  A step that leaves v, q or eta
    non-finite raises :class:`BreakdownError` naming the first such field,
    in that order, and the node; a non-finite b cannot come out of the
    diffusion solve, whose residual check raises
    :class:`DiffusionSolveError` instead.
    """
    prev = frozen.traj
    grid, dt = prev.grid, prev.dt
    bound = frozen.cfl_bound()
    if not dt <= bound:  # a NaN bound fails too
        raise CflError(dt, bound, grid.h3)

    rho0 = init.rho0
    state = init
    states = [state]
    for n in range(len(prev) - 1):
        t = n * dt + dt
        eta_n, v_n, q_n = _explicit_midpoint(grid, frozen, n, state, dt, rho0)
        # before the b solve, which a non-finite velocity would stall; v and q
        # first, since eta_n is built from the midpoint velocity
        _require_finite(n + 1, t, v=v_n, q=q_n, eta=eta_n)
        s1 = frozen.node(n + 1)
        rhs_b = _induction_rhs(grid, s1, v_n, state.b, dt)
        b_n = implicit_diffusion_solve(grid, s1.a_s, rhs_b, dt * init.eos.diffusivity,
                                       tol=diffusion_tol)
        state = FlowState(
            grid=grid, eos=init.eos, t=t,
            eta=eta_n, v=v_n, b=b_n, q=q_n, rho0=rho0,
        )
        states.append(state)

    return Trajectory(grid=grid, eos=init.eos, kappa=prev.kappa, dt=dt, states=states)
