"""Energy functionals, residual audits and the empirical lemma battery.

Everything here is read-only over trajectories: each function reads the
smoothed geometry and correction field from ``Trajectory.geometry``,
the same per-node arrays the solver froze, so the diagnostics cannot
drift out of sync with the solver state.  ``residual_audit`` checks
every evolution equation in one pass over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correction import harmonic_extension
from .fields import perturbed_map, random_vector, wall_vanishing_scalar
from .geometry import (
    GeometryCache,
    build_geometry,
    cov_div,
    cov_div_from_gradient,
    cov_grad,
    cov_grad_vector,
    cov_grad_vector_from_gradient,
    cov_laplacian,
    curl_from_gradient,
    deformation_gradient,
)
from .grid import Grid
from .linear_step import Trajectory
from .smoothing import mollify
from .state import FlowState, taylor_sign_margin


# ----------------------------------------------------------------------
# time differences on snapshot stacks


def _require_history(n: int, order: int) -> None:
    if n < order + 1:
        raise ValueError(
            f"insufficient history: order-{order} time derivative needs at least "
            f"{order + 1} snapshots, got {n}"
        )
    if order not in (0, 1, 2):
        raise ValueError(f"time derivative order must be 0, 1 or 2, got {order}")


def time_difference(row, n: int, j: int, dt: float, order: int) -> np.ndarray:
    """Row j of the discrete d/dt of an n-node sequence whose node k is row(k).

    Second order where possible: centered inside, one-sided at the ends;
    with exactly order + 1 nodes the end rows fall back to the interior
    stencil.  Reads at most four nodes, so no whole-sequence stack is needed.
    """
    if order == 0:
        return row(j)
    _require_history(n, order)
    if order == 1:
        if n == 2:
            return (row(1) - row(0)) / dt
        if j == 0:
            return (-3.0 * row(0) + 4.0 * row(1) - row(2)) / (2.0 * dt)
        if j == n - 1:
            return (3.0 * row(j) - 4.0 * row(j - 1) + row(j - 2)) / (2.0 * dt)
        return (row(j + 1) - row(j - 1)) / (2.0 * dt)
    if n < 4:
        j = 1
    elif j == 0:
        return (2.0 * row(0) - 5.0 * row(1) + 4.0 * row(2) - row(3)) / (dt * dt)
    elif j == n - 1:
        return (2.0 * row(j) - 5.0 * row(j - 1) + 4.0 * row(j - 2) - row(j - 3)) / (dt * dt)
    return (row(j + 1) - 2.0 * row(j) + row(j - 1)) / (dt * dt)


def time_derivative(stack: np.ndarray, dt: float, order: int) -> np.ndarray:
    """Discrete d/dt of a (nodes, ...) stack, row by row from ``time_difference``."""
    if order == 0:
        return stack
    n = len(stack)
    return np.stack([time_difference(stack.__getitem__, n, j, dt, order) for j in range(n)])


def _time_energies(grid: Grid, stack: np.ndarray, dt: float, order: int) -> np.ndarray:
    """Row k, column j: the squared H^k norm at node j of the (order - k)-th
    time difference of a (nodes, ...) stack; shape (order + 1, nodes).

    Each node is transformed once: the time differences are formed from
    the nodes' normal spectra (``Grid.normal_spectra``), since both the
    time stencil and the y3 stencil are linear.  An identically zero
    stack, such as b in a field-free run, gives the exact zero table
    without a transform."""
    n = stack.shape[0]
    _require_history(n, order)
    out = np.zeros((order + 1, n))
    if not np.any(stack):
        return out
    spectra = [grid.normal_spectra(f, order) for f in stack]
    for k in range(order + 1):
        def row(m):
            return spectra[m][: k + 1]
        for j in range(n):
            out[k, j] = grid.sobolev_sq(time_difference(row, n, j, dt, order - k), k)
    return out


# ----------------------------------------------------------------------
# norms of flow maps (identity handled through the displacement)


def map_norm(grid: Grid, eta: np.ndarray, s: int) -> float:
    """Interior Sobolev norm of a flow map.

    The order-0 term uses the raw positions; all derivatives act on the
    periodic displacement with the identity's constant gradient added
    back, so the non-periodic reference coordinates never reach the FFT.
    Expanding the first-order squares gives
    ||eta||_0^2 + ||disp||_s^2 - ||disp||_0^2 + sum_mu int (2 d_mu disp_mu + 1).
    """
    total = grid.integrate(np.sum(eta * eta, axis=0))
    if s > 0:
        disp = grid.displacement(eta)
        total += grid.norm(disp, s) ** 2 - grid.integrate(disp * disp)
        total += sum(grid.integrate(2.0 * grid.derivative(disp[mu], mu + 1) + 1.0)
                     for mu in range(3))
    return float(np.sqrt(total))


# ----------------------------------------------------------------------
# difference energy between trajectories


def _check_comparable(t1: Trajectory, t2: Trajectory) -> None:
    if t1.grid.spec != t2.grid.spec:
        raise ValueError("trajectories live on different grids")
    if len(t1) != len(t2) or abs(t1.dt - t2.dt) > 1e-14:
        raise ValueError(
            f"trajectories have different time lattices: "
            f"{len(t1)} nodes at dt = {t1.dt} vs {len(t2)} at dt = {t2.dt}"
        )


def difference_energy(t1: Trajectory, t2: Trajectory, order: int = 2) -> np.ndarray:
    """Order-limited difference energy per time node.

    At each node this sums, over k = 0..order, the squared H^k norms of
    the (order - k)-th time differences of [v], [b], [q], plus the
    squared H^order norm of the map difference [eta].
    """
    _check_comparable(t1, t2)
    grid, dt = t1.grid, t1.dt
    n = len(t1)
    total = np.zeros(n)
    for name in ("v", "b", "q"):
        for row in _time_energies(grid, t1.stack(name) - t2.stack(name), dt, order):
            total += row
    deta = t1.stack("eta") - t2.stack("eta")
    for j in range(n):
        total[j] += grid.norm(deta[j], order) ** 2
    return total


# ----------------------------------------------------------------------
# energy functionals


ENERGY_COLUMNS = (
    "t", "E_total", "E_eta4", "E_boundary", "E_v", "E_b", "E_q",
    "H_run", "H_b", "W_q", "E_phys", "D_diss", "balance_residual",
    "taylor_margin", "small_geometry", "div_b",
)


@dataclass
class EnergyReport:
    """Tabulated energy functionals along a trajectory."""

    kappa: float
    dt: float
    truncation_order: int
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def rows(self):
        n = len(self.columns["t"])
        for j in range(n):
            yield {name: float(self.columns[name][j]) for name in ENERGY_COLUMNS}


def _dissipation(grid: Grid, eos, J_s: np.ndarray, Gb2: np.ndarray) -> float:
    """Resistive dissipation of one node from |grad_a b|^2, the summed
    squares of its covariant gradient of b."""
    return eos.diffusivity * grid.integrate(J_s * Gb2)


def physical_energy_balance(traj: Trajectory, dissipation: np.ndarray | None = None):
    """Physical energy, viscous-resistive dissipation, and the step residuals.

    Returns (E, D, residual) arrays over the nodes, with residual[j] the
    defect of E(t_j) - E(t_{j-1}) + trapezoid of D over the step; an
    exact balance makes it zero.  ``dissipation``, when given, is D as
    ``residual_audit(traj)["D_diss"]`` computed it on the same trajectory,
    one value per node, and is not computed again.
    """
    grid, eos, geo = traj.grid, traj.eos, traj.geometry
    n = len(traj)
    if dissipation is not None and np.shape(dissipation) != (n,):
        raise ValueError(
            f"dissipation must hold one value per node, shape ({n},), "
            f"got shape {np.shape(dissipation)}"
        )
    E = np.empty(n)
    D = np.empty(n) if dissipation is None else dissipation
    for j, s in enumerate(traj.states):
        J_s = geo.J_s[j]
        kinetic = 0.5 * grid.integrate(s.rho0 * np.sum(s.v * s.v, axis=0))
        magnetic = 0.5 * grid.integrate(J_s * np.sum(s.b * s.b, axis=0))
        internal = grid.integrate(s.rho0 * np.asarray(eos.q_potential(eos.rho(s.q))))
        E[j] = kinetic + magnetic + internal
        if dissipation is None:
            D[j] = 0.0  # exactly, at a field-free node
            if np.any(s.b):
                Gb = cov_grad_vector(grid, geo.a_s[j], s.b)
                D[j] = _dissipation(grid, eos, J_s, np.sum(Gb * Gb, axis=(0, 1)))
    residual = np.zeros(n)
    residual[1:] = np.diff(E) + 0.5 * traj.dt * (D[1:] + D[:-1])
    return E, D, residual


def small_geometry_norm(grid: Grid, a_s: np.ndarray, J_s: np.ndarray) -> float:
    """||Js - 1||_3 + ||Id - a~||_3, the closeness-to-identity gauge."""
    delta = np.eye(3)[:, :, None, None, None] - a_s
    return float(grid.norm(J_s - 1.0, 3) + grid.norm(delta, 3))


def _constraints(s: FlowState, a_s: np.ndarray, J_s: np.ndarray) -> tuple[float, float, float]:
    """Taylor margin, geometry gauge and ||div_a b|| of one node."""
    return (
        taylor_sign_margin(s, a_s),
        small_geometry_norm(s.grid, a_s, J_s),
        s.grid.low_norm(cov_div(s.grid, a_s, s.b)),
    )


def energy_functionals(traj: Trajectory, order: int = 2,
                       dissipation: np.ndarray | None = None) -> EnergyReport:
    """Tabulate the truncated energy scale along a trajectory.

    ``order`` is the highest time-derivative order entering the interior
    sums (the full scale would run to order 4; the desk-scale default
    stops at 2 and the report header says so).  ``dissipation`` goes to
    :func:`physical_energy_balance`.
    """
    grid, dt, kappa = traj.grid, traj.dt, traj.kappa
    n = len(traj)

    cols: dict[str, np.ndarray] = {name: np.zeros(n) for name in ENERGY_COLUMNS}
    cols["t"] = traj.times

    Ek = {name: _time_energies(grid, traj.stack(name), dt, order) for name in ("v", "b", "q")}

    geo = traj.geometry
    for j, s in enumerate(traj.states):
        cols["E_eta4"][j] = map_norm(grid, s.eta, 4) ** 2

        # boundary term: fourth tangential derivatives of the once-mollified
        # displacement, contracted with the third row of the smoothed inverse
        disp_w = mollify(grid, grid.boundary_slices(grid.displacement(s.eta)), kappa)
        aw = grid.boundary_slices(geo.a_s[j])
        bdy = 0.0
        lap_w = grid.tangential_laplacian(disp_w)
        for i in range(2):
            for k in range(2):
                dij = grid.derivative(grid.derivative(lap_w, i + 1), k + 1)
                T = np.einsum("a...,a...->...", aw[2], dij)
                bdy += grid.norm(T, 0, where="boundary") ** 2
        cols["E_boundary"][j] = bdy

        cols["taylor_margin"][j], cols["small_geometry"][j], cols["div_b"][j] = (
            _constraints(s, geo.a_s[j], geo.J_s[j])
        )

    for name in ("v", "b", "q"):
        cols["E_" + name] = sum(Ek[name])
    cols["E_total"] = (
        cols["E_eta4"] + cols["E_boundary"] + cols["E_v"] + cols["E_b"] + cols["E_q"]
    )

    # running and pointwise parts of the heat/wave companions
    hb_run = Ek["b"][0]
    cols["H_run"] = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (hb_run[1:] + hb_run[:-1]))]
    )
    cols["H_b"] = Ek["b"][1]
    cols["W_q"] = Ek["q"][0] + Ek["q"][1]

    E, D, residual = physical_energy_balance(traj, dissipation)
    cols["E_phys"] = E
    cols["D_diss"] = D
    cols["balance_residual"] = residual

    return EnergyReport(kappa=kappa, dt=dt, truncation_order=order, columns=cols)


# ----------------------------------------------------------------------
# constraint monitors


def constraint_residuals(
    traj: Trajectory,
    c0: float | None = None,
    epsilon: float = 0.1,
    energy: EnergyReport | None = None,
) -> list[dict]:
    """Per-node constraint table: div b, Taylor margin, geometry gauge.

    Flags mark a Taylor margin below c0 / 2 and a geometry gauge above
    epsilon; both thresholds follow the run configuration.  Given the
    trajectory's energy report, the three values are read from its
    columns instead of being computed again.
    """
    if energy is None:
        geo = traj.geometry
        values = [_constraints(s, a_s, J_s)
                  for s, a_s, J_s in zip(traj.states, geo.a_s, geo.J_s)]
    else:
        values = zip(*(energy.columns[name]
                       for name in ("taylor_margin", "small_geometry", "div_b")))
    rows = []
    for s, (margin, small, div_b) in zip(traj.states, values):
        rows.append({
            "t": s.t,
            "div_b": div_b,
            "taylor_margin": margin,
            "small_geometry": small,
            "taylor_ok": bool(c0 is None or margin >= 0.5 * c0),
            "small_ok": bool(small <= epsilon),
        })
    return rows


def divergence_monitor(
    traj: Trajectory,
    drift_constant: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Flag nodes whose div_a b exceeds the calibrated drift envelope.

    The envelope is 1e-8 + drift_constant * t * (dt + h3^2); data
    that starts divergence-free stays under it, while corrupted data
    trips the flag immediately.
    """
    grid = traj.grid
    h3 = grid.h3
    div = np.array([
        grid.low_norm(cov_div(grid, a_s, s.b))
        for s, a_s in zip(traj.states, traj.geometry.a_s)
    ])
    envelope = 1e-8 + drift_constant * traj.times * (traj.dt + h3 * h3)
    return div, div > envelope


# ----------------------------------------------------------------------
# residual audit: the smoothed system and the pressure-head wave equation


def residual_audit(traj: Trajectory) -> dict[str, np.ndarray]:
    """L2 defects per node of the smoothed nonlinear system (``eta``, ``v``,
    ``q``, ``b``) and of the second-order pressure-head equation (``wave``),
    and the energy balance's ``D_diss``, contracted from the same covariant
    gradient of b.

    Each equation is re-evaluated with the trajectory's own geometry and
    correction field, in one pass: per node, the gradient tables of v and
    b are taken once and every covariant derivative is contracted from
    them, and time derivatives come from the neighbouring nodes.  The
    wave equation is the time derivative of the continuity relation with
    the momentum equation substituted.  On a converged fixed point every
    defect is scheme error (time and wall stencils, dealiasing).
    """
    grid, eos, dt, geo = traj.grid, traj.eos, traj.dt, traj.geometry
    states = traj.states
    rho0 = states[0].rho0
    n = len(traj)

    def field(name):
        return lambda k: getattr(states[k], name)

    def weight(k):
        # the acoustic weight r = Js R'(q) / rho0
        return geo.J_s[k] * np.asarray(eos.rho_p(states[k].q)) / rho0

    def d_dt(row, j, order=1):
        return time_difference(row, n, j, dt, order)

    out = {name: np.empty(n) for name in ("eta", "v", "q", "b", "wave", "D_diss")}
    for j, s in enumerate(states):
        a, J_s, b = geo.a_s[j], geo.J_s[j], s.b
        Jr = J_s / rho0
        gv = grid.gradient(s.v)
        Gv, div_v = cov_grad_vector_from_gradient(grid, a, gv), cov_div_from_gradient(grid, a, gv)
        grad_Q = cov_grad(grid, a, s.Q)
        # every magnetic term is exactly zero at a field-free node
        lap_b = lorentz = transport = rhs = w0 = D_diss = 0.0
        if np.any(b):
            gb = grid.gradient(b)
            Gb, div_b = cov_grad_vector_from_gradient(grid, a, gb), cov_div_from_gradient(grid, a, gb)
            # column l of Gb is the covariant gradient of b_l
            lap_b = np.stack([cov_div(grid, a, Gb[:, l]) for l in range(3)])
            lorentz = np.einsum("a...,al...->l...", b, Gb)
            transport = np.einsum("a...,al...->l...", b, Gv) - b * div_v
            Gb2 = np.sum(Gb * Gb, axis=(0, 1))
            # from lap(|b|^2 / 2) in Q, not from the induction equation: no diffusivity
            rhs = Jr * np.einsum("l...,l...->...", b, lap_b)
            w0 = Jr * (
                Gb2
                - np.einsum("al...,la...->...", Gb, Gb)
                - np.einsum("a...,a...->...", b, cov_grad(grid, a, div_b))
            )
            D_diss = _dissipation(grid, eos, J_s, Gb2)
        r = weight(j)
        dq = d_dt(field("q"), j)

        out["eta"][j] = grid.low_norm(d_dt(field("eta"), j) - s.v - geo.psi[j])
        r_v = (rho0 / J_s)[None] * d_dt(field("v"), j) - lorentz + grad_Q
        out["v"][j] = grid.low_norm(r_v)
        out["q"][j] = grid.low_norm(r * dq + div_v)
        out["b"][j] = grid.low_norm(d_dt(field("b"), j) - eos.diffusivity * lap_b - transport)

        lhs = r * d_dt(field("q"), j, 2) - Jr * cov_laplacian(grid, a, s.q)
        w0 = w0 - d_dt(weight, j) * dq
        w0 -= np.einsum("ma...,ma...->...", d_dt(geo.a_s.__getitem__, j), gv)
        w0 -= np.einsum("l...,l...->...", lorentz - grad_Q, cov_grad(grid, a, Jr))
        out["wave"][j] = grid.low_norm(lhs - rhs - w0)
        out["D_diss"][j] = D_diss
    return out


def nonlinear_residuals(traj: Trajectory) -> dict[str, np.ndarray]:
    """The four first-order defects of ``residual_audit``."""
    audit = residual_audit(traj)
    return {name: audit[name] for name in ("eta", "v", "q", "b")}


def wave_equation_residual(traj: Trajectory) -> np.ndarray:
    """The second-order pressure-head defect of ``residual_audit``."""
    return residual_audit(traj)["wave"]


# ----------------------------------------------------------------------
# the good-unknown decomposition audit


def _d4(grid: Grid, f: np.ndarray) -> np.ndarray:
    # the fixed fourth tangential derivative d1 d2 lap_t
    return grid.derivative_multi(grid.tangential_laplacian(f), 1, 1, 0)


def _d3(grid: Grid, f: np.ndarray) -> np.ndarray:
    # d4 with the first tangential derivative peeled off
    return grid.derivative_multi(grid.tangential_laplacian(f), 0, 1, 0)


def alinhac_residual(cache: GeometryCache, f: np.ndarray) -> float:
    """Relative defect of the good-unknown decomposition for a scalar f.

    Pushes the fixed fourth tangential derivative through the covariant
    gradient of the smoothed geometry, subtracts the covariant gradient
    of the good unknown and the three-term remainder, and returns the
    ratio of the L2 norms of the defect and of the left-hand side.
    """
    grid = cache.grid
    ae = cache.a_s
    disp_s = grid.displacement(cache.eta_s)

    G = cov_grad(grid, ae, f)
    lhs = np.stack([_d4(grid, G[alpha]) for alpha in range(3)])

    d4eta = np.stack([_d4(grid, disp_s[gamma]) for gamma in range(3)])
    F = _d4(grid, f) - np.einsum("g...,g...->...", d4eta, G)
    grad_F = cov_grad(grid, ae, F)

    gradG = np.stack([cov_grad(grid, ae, G[gamma]) for gamma in range(3)])  # (gamma, alpha, ...)
    term1 = np.einsum("g...,ga...->a...", d4eta, gradG)

    # W[gamma, beta] = d1 d_beta of the smoothed displacement
    W = grid.gradient(grid.derivative(disp_s, 1)).swapaxes(0, 1)
    df = grid.gradient(f)
    term2 = np.zeros_like(G)
    for alpha in range(3):
        for mu in range(3):
            c = np.einsum("g...,b...,gb...->...", ae[mu], ae[:, alpha], W)
            cw = sum(
                ae[mu, g] * ae[b, alpha] * _d3(grid, W[g, b])
                for g in range(3) for b in range(3)
            )
            term2[alpha] += (_d3(grid, c) - cw) * df[mu]

    term3 = np.zeros_like(G)
    for alpha in range(3):
        for mu in range(3):
            term3[alpha] += (
                _d4(grid, ae[mu, alpha] * df[mu])
                - _d4(grid, ae[mu, alpha]) * df[mu]
                - ae[mu, alpha] * _d4(grid, df[mu])
            )

    C = term1 - term2 + term3
    defect = lhs - grad_F - C
    num = np.sqrt(sum(grid.low_norm(defect[alpha]) ** 2 for alpha in range(3)))
    den = np.sqrt(sum(grid.low_norm(lhs[alpha]) ** 2 for alpha in range(3)))
    return float(num / den) if den > 0 else float(num)


# ----------------------------------------------------------------------
# lemma battery


@dataclass
class LemmaReport:
    """Empirical constants for the div-curl, elliptic and trace estimates."""

    rows: list[dict] = field(default_factory=list)

    def values(self, check: str) -> list[float]:
        return [r["value"] for r in self.rows if r["check"] == check]


def _flat_div(grid: Grid, X: np.ndarray) -> np.ndarray:
    return sum(grid.derivative(X[i], i + 1) for i in range(3))


def _flat_curl(grid: Grid, X: np.ndarray) -> np.ndarray:
    return curl_from_gradient(grid.gradient(X))


def lemma_suite(
    grid: Grid,
    seed: int = 0,
    kappa: float = 0.1,
) -> LemmaReport:
    """Measure the constants in the normal-trace div-curl estimate, the
    variable-coefficient elliptic gradient estimate, and the harmonic
    trace sandwich on single modes.

    Each random corpus holds four samples.  The report carries one row
    per (check, sample/mode, order); the estimates hold when the values
    stay bounded as the corpus and the resolution vary, which is what the
    tests assert.
    """
    rng = np.random.default_rng(seed)
    report = LemmaReport()

    # div-curl with normal trace
    for i in range(4):
        X = random_vector(grid, rng, band=3, n3_modes=2)
        for s in (1, 2):
            num = grid.norm(X, s)
            den = (
                grid.norm(X, 0)
                + grid.norm(_flat_curl(grid, X), s - 1)
                + grid.norm(_flat_div(grid, X), s - 1)
                + grid.norm(grid.boundary_slices(X[2]), s - 0.5, where="boundary")
            )
            report.rows.append({
                "check": "hodge", "label": f"sample {i} s={s}", "value": num / den,
            })

    # elliptic gradient bound on a perturbed map, Dirichlet test fields
    eta = perturbed_map(grid, rng, eps=0.05, band=1)
    cache = build_geometry(grid, eta, kappa)
    eta_s_norm = map_norm(grid, cache.eta_s, 2)
    # tangential columns of the smoothed deformation gradient
    dbar_norm = grid.norm(deformation_gradient(grid, cache.eta_s)[:, :2], 2)
    P = (1.0 + eta_s_norm) ** 3
    for i in range(4):
        f = wall_vanishing_scalar(grid, rng, band=2)
        num = grid.norm(cov_grad(grid, cache.a_s, f), 2)
        den = P * (
            grid.norm(cov_laplacian(grid, cache.a_s, f), 1) + dbar_norm * grid.norm(f, 2)
        )
        report.rows.append({
            "check": "elliptic", "label": f"sample {i}", "value": num / den,
        })

    # harmonic trace sandwich on single modes, with the closed-form pin
    Y1 = grid.y1[:, None]
    Y2 = grid.y2[None, :]
    for (m1, m2) in ((1, 0), (2, 1), (0, 3)):
        k = 2.0 * np.pi * np.hypot(m1, m2)
        g = np.zeros((2, grid.spec.n1, grid.spec.n2))
        g[0] = np.cos(2.0 * np.pi * (m1 * Y1 + m2 * Y2))
        psi = harmonic_extension(grid, g)
        closed = (np.sinh(2.0 * k) / (2.0 * k) - 1.0) / (4.0 * np.sinh(k) ** 2)
        report.rows.append({
            "check": "trace_pin", "label": f"mode ({m1} {m2})",
            "value": abs(grid.low_norm(psi) ** 2 - closed) / closed,
        })
        ratio = grid.norm(psi, 1) / grid.norm(g, 0.5, where="boundary")
        report.rows.append({
            "check": "trace_ratio", "label": f"mode ({m1} {m2})", "value": ratio,
        })
    return report
