"""Energy functionals, residual audits and the empirical lemma battery.

Everything here is read-only over trajectories: each function reads the
smoothed geometry and correction field from ``Trajectory.geometry``,
the same per-node arrays the solver froze, so the diagnostics cannot
drift out of sync with the solver state.  ``energy_functionals`` is
the one pass over the nodes: it takes each node's gradient tables of Q
and b once and reads from them the energies, the constraints and, with
``residuals=True``, the defects of every evolution equation.  The other
trajectory diagnostics read its columns.
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
    cov_grad_vector_from_gradient,
    cov_laplacian,
    curl_from_gradient,
    deformation_gradient,
)
from .grid import Grid
from .linear_step import Trajectory
from .smoothing import mollify
from .state import taylor_margin_from_gradient


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
# the per-node diagnostics pass


ENERGY_COLUMNS = (
    "t", "E_total", "E_eta4", "E_boundary", "E_v", "E_b", "E_q",
    "H_run", "H_b", "W_q", "E_phys", "D_diss", "balance_residual",
    "taylor_margin", "small_geometry", "div_b",
)


@dataclass
class EnergyReport:
    """Tabulated energy functionals along a trajectory, and the equation
    defects when the pass computed them."""

    kappa: float
    dt: float
    truncation_order: int
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    residuals: dict[str, np.ndarray] = field(default_factory=dict)

    def rows(self):
        n = len(self.columns["t"])
        for j in range(n):
            yield {name: float(self.columns[name][j]) for name in ENERGY_COLUMNS}

    def constraint_rows(self, c0: float | None = None, epsilon: float = 0.1) -> list[dict]:
        """Per-node div b, Taylor margin and geometry gauge, with flags for a
        margin below c0 / 2 and a gauge above epsilon (the run's thresholds)."""
        c = self.columns
        return [{"t": float(t), "div_b": float(div_b), "taylor_margin": float(margin),
                 "small_geometry": float(small),
                 "taylor_ok": bool(c0 is None or margin >= 0.5 * c0),
                 "small_ok": bool(small <= epsilon)}
                for t, div_b, margin, small
                in zip(c["t"], c["div_b"], c["taylor_margin"], c["small_geometry"])]


def small_geometry_norm(grid: Grid, a_s: np.ndarray, J_s: np.ndarray) -> float:
    """||Js - 1||_3 + ||Id - a~||_3, the closeness-to-identity gauge."""
    delta = np.eye(3)[:, :, None, None, None] - a_s
    return float(grid.norm(J_s - 1.0, 3) + grid.norm(delta, 3))


def energy_functionals(traj: Trajectory, order: int = 2, residuals: bool = False) -> EnergyReport:
    """Tabulate the truncated energy scale, the physical energy balance and
    the constraints along a trajectory, in one pass over its nodes.

    ``order`` is the highest time-derivative order entering the interior
    sums (the full scale would run to order 4; the desk-scale default
    stops at 2 and the report header says so).  With ``residuals`` the
    pass also fills ``EnergyReport.residuals`` with the defects of the
    evolution equations, contracted from the same per-node tables.
    """
    grid, dt, kappa = traj.grid, traj.dt, traj.kappa
    n = len(traj)
    if residuals:
        _require_history(n, 2)  # the wave equation reads three nodes

    cols: dict[str, np.ndarray] = {name: np.zeros(n) for name in ENERGY_COLUMNS}
    cols["t"] = traj.times
    Ek = {name: _time_energies(grid, traj.stack(name), dt, order) for name in ("v", "b", "q")}
    audit = {name: np.empty(n) for name in ("eta", "v", "q", "b", "wave")} if residuals else {}
    for j in range(n):
        _node_pass(traj, j, cols, audit)

    for name in ("v", "b", "q"):
        cols["E_" + name] = sum(Ek[name])
    cols["E_total"] = cols["E_eta4"] + cols["E_boundary"] + cols["E_v"] + cols["E_b"] + cols["E_q"]

    # running and pointwise parts of the heat/wave companions
    hb_run = Ek["b"][0]
    cols["H_run"] = np.concatenate([[0.0], np.cumsum(0.5 * dt * (hb_run[1:] + hb_run[:-1]))])
    if order == 0:  # no time derivative: both companions are undefined
        cols["H_b"], cols["W_q"] = np.full(n, np.nan), np.full(n, np.nan)
    else:
        cols["H_b"] = Ek["b"][1]
        cols["W_q"] = Ek["q"][0] + Ek["q"][1]

    # the defect of E(t_j) - E(t_{j-1}) + trapezoid of D over the step
    D = cols["D_diss"]
    cols["balance_residual"][1:] = np.diff(cols["E_phys"]) + 0.5 * dt * (D[1:] + D[:-1])

    return EnergyReport(kappa=kappa, dt=dt, truncation_order=order, columns=cols, residuals=audit)


def _node_pass(traj: Trajectory, j: int, cols: dict, audit: dict) -> None:
    """Fill node j of every column, and of ``audit`` when it has keys, from
    one covariant gradient of Q and, where b is nonzero, one gradient table
    of b.  The tables go when this returns, before the next node's come."""
    grid, eos, geo = traj.grid, traj.eos, traj.geometry
    s = traj.states[j]
    a, J_s, b = geo.a_s[j], geo.J_s[j], s.b

    cols["E_eta4"][j] = map_norm(grid, s.eta, 4) ** 2
    # boundary term: fourth tangential derivatives of the once-mollified
    # displacement, contracted with the third row of the smoothed inverse
    disp_w = mollify(grid, grid.boundary_slices(grid.displacement(s.eta)), traj.kappa)
    aw = grid.boundary_slices(a)
    lap_w = grid.tangential_laplacian(disp_w)
    for i in range(2):
        for k in range(2):
            dij = grid.derivative(grid.derivative(lap_w, i + 1), k + 1)
            T = np.einsum("a...,a...->...", aw[2], dij)
            cols["E_boundary"][j] += grid.norm(T, 0, where="boundary") ** 2

    cols["small_geometry"][j] = small_geometry_norm(grid, a, J_s)
    grad_Q = cov_grad(grid, a, s.Q)
    cols["taylor_margin"][j] = taylor_margin_from_gradient(grad_Q)
    kinetic = 0.5 * grid.integrate(s.rho0 * np.sum(s.v * s.v, axis=0))
    magnetic = 0.5 * grid.integrate(J_s * np.sum(b * b, axis=0))
    internal = grid.integrate(s.rho0 * np.asarray(eos.q_potential(eos.rho(s.q))))
    cols["E_phys"][j] = kinetic + magnetic + internal
    # every magnetic table is exactly zero at a field-free node, and so are
    # its div_b and D_diss
    b_tables = None
    if np.any(b):
        gb = grid.gradient(b)
        Gb, div_b = cov_grad_vector_from_gradient(grid, a, gb), cov_div_from_gradient(grid, a, gb)
        Gb2 = np.sum(Gb * Gb, axis=(0, 1))  # |grad_a b|^2
        cols["div_b"][j] = grid.low_norm(div_b)
        cols["D_diss"][j] = eos.diffusivity * grid.integrate(J_s * Gb2)
        b_tables = (Gb, div_b, Gb2)
    if audit:
        for name, value in _defects(traj, j, grad_Q, b_tables).items():
            audit[name][j] = value


def _defects(traj: Trajectory, j: int, grad_Q: np.ndarray, b_tables) -> dict[str, float]:
    """L2 defects at node j of the smoothed nonlinear system (``eta``, ``v``,
    ``q``, ``b``) and of the second-order pressure-head equation (``wave``,
    the time derivative of continuity with momentum substituted), in the
    trajectory's own geometry and correction field.  On a converged fixed
    point every defect is scheme error (time and wall stencils, dealiasing).
    """
    grid, eos, dt, geo = traj.grid, traj.eos, traj.dt, traj.geometry
    states = traj.states
    s, rho0, n = states[j], states[0].rho0, len(states)
    a, J_s, b = geo.a_s[j], geo.J_s[j], s.b
    Jr = J_s / rho0

    def field(name):
        return lambda k: getattr(states[k], name)

    def weight(k):
        # the acoustic weight r = Js R'(q) / rho0
        return geo.J_s[k] * np.asarray(eos.rho_p(states[k].q)) / rho0

    def d_dt(row, order=1):
        return time_difference(row, n, j, dt, order)

    gv = grid.gradient(s.v)
    Gv, div_v = cov_grad_vector_from_gradient(grid, a, gv), cov_div_from_gradient(grid, a, gv)
    lap_b = lorentz = transport = rhs = w0 = 0.0
    if b_tables is not None:
        Gb, div_b, Gb2 = b_tables
        # column l of Gb is the covariant gradient of b_l
        lap_b = np.stack([cov_div(grid, a, Gb[:, l]) for l in range(3)])
        lorentz = np.einsum("a...,al...->l...", b, Gb)
        transport = np.einsum("a...,al...->l...", b, Gv) - b * div_v
        # from lap(|b|^2 / 2) in Q, not from the induction equation: no diffusivity
        rhs = Jr * np.einsum("l...,l...->...", b, lap_b)
        w0 = Jr * (
            Gb2
            - np.einsum("al...,la...->...", Gb, Gb)
            - np.einsum("a...,a...->...", b, cov_grad(grid, a, div_b))
        )
    r = weight(j)
    dq = d_dt(field("q"))

    out = {"eta": grid.low_norm(d_dt(field("eta")) - s.v - geo.psi[j])}
    r_v = (rho0 / J_s)[None] * d_dt(field("v")) - lorentz + grad_Q
    out["v"] = grid.low_norm(r_v)
    out["q"] = grid.low_norm(r * dq + div_v)
    out["b"] = grid.low_norm(d_dt(field("b")) - eos.diffusivity * lap_b - transport)

    lhs = r * d_dt(field("q"), 2) - Jr * cov_laplacian(grid, a, s.q)
    w0 = w0 - d_dt(weight) * dq
    w0 -= np.einsum("ma...,ma...->...", d_dt(geo.a_s.__getitem__), gv)
    w0 -= np.einsum("l...,l...->...", lorentz - grad_Q, cov_grad(grid, a, Jr))
    out["wave"] = grid.low_norm(lhs - rhs - w0)
    return out


# ----------------------------------------------------------------------
# readers of the pass


def physical_energy_balance(traj: Trajectory):
    """Physical energy, resistive dissipation and the step residuals: the
    pass's (E_phys, D_diss, balance_residual) columns; an exact balance
    makes the residual zero."""
    c = energy_functionals(traj, order=0).columns
    return c["E_phys"], c["D_diss"], c["balance_residual"]


def constraint_residuals(traj: Trajectory, c0: float | None = None,
                         epsilon: float = 0.1) -> list[dict]:
    """Per-node constraint table of the pass: see ``EnergyReport.constraint_rows``."""
    return energy_functionals(traj, order=0).constraint_rows(c0, epsilon)


def divergence_monitor(traj: Trajectory, drift_constant: float) -> tuple[np.ndarray, np.ndarray]:
    """Flag nodes whose div_a b exceeds the calibrated drift envelope.

    The envelope is 1e-8 + drift_constant * t * (dt + h3^2); data
    that starts divergence-free stays under it, while corrupted data
    trips the flag immediately.
    """
    h3 = traj.grid.h3
    div = energy_functionals(traj, order=0).columns["div_b"]
    envelope = 1e-8 + drift_constant * traj.times * (traj.dt + h3 * h3)
    return div, div > envelope


def nonlinear_residuals(traj: Trajectory) -> dict[str, np.ndarray]:
    """The pass's four first-order defects per node (``eta``, ``v``, ``q``, ``b``)."""
    audit = energy_functionals(traj, order=0, residuals=True).residuals
    return {name: audit[name] for name in ("eta", "v", "q", "b")}


def wave_equation_residual(traj: Trajectory) -> np.ndarray:
    """The pass's second-order pressure-head defect per node."""
    return energy_functionals(traj, order=0, residuals=True).residuals["wave"]


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
