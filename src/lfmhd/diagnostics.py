"""Energy functionals, residual audits and the empirical lemma battery.

Everything here is read-only over trajectories: each function reads the
smoothed geometry and correction field from ``Trajectory.geometry``,
the same per-node arrays the solver froze, so the diagnostics cannot
drift out of sync with the solver state.  ``energy_functionals`` is
the one pass over the nodes: it takes each node's gradient tables of Q
and b once and reads from them the energies, the constraints and, with
``residuals=True``, the defects of every evolution equation, and returns
them as one table of columns.  The other trajectory diagnostics read it.
"""

from __future__ import annotations

import numpy as np

from .correction import harmonic_extension
from .fields import perturbed_map, random_vector, wall_vanishing_scalar
from .geometry import (
    GeometryCache,
    build_geometry,
    cov_div,
    cov_grad,
    cov_grad_vector,
    cov_laplacian,
    curl_from_gradient,
    deformation_gradient,
)
from .grid import Grid
from .linear_step import Trajectory, acoustic_weight
from .smoothing import mollify
from .state import taylor_sign_margin


# ----------------------------------------------------------------------
# time differences on snapshot stacks


# the highest time-derivative order in the energy sums (the full scale
# runs to order 4; the desk-scale laboratory stops at 2)
TRUNCATION_ORDER = 2


def _require_history(n: int, order: int) -> None:
    # every stencil of order 1 or 2 reads three nodes
    if order and n < 3:
        raise ValueError(f"insufficient history: order-{order} time derivative needs "
                         f"at least 3 snapshots, got {n}")
    if order not in (0, 1, 2):
        raise ValueError(f"time derivative order must be 0, 1 or 2, got {order}")


def time_difference(seq, j: int, dt: float, order: int) -> np.ndarray:
    """Row j of the discrete d/dt of the node sequence ``seq`` (a list of
    node arrays or a stack with the nodes on axis 0).

    Second order where possible: centered inside, one-sided at the ends;
    with exactly three nodes the order-2 end rows fall back to the interior
    stencil.  Reads at most four nodes, so no whole-sequence stack is needed.
    """
    if order == 0:
        return seq[j]
    n = len(seq)
    _require_history(n, order)
    if order == 1:
        if j == 0:
            return (-3.0 * seq[0] + 4.0 * seq[1] - seq[2]) / (2.0 * dt)
        if j == n - 1:
            return (3.0 * seq[j] - 4.0 * seq[j - 1] + seq[j - 2]) / (2.0 * dt)
        return (seq[j + 1] - seq[j - 1]) / (2.0 * dt)
    if n < 4:
        j = 1
    elif j == 0:
        return (2.0 * seq[0] - 5.0 * seq[1] + 4.0 * seq[2] - seq[3]) / (dt * dt)
    elif j == n - 1:
        return (2.0 * seq[j] - 5.0 * seq[j - 1] + 4.0 * seq[j - 2] - seq[j - 3]) / (dt * dt)
    return (seq[j + 1] - 2.0 * seq[j] + seq[j - 1]) / (dt * dt)


def _time_energies(grid: Grid, fields, dt: float, order: int) -> np.ndarray:
    """Row k, column j: the squared H^k norm at node j of the (order - k)-th
    time difference of a sequence of node fields; shape (order + 1, nodes).

    Each node is transformed once: the time differences are formed, one
    normal order at a time, from the nodes' normal spectra
    (``Grid.normal_spectra``), since both the time stencil and the y3
    stencil are linear.  An identically zero sequence, such as b in a
    field-free run, gives the exact zero table without a transform."""
    n = len(fields)
    _require_history(n, order)
    out = np.zeros((order + 1, n))
    if not any(np.any(f) for f in fields):
        return out
    # by_order[p3][m]: node m's p3-th normal spectrum
    by_order = list(zip(*[list(grid.normal_spectra(f, order)) for f in fields]))
    for k in range(order + 1):
        for j in range(n):
            out[k, j] = grid.sobolev_sq(
                (time_difference(seq, j, dt, order - k) for seq in by_order[:k + 1]), k)
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
    if len(t1) != len(t2) or abs(t1.dt - t2.dt) > 1e-9 * max(t1.dt, t2.dt):
        raise ValueError(
            f"trajectories have different time lattices: "
            f"{len(t1)} nodes at dt = {t1.dt} vs {len(t2)} at dt = {t2.dt}"
        )


def difference_energy(t1: Trajectory, t2: Trajectory) -> np.ndarray:
    """Order-limited difference energy per time node.

    At each node this sums, over k = 0..m with m = ``TRUNCATION_ORDER``,
    the squared H^k norms of the (m - k)-th time differences of [v], [b],
    [q], plus the squared H^m norm of the map difference [eta].
    """
    _check_comparable(t1, t2)
    grid, dt = t1.grid, t1.dt
    n = len(t1)
    total = np.zeros(n)
    pairs = list(zip(t1.states, t2.states))
    for name in ("v", "b", "q"):
        diffs = [getattr(s1, name) - getattr(s2, name) for s1, s2 in pairs]
        for row in _time_energies(grid, diffs, dt, TRUNCATION_ORDER):
            total += row
    for j, (s1, s2) in enumerate(pairs):
        total[j] += grid.norm(s1.eta - s2.eta, TRUNCATION_ORDER) ** 2
    return total


# ----------------------------------------------------------------------
# the per-node diagnostics pass


ENERGY_COLUMNS = (
    "t", "E_total", "E_eta4", "E_boundary", "E_v", "E_b", "E_q",
    "H_run", "H_b", "W_q", "E_phys", "D_diss", "balance_residual",
    "taylor_margin", "small_geometry", "div_b",
)

# the equation defects the pass adds with residuals=True: the smoothed
# nonlinear system (eta, v, q, b) and the second-order pressure-head equation
RESIDUAL_COLUMNS = ("res_eta", "res_v", "res_q", "res_b", "wave_residual")

# largest geometry gauge the a priori assumptions admit
SMALL_GEOMETRY = 0.1


def constraint_rows(columns: dict[str, np.ndarray], c0: float | None) -> list[dict]:
    """Per-node div b, Taylor margin and geometry gauge of the pass's table,
    with flags for a margin below c0 / 2 and a gauge above ``SMALL_GEOMETRY``."""
    return [{"t": float(t), "div_b": float(div_b), "taylor_margin": float(margin),
             "small_geometry": float(small),
             "taylor_ok": bool(c0 is None or margin >= 0.5 * c0),
             "small_ok": bool(small <= SMALL_GEOMETRY)}
            for t, div_b, margin, small
            in zip(*(columns[name] for name in ("t", "div_b", "taylor_margin", "small_geometry")))]


def small_geometry_norm(grid: Grid, a_s: np.ndarray, J_s: np.ndarray) -> float:
    """||Js - 1||_3 + ||Id - a~||_3, the closeness-to-identity gauge."""
    delta = np.eye(3)[:, :, None, None, None] - a_s
    return float(grid.norm(J_s - 1.0, 3) + grid.norm(delta, 3))


# an overflow shows as a non-finite cell, which the table writers refuse
@np.errstate(all="ignore")
def energy_functionals(traj: Trajectory, residuals: bool = False) -> dict[str, np.ndarray]:
    """Tabulate the truncated energy scale, the physical energy balance and
    the constraints along a trajectory, in one pass over its nodes: one
    column per name of ``ENERGY_COLUMNS``, in that order.

    The interior sums run to time-derivative order ``TRUNCATION_ORDER``,
    so the trajectory needs at least three nodes.  With ``residuals`` the
    table also holds the ``RESIDUAL_COLUMNS``, the defects of the
    evolution equations, contracted from the same per-node tables.
    """
    grid, dt = traj.grid, traj.dt
    n = len(traj)
    cols: dict[str, np.ndarray] = {name: np.zeros(n) for name in ENERGY_COLUMNS}
    cols["t"] = traj.times
    Ek = {name: _time_energies(grid, [getattr(s, name) for s in traj.states], dt,
                               TRUNCATION_ORDER)
          for name in ("v", "b", "q")}
    weight = None
    if residuals:
        cols.update((name, np.empty(n)) for name in RESIDUAL_COLUMNS)
        weight = acoustic_weight(traj)
    for j in range(n):
        _node_pass(traj, j, cols, weight)

    for name in ("v", "b", "q"):
        cols["E_" + name] = sum(Ek[name])
    cols["E_total"] = cols["E_eta4"] + cols["E_boundary"] + cols["E_v"] + cols["E_b"] + cols["E_q"]

    # running and pointwise parts of the heat/wave companions
    hb_run = Ek["b"][0]
    cols["H_run"] = np.concatenate([[0.0], np.cumsum(0.5 * dt * (hb_run[1:] + hb_run[:-1]))])
    cols["H_b"] = Ek["b"][1]
    cols["W_q"] = Ek["q"][0] + Ek["q"][1]

    # the defect of E(t_j) - E(t_{j-1}) + trapezoid of D over the step
    D = cols["D_diss"]
    cols["balance_residual"][1:] = np.diff(cols["E_phys"]) + 0.5 * dt * (D[1:] + D[:-1])

    return cols


def _node_pass(traj: Trajectory, j: int, cols: dict, weight) -> None:
    """Fill node j of every column, the defects too when the acoustic
    ``weight`` is given, from one covariant gradient of Q and, where b is
    nonzero, one gradient table of b.  The tables go when this returns,
    before the next node's come."""
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
        di = grid.derivative(lap_w, i + 1)
        for k in range(2):
            dij = grid.derivative(di, k + 1)
            T = np.einsum("a...,a...->...", aw[2], dij)
            cols["E_boundary"][j] += grid.norm(T, 0) ** 2

    cols["small_geometry"][j] = small_geometry_norm(grid, a, J_s)
    grad_Q = cov_grad(grid, a, grid.gradient(s.Q))
    cols["taylor_margin"][j] = taylor_sign_margin(grad_Q)
    kinetic = 0.5 * grid.integrate(s.rho0 * np.sum(s.v * s.v, axis=0))
    magnetic = 0.5 * grid.integrate(J_s * np.sum(b * b, axis=0))
    internal = grid.integrate(s.rho0 * np.asarray(eos.q_potential(eos.rho(s.q))))
    cols["E_phys"][j] = kinetic + magnetic + internal
    # every magnetic table is exactly zero at a field-free node, and so are
    # its div_b and D_diss
    b_tables = None
    if np.any(b):
        gb = grid.gradient(b)
        Gb, div_b = cov_grad_vector(grid, a, gb), cov_div(grid, a, gb)
        Gb2 = np.sum(Gb * Gb, axis=(0, 1))  # |grad_a b|^2
        cols["div_b"][j] = grid.low_norm(div_b)
        cols["D_diss"][j] = eos.diffusivity * grid.integrate(J_s * Gb2)
        b_tables = (Gb, div_b, Gb2)
    if weight is not None:
        _defects(traj, j, grad_Q, b_tables, weight, cols)


def _defects(traj: Trajectory, j: int, grad_Q: np.ndarray, b_tables, weight,
             cols: dict) -> None:
    """Fill node j of the ``RESIDUAL_COLUMNS``: the L2 defects of the
    smoothed nonlinear system (``res_eta``, ``res_v``, ``res_q``, ``res_b``)
    and of the second-order pressure-head equation (``wave_residual``, the
    time derivative of continuity with momentum substituted), in the
    trajectory's own geometry, correction field and stacked acoustic
    ``weight``.  On a converged fixed point every defect is scheme error
    (time and wall stencils, dealiasing).
    """
    grid, eos, dt, geo = traj.grid, traj.eos, traj.dt, traj.geometry
    states = traj.states
    s, rho0 = states[j], states[0].rho0
    a, J_s, b = geo.a_s[j], geo.J_s[j], s.b
    Jr = J_s / rho0

    def d_dt(seq, order=1):
        return time_difference(seq, j, dt, order)

    def nodes(name):
        return [getattr(st, name) for st in states]

    gv = grid.gradient(s.v)
    Gv, div_v = cov_grad_vector(grid, a, gv), cov_div(grid, a, gv)
    lap_b = lorentz = transport = rhs = w0 = 0.0
    if b_tables is not None:
        Gb, div_b, Gb2 = b_tables
        lap_b = cov_laplacian(grid, a, Gb)
        lorentz = np.einsum("a...,al...->l...", b, Gb)
        transport = np.einsum("a...,al...->l...", b, Gv) - b * div_v
        # from lap(|b|^2 / 2) in Q, not from the induction equation: no diffusivity
        rhs = Jr * np.einsum("l...,l...->...", b, lap_b)
        w0 = Jr * (
            Gb2
            - np.einsum("al...,la...->...", Gb, Gb)
            - np.einsum("a...,a...->...", b, cov_grad(grid, a, grid.gradient(div_b)))
        )
    r, q = weight[j], nodes("q")
    dq = d_dt(q)

    cols["res_eta"][j] = grid.low_norm(d_dt(nodes("eta")) - s.v - geo.psi[j])
    r_v = (rho0 / J_s)[None] * d_dt(nodes("v")) - lorentz + grad_Q
    cols["res_v"][j] = grid.low_norm(r_v)
    cols["res_q"][j] = grid.low_norm(r * dq + div_v)
    cols["res_b"][j] = grid.low_norm(d_dt(nodes("b")) - eos.diffusivity * lap_b - transport)

    lap_q = cov_laplacian(grid, a, cov_grad(grid, a, grid.gradient(s.q)))
    lhs = r * d_dt(q, 2) - Jr * lap_q
    w0 = w0 - d_dt(weight) * dq
    w0 -= np.einsum("ma...,ma...->...", d_dt(geo.a_s), gv)
    w0 -= np.einsum("l...,l...->...", lorentz - grad_Q, cov_grad(grid, a, grid.gradient(Jr)))
    cols["wave_residual"][j] = grid.low_norm(lhs - rhs - w0)


# ----------------------------------------------------------------------
# readers of the pass


def physical_energy_balance(traj: Trajectory):
    """Physical energy, resistive dissipation and the step residuals: the
    pass's (E_phys, D_diss, balance_residual) columns; an exact balance
    makes the residual zero."""
    c = energy_functionals(traj)
    return c["E_phys"], c["D_diss"], c["balance_residual"]


def constraint_residuals(traj: Trajectory, c0: float | None = None) -> list[dict]:
    """Per-node constraint table of the pass: see ``constraint_rows``."""
    return constraint_rows(energy_functionals(traj), c0)


def divergence_monitor(traj: Trajectory, drift_constant: float) -> tuple[np.ndarray, np.ndarray]:
    """Flag nodes whose div_a b exceeds the calibrated drift envelope.

    The envelope is 1e-8 + drift_constant * t * (dt + h3^2); data
    that starts divergence-free stays under it, while corrupted data
    trips the flag immediately.
    """
    h3 = traj.grid.h3
    div = energy_functionals(traj)["div_b"]
    envelope = 1e-8 + drift_constant * traj.times * (traj.dt + h3 * h3)
    return div, div > envelope


def nonlinear_residuals(traj: Trajectory) -> dict[str, np.ndarray]:
    """The pass's four first-order defects per node (``eta``, ``v``, ``q``, ``b``)."""
    table = energy_functionals(traj, residuals=True)
    return {name: table["res_" + name] for name in ("eta", "v", "q", "b")}


def wave_equation_residual(traj: Trajectory) -> np.ndarray:
    """The pass's second-order pressure-head defect per node."""
    return energy_functionals(traj, residuals=True)["wave_residual"]


# ----------------------------------------------------------------------
# the good-unknown decomposition audit


def _d4(grid: Grid, f: np.ndarray) -> np.ndarray:
    # the fixed fourth tangential derivative d1 d2 lap_t
    return grid.derivative(grid.derivative(grid.tangential_laplacian(f), 1), 2)


def _d3(grid: Grid, f: np.ndarray) -> np.ndarray:
    # d4 with the first tangential derivative peeled off
    return grid.derivative(grid.tangential_laplacian(f), 2)


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

    df = grid.gradient(f)
    G = cov_grad(grid, ae, df)
    lhs = _d4(grid, G)

    d4eta = _d4(grid, disp_s)
    F = _d4(grid, f) - np.einsum("g...,g...->...", d4eta, G)
    grad_F = cov_grad(grid, ae, grid.gradient(F))

    gradG = np.stack([cov_grad(grid, ae, grid.gradient(g)) for g in G])  # (gamma, alpha, ...)
    term1 = np.einsum("g...,ga...->a...", d4eta, gradG)

    # W[gamma, beta] = d1 d_beta of the smoothed displacement
    W = grid.gradient(grid.derivative(disp_s, 1)).swapaxes(0, 1)
    d3W = _d3(grid, W)
    d4f = _d4(grid, df)
    term2 = np.zeros_like(G)
    term3 = np.zeros_like(G)
    for alpha in range(3):
        for mu in range(3):
            c = np.einsum("g...,b...,gb...->...", ae[mu], ae[:, alpha], W)
            cw = sum(
                ae[mu, g] * ae[b, alpha] * d3W[g, b]
                for g in range(3) for b in range(3)
            )
            term2[alpha] += (_d3(grid, c) - cw) * df[mu]
            term3[alpha] += (
                _d4(grid, ae[mu, alpha] * df[mu])
                - _d4(grid, ae[mu, alpha]) * df[mu]
                - ae[mu, alpha] * d4f[mu]
            )

    C = term1 - term2 + term3
    defect = lhs - grad_F - C
    num = np.sqrt(sum(grid.low_norm(defect[alpha]) ** 2 for alpha in range(3)))
    den = np.sqrt(sum(grid.low_norm(lhs[alpha]) ** 2 for alpha in range(3)))
    return float(num / den) if den > 0 else float(num)


# ----------------------------------------------------------------------
# lemma battery


def lemma_suite(
    grid: Grid,
    seed: int,
    kappa: float = 0.1,
) -> list[dict]:
    """Measure the constants in the normal-trace div-curl estimate, the
    variable-coefficient elliptic gradient estimate, and the harmonic
    trace sandwich on single modes.

    Each random corpus holds four samples.  Returns one row per (check,
    sample/mode, order); the estimates hold when the values
    stay bounded as the corpus and the resolution vary, which is what the
    tests assert.
    """
    rng = np.random.default_rng(seed)
    rows = []

    # div-curl with normal trace
    for i in range(4):
        X = random_vector(grid, rng, band=3, n3_modes=2)
        G = grid.gradient(X)
        curl, div = curl_from_gradient(G), G[0, 0] + G[1, 1] + G[2, 2]
        x0 = grid.norm(X, 0)
        for s in (1, 2):
            num = grid.norm(X, s)
            den = (
                x0
                + grid.norm(curl, s - 1)
                + grid.norm(div, s - 1)
                + grid.norm(grid.boundary_slices(X[2]), s - 0.5)
            )
            rows.append({
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
        Gf = cov_grad(grid, cache.a_s, grid.gradient(f))
        num = grid.norm(Gf, 2)
        den = P * (
            grid.norm(cov_laplacian(grid, cache.a_s, Gf), 1) + dbar_norm * grid.norm(f, 2)
        )
        rows.append({
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
        rows.append({
            "check": "trace_pin", "label": f"mode ({m1} {m2})",
            "value": abs(grid.low_norm(psi) ** 2 - closed) / closed,
        })
        ratio = grid.norm(psi, 1) / grid.norm(g, 0.5)
        rows.append({
            "check": "trace_ratio", "label": f"mode ({m1} {m2})", "value": ratio,
        })
    return rows
