"""Acceptance battery: one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  The drift and balance envelope constants below
were frozen after a single calibration pass and are deliberately not
refit here; a red criterion means the claim failed at its stated
tolerance, not that a constant drifted.
"""

import numpy as np
import pytest

import lfmhd
import lfmhd.fields as fields
from lfmhd.correction import correction_field, harmonic_extension
from lfmhd.diagnostics import (
    SMALL_GEOMETRY,
    alinhac_residual,
    constraint_residuals,
    divergence_monitor,
    physical_energy_balance,
)
from lfmhd.geometry import build_geometry, piola_residual
from lfmhd.linear_step import (
    FrozenCoefficients,
    SmoothedGeometry,
    Trajectory,
    advance_linearized,
    implicit_diffusion_solve,
    trivial_trajectory,
)
from lfmhd.picard import NonContractionError
from lfmhd.smoothing import commutator, mollify
from lfmhd.state import FlowState

# Frozen calibration constants (single pass, committed):
# balance envelope C1 * kappa + C2 * dt + C3 * h3^2 and the div-b drift
# constant.  The calibration corpus showed no measurable kappa or h3
# dependence of the balance residual, so those coefficients are zero.
BALANCE_C1 = 0.0
BALANCE_C2 = 0.06
BALANCE_C3 = 0.0
DRIFT_C = 0.05


@pytest.fixture(scope="module")
def grid16():
    return lfmhd.Grid(lfmhd.GridSpec(16, 16, 16))


@pytest.fixture(scope="module")
def eos():
    return lfmhd.EquationOfState()


@pytest.fixture(scope="module")
def quiescent_sweep(grid16, eos):
    # shared by criteria 2 and 9: descending cascade on the standard preset
    init = lfmhd.make_initial_data(grid16, "quiescent", amplitude=0.1, seed=0, eos=eos)
    return lfmhd.kappa_sweep(init, kappas=(0.2, 0.1, 0.05), T=0.05, dt=0.0125)


@pytest.fixture(scope="module")
def contraction_run(grid16, eos):
    # shared by criteria 8 and 11: converged short-horizon quiescent solve
    init = lfmhd.make_initial_data(grid16, "quiescent", amplitude=0.04, seed=0, eos=eos)
    return lfmhd.solve_nonlinear_kappa(
        init, kappa=0.1, T=0.05, dt=0.0125, tol=1e-8, max_iter=8,
    )


# ----------------------------------------------------------------------
# criterion 1: geometry identities


def test_criterion_01_piola_identity(grid16):
    flat = build_geometry(grid16, grid16.identity_map, 0.0)
    assert piola_residual(flat) <= 1e-12
    errs = []
    for n3 in (16, 32, 64):
        g = lfmhd.Grid(lfmhd.GridSpec(16, 16, n3))
        eta = fields.perturbed_map(g, np.random.default_rng(7), eps=0.1, band=1)
        errs.append(piola_residual(build_geometry(g, eta, 0.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.8, f"refinement orders {orders} from {errs}"


# ----------------------------------------------------------------------
# criterion 2: correction term


def _cheb(n):
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** np.arange(n + 1)
    dx = np.tile(x, (n + 1, 1)).T - np.tile(x, (n + 1, 1))
    D = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    return D - np.diag(D.sum(axis=1)), x


def _dense_laplace_extension(grid, g, npts=48):
    """Direct dense solve of the wall-data Laplace problem, per mode.

    Independent oracle for the modal extension: Chebyshev collocation of
    w'' = |xi|^2 w on (0, 1) with the same Dirichlet data, dense LU per
    tangential mode, then polynomial evaluation at the lattice levels.
    """
    n1, n2 = grid.spec.n1, grid.spec.n2
    D, x = _cheb(npts)
    y = 0.5 * (x + 1.0)  # y[0] = 1 is the top wall, y[-1] = 0 the bottom
    D2 = 4.0 * (D @ D)
    k1 = 2.0 * np.pi * np.fft.fftfreq(n1, d=1.0 / n1)
    k2 = 2.0 * np.pi * np.fft.fftfreq(n2, d=1.0 / n2)
    ksq = k1[:, None] ** 2 + k2[None, :] ** 2
    gb = np.fft.fft2(g[0])
    gt = np.fft.fft2(g[1])
    w = np.empty((n1, n2, npts + 1), dtype=complex)
    interior = D2[1:-1, 1:-1]
    for i in range(n1):
        for j in range(n2):
            A = interior - ksq[i, j] * np.eye(npts - 1)
            rhs = -(D2[1:-1, 0] * gt[i, j] + D2[1:-1, -1] * gb[i, j])
            w[i, j, 1:-1] = np.linalg.solve(A, rhs)
            w[i, j, 0] = gt[i, j]
            w[i, j, -1] = gb[i, j]
    wt = np.ones(npts + 1)
    wt[0] = wt[-1] = 0.5
    wt = wt * (-1.0) ** np.arange(npts + 1)
    diff = grid.y3[:, None] - y[None, :]
    hit = np.abs(diff) < 1e-14
    diff[hit] = 1.0
    K = wt[None, :] / diff
    vals = (K @ w.reshape(-1, npts + 1).T) / K.sum(axis=1)[:, None]
    vals = vals.T.reshape(n1, n2, grid.spec.n3 + 1)
    for a, b in zip(*np.nonzero(hit)):
        vals[:, :, a] = w[:, :, b]
    return np.real(np.fft.ifft2(vals, axes=(0, 1)))


def test_criterion_02_correction_term(grid16, quiescent_sweep):
    rng = np.random.default_rng(0)
    v = fields.random_vector(grid16, rng, band=2, n3_modes=2)
    flat = build_geometry(grid16, grid16.identity_map, 0.1)
    psi = correction_field(grid16, grid16.identity_map, v, flat.a_s, 0.1)
    assert np.abs(psi).max() == 0.0  # identity map: datum vanishes exactly

    eta = fields.perturbed_map(grid16, rng, eps=0.05, band=1)
    cache = build_geometry(grid16, eta, 0.1)
    psi = correction_field(grid16, eta, np.zeros_like(v), cache.a_s, 0.1)
    assert np.abs(psi).max() == 0.0  # zero velocity: datum vanishes exactly

    g = rng.standard_normal((2, 16, 16))
    u = harmonic_extension(grid16, g)
    oracle = _dense_laplace_extension(grid16, g)
    rel = np.abs(u - oracle).max() / np.abs(u).max()
    assert rel <= 1e-8, f"modal extension vs dense solve: rel sup {rel:.3e}"

    _, _, rows = quiescent_sweep
    psi_max = [row["psi_max"] for row in rows]
    assert psi_max[0] > psi_max[1] > psi_max[2], (
        f"max_t correction norm not decreasing over kappa {[row['kappa'] for row in rows]}: "
        f"{psi_max} (values sit at the cancellation noise floor of this preset "
        f"and the largest two kappas lie beyond the per-mode-pair decay peak)"
    )


# ----------------------------------------------------------------------
# criterion 3: mollifier inequality suite


def test_criterion_03_mollifier_suite(grid16):
    rng = np.random.default_rng(2)
    smooth = [fields.random_boundary_smooth(grid16, rng) for _ in range(20)]
    rough = [fields.random_boundary_rough(grid16, rng) for _ in range(20)]

    for f in smooth + rough:
        for s in (0, 1, 2):
            before = grid16.norm(f, s)
            after = grid16.norm(mollify(grid16, f, 0.1), s)
            assert after <= before * (1.0 + 1e-12)

    kappas = np.array([0.2, 0.1, 0.05, 0.025])
    slopes = []
    for f in smooth:
        errs = np.array([np.abs(mollify(grid16, f, k) - f).max() for k in kappas])
        slopes.append(np.polyfit(np.log(kappas), np.log(errs), 1)[0])
    assert min(slopes) >= 0.45, f"smallest fitted decay exponent {min(slopes):.3f}"

    worst = {}
    for k in (0.2, 0.1, 0.05):
        consts = []
        for f, h in zip(smooth, rough):
            c = grid16.norm(commutator(grid16, f, h, k), 0)
            consts.append(c / (np.abs(f).max() * grid16.norm(h, 0)))
        worst[k] = max(consts)
    vals = list(worst.values())
    for a, b in zip(vals, vals[1:]):
        assert b <= 2.0 * a and a <= 2.0 * b, f"commutator constants {worst}"


# ----------------------------------------------------------------------
# criterion 4: good-unknown identity


def test_criterion_04_alinhac_identity(grid16):
    rng = np.random.default_rng(0)
    flat = build_geometry(grid16, grid16.identity_map, 0.1)
    f = fields.random_scalar(grid16, rng, band=2, n3_modes=2)
    assert alinhac_residual(flat, f) <= 1e-10

    residuals = []
    for n in (32, 64):
        g = lfmhd.Grid(lfmhd.GridSpec(n, n, n))
        rng_n = np.random.default_rng(7)
        eta = fields.perturbed_map(g, rng_n, eps=0.05, band=1)
        cache = build_geometry(g, eta, 0.1)
        f_n = fields.random_scalar(g, rng_n, band=2, n3_modes=2)
        residuals.append(alinhac_residual(cache, f_n))
    assert residuals[0] <= 1e-3, f"n = 32 relative residual {residuals[0]:.3e}"
    assert residuals[1] < residuals[0], f"no decrease under refinement: {residuals}"


# ----------------------------------------------------------------------
# criterion 5: linearity of the linearized step


def _random_frozen(grid, eos, rng, nodes, dt):
    """Coefficients frozen from random maps and heads with b* = 0; a random
    field stands in for the correction field, injected with the geometry
    the way ``trivial_trajectory`` injects its constants."""
    shape = grid.shape
    n = nodes
    psi = np.empty((n, 3) + shape)
    a_s = np.empty((n, 3, 3) + shape)
    J_s = np.empty((n,) + shape)
    rho0 = np.ones(shape)
    states = []
    for j in range(n):
        eta = fields.perturbed_map(grid, rng, eps=0.03, band=1)
        cache = build_geometry(grid, eta, 0.1)
        psi[j] = 0.05 * fields.random_vector(grid, rng, band=1, n3_modes=1)
        a_s[j] = cache.a_s
        J_s[j] = cache.J_s
        states.append(FlowState(
            grid=grid, eos=eos, t=j * dt, eta=eta, v=np.zeros((3,) + shape),
            b=np.zeros((3,) + shape),
            q=0.1 * fields.random_scalar(grid, rng, band=1, n3_modes=1), rho0=rho0,
        ))
    traj = Trajectory(grid=grid, eos=eos, kappa=0.1, dt=dt, states=states)
    traj.geometry = SmoothedGeometry(a_s=a_s, J_s=J_s, build_psi=lambda: psi)
    return FrozenCoefficients.freeze(traj)


def test_criterion_05_linearized_superposition(grid16, eos):
    rng = np.random.default_rng(123)
    dt = 0.005
    frozen = _random_frozen(grid16, eos, rng, nodes=5, dt=dt)
    shape = grid16.shape
    rho0 = np.ones(shape)

    def make_state(disp, v, q):
        return FlowState(
            grid=grid16, eos=eos, t=0.0, eta=grid16.identity_map + disp,
            v=v, b=np.zeros((3,) + shape), q=q, rho0=rho0,
        )

    def advance(state):
        return advance_linearized(frozen, state)

    def draw_input(scale):
        disp = scale * (fields.perturbed_map(grid16, rng, eps=1.0, band=1)
                        - grid16.identity_map)
        v = scale * fields.random_vector(grid16, rng, band=1, n3_modes=1)
        q = scale * fields.wall_vanishing_scalar(grid16, rng, band=1)
        return disp, v, q

    zero = (np.zeros((3,) + shape), np.zeros((3,) + shape), np.zeros(shape))
    base = advance(make_state(*zero))
    in1, in2 = draw_input(0.02), draw_input(0.02)
    out1 = advance(make_state(*in1))
    out2 = advance(make_state(*in2))

    worst = 0.0
    for _ in range(3):
        c1, c2 = rng.uniform(-2.0, 2.0, size=2)
        combined = advance(make_state(*(c1 * a + c2 * b for a, b in zip(in1, in2))))
        for j in range(len(base)):
            for name in ("eta", "v", "q", "b"):
                ref = getattr(base.states[j], name)
                lhs = getattr(combined.states[j], name) - ref
                rhs = (c1 * (getattr(out1.states[j], name) - ref)
                       + c2 * (getattr(out2.states[j], name) - ref))
                den = np.abs(rhs).max()
                if den > 1e-28:
                    worst = max(worst, np.abs(lhs - rhs).max() / den)
    assert worst <= 1e-8, f"superposition relative defect {worst:.3e}"


# ----------------------------------------------------------------------
# criterion 6: energy dissipation


def _heat_trajectory(grid, eos, dt, nsteps, seed=3):
    rng = np.random.default_rng(seed)
    b = fields.random_vector(grid, rng, band=2, n3_modes=2)
    b[..., 0] = 0.0
    b[..., -1] = 0.0
    shape = grid.shape
    rho0 = np.ones(shape)
    cache = build_geometry(grid, grid.identity_map, 0.0)
    states = []
    for j in range(nsteps + 1):
        states.append(FlowState(
            grid=grid, eos=eos, t=j * dt, eta=grid.identity_map.copy(),
            v=np.zeros((3,) + shape), b=b.copy(), q=np.zeros(shape), rho0=rho0,
        ))
        b = implicit_diffusion_solve(grid, cache.a_s, b, dt, tol=1e-12)
    return Trajectory(grid=grid, eos=eos, kappa=0.0, dt=dt, states=states)


def test_criterion_06_energy_dissipation(grid16, eos):
    init = lfmhd.make_initial_data(grid16, "quiescent", amplitude=0.0, seed=0,
                                   eos=eos, c0=0.0)
    traj, _ = lfmhd.solve_nonlinear_kappa(init, kappa=0.1, T=0.025, dt=0.0125)
    _, _, res = physical_energy_balance(traj)
    assert np.all(res == 0.0), "all-zero run must balance bitwise"

    rels = []
    for dt in (0.02, 0.01, 0.005):
        heat = _heat_trajectory(grid16, eos, dt, int(round(0.08 / dt)))
        _, D, res = physical_energy_balance(heat)
        rels.append(np.abs(res[1:]).max() / D.max())
    ratios = [a / b for a, b in zip(rels, rels[1:])]
    assert all(1.6 <= r <= 2.6 for r in ratios), (
        f"diffusion balance residual should halve with dt: {rels} -> {ratios}"
    )

    g32 = lfmhd.Grid(lfmhd.GridSpec(32, 32, 32))
    kappa, dt = 0.1, 0.01
    init32 = lfmhd.make_initial_data(g32, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    run32, _ = lfmhd.solve_nonlinear_kappa(init32, kappa=kappa, T=0.1, dt=dt)
    _, _, res32 = physical_energy_balance(run32)
    envelope = BALANCE_C1 * kappa + BALANCE_C2 * dt + BALANCE_C3 * g32.h3 ** 2
    peak = float(np.abs(res32).max())
    assert peak <= envelope, f"balance residual {peak:.3e} outside envelope {envelope:.3e}"


def _advanced_heat_trajectory(grid, eos, dt, nsteps, seed=3):
    # the field of a b* = 0 advance sees neither v nor q: each step is the
    # backward-Euler diffusion of the last b; v and q are dropped, so the
    # balance reads magnetic energy against resistive dissipation alone
    rng = np.random.default_rng(seed)
    b = fields.random_vector(grid, rng, band=2, n3_modes=2)
    b[..., 0] = 0.0
    b[..., -1] = 0.0
    shape = grid.shape
    rho0 = np.ones(shape)
    init = FlowState(grid=grid, eos=eos, t=0.0, eta=grid.identity_map.copy(),
                     v=np.zeros((3,) + shape), b=b, q=np.zeros(shape), rho0=rho0)
    frozen = FrozenCoefficients.freeze(trivial_trajectory(grid, eos, rho0, 0.0, dt, nsteps))
    out = advance_linearized(frozen, init, diffusion_tol=1e-12)
    states = [FlowState(grid=grid, eos=eos, t=s.t, eta=grid.identity_map.copy(),
                        v=np.zeros((3,) + shape), b=s.b, q=np.zeros(shape), rho0=rho0)
              for s in out.states]
    return Trajectory(grid=grid, eos=eos, kappa=0.0, dt=dt, states=states)


@pytest.mark.parametrize("diffusivity", [0.25, 4.0])
def test_criterion_06_halving_at_other_diffusivities(grid16, diffusivity):
    # the advance diffuses at dt * lambda, so the balance residual against
    # D = lambda |grad b|^2 halves with dt whatever lambda is
    eos = lfmhd.EquationOfState(diffusivity=diffusivity)
    rels = []
    for dt in (0.02, 0.01, 0.005):
        heat = _advanced_heat_trajectory(grid16, eos, dt, int(round(0.08 / dt)))
        _, D, res = physical_energy_balance(heat)
        rels.append(np.abs(res[1:]).max() / D.max())
    ratios = [a / b for a, b in zip(rels, rels[1:])]
    assert all(1.6 <= r <= 2.6 for r in ratios), (
        f"diffusion balance residual should halve with dt at lambda = {diffusivity}: "
        f"{rels} -> {ratios}"
    )


# ----------------------------------------------------------------------
# criterion 7: divergence propagation


def test_criterion_07_divergence_propagation(grid16, eos):
    init = lfmhd.make_initial_data(grid16, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    traj, _ = lfmhd.solve_nonlinear_kappa(init, kappa=0.1, T=0.1, dt=0.01)
    div, flags = divergence_monitor(traj, DRIFT_C)
    bound = div[0] + DRIFT_C * traj.times * (traj.dt + grid16.h3 ** 2) + 1e-8
    assert np.all(div <= bound), f"div drift {div.max():.3e} above {bound.max():.3e}"
    assert not flags.any()

    rng = np.random.default_rng(9)
    bad = init.copy()
    bad.b[2] += 1e-4 * fields.wall_vanishing_scalar(grid16, rng, band=1)
    with pytest.raises(lfmhd.InitialDataError):
        lfmhd.solve_nonlinear_kappa(bad, kappa=0.1, T=0.02, dt=0.01)

    tampered = [s.copy() for s in traj.states]
    tampered[0].b[2] += 1e-4 * fields.wall_vanishing_scalar(grid16, rng, band=1)
    corrupted = Trajectory(grid=grid16, eos=eos, kappa=traj.kappa, dt=traj.dt,
                           states=tampered)
    _, bad_flags = divergence_monitor(corrupted, DRIFT_C)
    assert bad_flags[0], "corrupted data must be flagged within one step"


# ----------------------------------------------------------------------
# criterion 8: contraction of the iteration


def test_criterion_08_picard_contraction(grid16, eos, contraction_run):
    _, log = contraction_run
    d = np.array(log.d_history)
    ratios = d[1:] / d[:-1]
    assert log.converged and log.iterations <= 8, (log.iterations, log.stop_reason)
    assert np.all(ratios <= 0.5), f"contraction ratios {ratios}"

    init = lfmhd.make_initial_data(grid16, "quiescent", amplitude=0.45, seed=0, eos=eos)
    fired_at = None
    T = 0.05
    while T <= 12.8:
        try:
            lfmhd.solve_nonlinear_kappa(
                init, kappa=0.1, T=T, dt=0.05 / 3.0, tol=1e-8, max_iter=8,
            )
        except NonContractionError as err:
            fired_at, error = T, err
            break
        T *= 2.0
    assert fired_at is not None, "doubling T never left the contraction regime"
    # the refusal carries its evidence and says what to do
    assert "smaller T" in str(error)
    assert len(error.d_history) >= 3


# ----------------------------------------------------------------------
# criterion 9: Cauchy in the smoothing scale


def test_criterion_09_cauchy_in_kappa(quiescent_sweep):
    _, _, rows = quiescent_sweep
    deltas = [row["delta_to_prev"] for row in rows]
    deltas = [d for d in deltas if d is not None]
    assert len(deltas) == 2
    assert deltas[0] > deltas[1] > 0.0, f"cascade deltas {deltas} not decreasing"


# ----------------------------------------------------------------------
# criterion 10: uniqueness probe


def test_criterion_10_uniqueness_probe(grid16, eos):
    init = lfmhd.make_initial_data(grid16, "quiescent", amplitude=0.1, seed=0, eos=eos)

    def solve(tol):
        traj, _ = lfmhd.solve_nonlinear_kappa(
            init, kappa=0.1, T=0.05, dt=0.0125, tol=tol,
        )
        return traj

    loose, tight = solve(1e-8), solve(1e-10)
    gap = float(np.max(lfmhd.difference_energy(loose, tight)))
    assert gap <= 10.0 * 1e-8, f"tolerance gap {gap:.3e}"

    again = solve(1e-8)
    for s1, s2 in zip(loose.states, again.states):
        for name in ("eta", "v", "b", "q"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name)), name


# ----------------------------------------------------------------------
# criterion 11: a priori assumptions persist


def test_criterion_11_a_priori_persistence(contraction_run):
    traj, _ = contraction_run
    # the flags are the regime rule: margin >= c0 / 2, gauge <= SMALL_GEOMETRY
    rows = constraint_residuals(traj, c0=0.25)
    margins = [row["taylor_margin"] for row in rows]
    smalls = [row["small_geometry"] for row in rows]
    # measured: min margin 0.4489 against c0 / 2 = 0.125
    assert all(row["taylor_ok"] for row in rows), f"Taylor margin dipped to {min(margins):.4f}"
    # measured: max gauge 0.0938
    assert all(row["small_ok"] for row in rows), \
        f"geometry gauge reached {max(smalls):.4f} > {SMALL_GEOMETRY}"
