"""Frozen coefficients, CFL gate, implicit diffusion, linearized advance."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lfmhd
from lfmhd import linear_step

from lfmhd.fields import perturbed_map, wall_vanishing_scalar
from lfmhd.geometry import build_geometry, cov_div, cov_grad, cov_grad_vector, cov_laplacian
from lfmhd.grid import Grid, GridSpec
from lfmhd.linear_step import (
    BreakdownError,
    CflError,
    DiffusionSolveError,
    FrozenCoefficients,
    advance_linearized,
    implicit_diffusion_solve,
    trivial_trajectory,
)
from lfmhd.state import FlowState, make_initial_data

KAPPA = 0.1
DT = 0.0125


def _zero_state(grid, eos):
    return FlowState(
        grid=grid, eos=eos, t=0.0, eta=grid.identity_map.copy(),
        v=np.zeros((3,) + grid.shape), b=np.zeros((3,) + grid.shape),
        q=np.zeros(grid.shape), rho0=np.full(grid.shape, eos.rho(0.0)),
    )


def test_trivial_trajectory_is_static(grid16, eos):
    traj = trivial_trajectory(grid16, eos, np.full(grid16.shape, 1.0), KAPPA, DT, 4)
    assert len(traj) == 5
    assert np.allclose(traj.times, DT * np.arange(5))
    for s in traj.states:
        assert np.abs(s.v).max() == 0.0
        assert np.abs(s.eta - grid16.identity_map).max() == 0.0


def test_trivial_geometry_constants_match_a_build(grid16, eos):
    traj = trivial_trajectory(grid16, eos, np.full(grid16.shape, 1.0), KAPPA, DT, 2)
    cache = build_geometry(grid16, grid16.identity_map, KAPPA)
    v = np.zeros((3,) + grid16.shape)
    psi = linear_step.correction_field(grid16, grid16.identity_map, v, cache.a_s, KAPPA)
    geo = traj.geometry
    for j in range(3):
        np.testing.assert_array_equal(geo.a_s[j], cache.a_s)
        np.testing.assert_array_equal(geo.J_s[j], cache.J_s)
        np.testing.assert_array_equal(geo.psi[j], psi)


def test_nan_head_refused_at_freeze(grid_small, eos):
    traj = trivial_trajectory(grid_small, eos, np.full(grid_small.shape, 1.0), KAPPA, DT, 3)
    traj.states[1].q[2, 3, 4] = np.nan
    with pytest.raises(ValueError, match=r"acoustic weight r must be positive: node 1 "):
        FrozenCoefficients.freeze(traj)


def test_frozen_weight_refusal_is_a_breakdown(grid_small, eos):
    traj = trivial_trajectory(grid_small, eos, np.full(grid_small.shape, 1.0), KAPPA, DT, 3)
    traj.states[2].q[1, 1, 1] = np.nan
    with pytest.raises(BreakdownError, match="node 2 "):
        FrozenCoefficients.freeze(traj)


def test_non_finite_step_raises_breakdown_naming_the_node(grid_small, eos):
    st = make_initial_data(grid_small, "quiescent", amplitude=0.1, seed=3)
    frozen = FrozenCoefficients.freeze(
        trivial_trajectory(grid_small, eos, st.rho0, KAPPA, DT, 3))
    st.v[0, 2, 3, 4] = np.nan
    with pytest.raises(BreakdownError, match=r"^v is not finite at node 1 \(t = 0.0125\)$"):
        advance_linearized(frozen, st)


def test_nan_cfl_bound_refused_before_the_advance(grid_small, eos):
    st = _zero_state(grid_small, eos)
    frozen = FrozenCoefficients.freeze(
        trivial_trajectory(grid_small, eos, st.rho0, KAPPA, DT, 3))
    frozen.r[1, 2, 3, 4] = np.nan
    with pytest.raises(CflError, match="nan"):
        advance_linearized(frozen, st)


def test_frozen_coefficients_interpolate(grid16, eos, rng):
    traj = trivial_trajectory(grid16, eos, np.full(grid16.shape, 1.0), KAPPA, DT, 4)
    field = rng.standard_normal((3,) + grid16.shape)
    for j, s in enumerate(traj.states):
        s.b = j * field
    frozen = FrozenCoefficients.freeze(traj)
    assert frozen.traj is traj
    node = frozen.node(2)
    assert node.b is traj.states[2].b
    assert np.array_equal(node.b, 2 * field)
    mid = frozen.midpoint(1)
    assert np.array_equal(mid.b, 0.5 * field + 0.5 * (2 * field))
    for s in (node, mid):
        assert np.abs(s.J_s - 1.0).max() < 1e-13
        assert np.abs(s.psi).max() == 0.0
        assert np.abs(s.r - 1.0).max() < 1e-12


def test_frozen_nodes_are_read_in_place(grid_small, eos, rng):
    st = make_initial_data(grid_small, "magnetic-tube", amplitude=0.1, seed=3, eos=eos)
    states = []
    for j in range(3):
        s = st.copy()
        s.t = j * DT
        s.eta = perturbed_map(grid_small, rng, eps=0.05)
        states.append(s)
    traj = linear_step.Trajectory(grid=grid_small, eos=eos, kappa=KAPPA, dt=DT, states=states)
    frozen = FrozenCoefficients.freeze(traj)
    assert [f.name for f in dataclasses.fields(frozen)] == ["traj", "r"]
    assert not hasattr(traj, "stack")
    geo = traj.geometry
    for j in range(3):
        node = frozen.node(j)
        for name in ("a_s", "J_s", "psi"):
            assert np.shares_memory(getattr(node, name), getattr(geo, name)), name
            assert np.array_equal(getattr(node, name), getattr(geo, name)[j]), name
        assert node.b is traj.states[j].b


def test_cfl_bound_and_error(grid16, eos):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 4)
    frozen = FrozenCoefficients.freeze(traj)
    bound = frozen.cfl_bound()
    assert 0.0 < bound < 1.0
    with pytest.raises(CflError) as err:
        advance_linearized(
            FrozenCoefficients.freeze(dataclasses.replace(traj, dt=2.0 * bound)), st)
    msg = str(err.value)
    assert "CFL" in msg and "bound" in msg


def test_cfl_bound_is_the_reciprocal_sound_speed(grid16, eos, rng):
    # c^2 = Js / (rho0 r) = 1 / R'(q) pointwise, whatever the map and the
    # reference density; a large c0 makes rho0 far from 1
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3, c0=4.0)
    states = []
    for j in range(3):
        s = st.copy()
        s.t = j * DT
        s.eta = perturbed_map(grid16, rng, eps=0.05)
        states.append(s)
    frozen = FrozenCoefficients.freeze(
        linear_step.Trajectory(grid=grid16, eos=eos, kappa=KAPPA, dt=DT, states=states))
    assert np.abs(frozen.traj.geometry.J_s - 1.0).max() > 1e-3 and np.abs(st.rho0 - 1.0).max() > 1.0
    want = linear_step.CFL_SAFETY * grid16.h3 * np.sqrt(eos.rho_p(st.q).min())
    assert frozen.cfl_bound() == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("c0", [0.25, 2.0, 4.0])
def test_cfl_gate_sits_within_a_factor_two_below_the_scheme_limit(grid_small, eos,
                                                                  monkeypatch, c0):
    # admitted acoustic data frozen on every node of a 40-step lattice
    init = make_initial_data(grid_small, "acoustic", amplitude=0.1, seed=0, eos=eos, c0=c0)
    states = [init.copy() for _ in range(41)]
    traj = linear_step.Trajectory(grid=grid_small, eos=eos, kappa=KAPPA, dt=1.0, states=states)
    frozen = FrozenCoefficients.freeze(traj)
    gate = frozen.cfl_bound()
    # R'(0) = 1 and q = 0 on the walls, so the gate is CFL_SAFETY h3 for any c0
    assert gate == linear_step.CFL_SAFETY * grid_small.h3
    monkeypatch.setattr(linear_step, "CFL_SAFETY", np.inf)
    v0 = np.abs(init.v).max()

    def growth(dt):
        out = advance_linearized(
            FrozenCoefficients.freeze(dataclasses.replace(traj, dt=dt)), init)
        return max(np.abs(s.v).max() for s in out.states) / v0

    # measured: 4.9, 13.5 and 22.6 for c0 = 0.25, 2 and 4
    assert growth(gate) <= 30.0
    # measured: 2.2e8, 1.2e6 and 7.0e3
    assert growth(2.0 * gate) >= 1e3


def test_zero_data_stays_zero(grid16, eos):
    st = _zero_state(grid16, eos)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 4)
    frozen = FrozenCoefficients.freeze(traj)
    out = advance_linearized(frozen, st)
    for s in out.states:
        assert np.abs(s.v).max() == 0.0
        assert np.abs(s.b).max() == 0.0
        assert np.abs(s.q).max() == 0.0
        assert np.abs(s.eta - grid16.identity_map).max() == 0.0


def test_walls_enforced_every_node(grid16, eos):
    st = make_initial_data(grid16, "acoustic", amplitude=0.2, seed=3)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 8)
    frozen = FrozenCoefficients.freeze(traj)
    out = advance_linearized(frozen, st)
    for s in out.states:
        assert np.abs(s.q[..., 0]).max() == 0.0
        assert np.abs(s.q[..., -1]).max() == 0.0
        assert np.abs(s.b[..., 0]).max() == 0.0
        assert np.abs(s.b[..., -1]).max() == 0.0


def test_implicit_diffusion_matches_dense_modal_solve(grid16, rng):
    # oracle: at flat geometry the backward Euler step diagonalizes in
    # tangential modes; per mode a dense solve of the interior matrix
    # (I - dt (D33 - |xi|^2)) pins the answer
    g = grid16
    cache = build_geometry(g, g.identity_map, KAPPA)
    rhs = wall_vanishing_scalar(g, rng, band=2)
    dt = 0.01
    sol = implicit_diffusion_solve(g, cache.a_s, rhs, dt)

    n3 = g.spec.n3
    D3 = g._stencil3(np.eye(n3 + 1)).T
    D33 = (D3 @ D3)[1:-1, 1:-1]
    rh = np.fft.fft2(rhs, axes=(0, 1))
    sh = np.fft.fft2(sol, axes=(0, 1))
    errs = []
    for i1, i2 in ((0, 0), (1, 0), (2, 3)):
        ksq = g.k1[i1] ** 2 + g.k2[i2] ** 2
        M = (1.0 + dt * ksq) * np.eye(n3 - 1) - dt * D33
        u = np.linalg.solve(M, rh[i1, i2, 1:-1])
        errs.append(np.abs(u - sh[i1, i2, 1:-1]).max())
    assert max(errs) < 1e-7, errs


def test_implicit_diffusion_zero_rhs_shortcut(grid16):
    cache = build_geometry(grid16, grid16.identity_map, KAPPA)
    out = implicit_diffusion_solve(grid16, cache.a_s, np.zeros(grid16.shape), 0.01)
    assert np.abs(out).max() == 0.0


def test_implicit_diffusion_perturbed_geometry_converges(grid16, rng, monkeypatch):
    eta = perturbed_map(grid16, rng, eps=0.05)
    cache = build_geometry(grid16, eta, KAPPA)
    rhs = wall_vanishing_scalar(grid16, rng, band=2)
    sol = implicit_diffusion_solve(grid16, cache.a_s, rhs, 0.01)
    assert np.isfinite(sol).all()
    assert np.abs(sol[..., 0]).max() == 0.0
    # iteration budget too small -> named failure
    monkeypatch.setattr(linear_step, "DIFFUSION_MAX_ITER", 1)
    with pytest.raises(DiffusionSolveError):
        implicit_diffusion_solve(grid16, cache.a_s, rhs, 0.01)


def test_a_zero_true_residual_is_not_a_stall(grid_small, rng):
    # at dt = tol = 1e-300 the Krylov loop stops on a rho breakdown, yet the
    # x it returns solves the system exactly: the true residual decides
    a_s = build_geometry(grid_small, grid_small.identity_map, KAPPA).a_s
    rhs = rng.standard_normal(grid_small.shape)
    rhs[..., [0, -1]] = 0.0
    sol = implicit_diffusion_solve(grid_small, a_s, rhs, 1e-300, tol=1e-300)
    assert np.array_equal(sol, rhs)


@pytest.mark.parametrize("scale", [1e8, 1e-15, 1e-20, 1e-100])
def test_implicit_diffusion_solve_is_scale_invariant(grid16, rng, scale):
    # the Krylov breakdown test scales with the right-hand side, so a
    # component whose norm is rounding noise is solved like any other
    eta = perturbed_map(grid16, rng, eps=0.05)
    a_s = build_geometry(grid16, eta, KAPPA).a_s
    rhs = wall_vanishing_scalar(grid16, rng, band=2)
    sol = implicit_diffusion_solve(grid16, a_s, rhs, 0.01)
    scaled = implicit_diffusion_solve(grid16, a_s, scale * rhs, 0.01)
    assert np.abs(scaled / scale - sol).max() <= 1e-13 * np.abs(sol).max()


def test_nan_rhs_stops_the_krylov_loop_at_once(grid16, rng, monkeypatch):
    eta = perturbed_map(grid16, rng, eps=0.05)
    cache = build_geometry(grid16, eta, KAPPA)
    rhs = wall_vanishing_scalar(grid16, rng, band=2)
    rhs[3, 3, 3] = np.nan
    matvecs = []

    def counting(*args):
        matvecs.append(None)
        return cov_laplacian(*args)

    monkeypatch.setattr(linear_step, "cov_laplacian", counting)
    with pytest.raises(DiffusionSolveError, match="residual is non-finite") as err:
        implicit_diffusion_solve(grid16, cache.a_s, rhs, 0.01)
    assert err.value.iterations <= 1
    # two per iteration, plus the final residual check
    assert len(matvecs) <= 3


def test_bicgstab_matches_scipy(grid16, rng, monkeypatch):
    sla = pytest.importorskip("scipy.sparse.linalg")
    eta = perturbed_map(grid16, rng, eps=0.05)
    a_s = build_geometry(grid16, eta, KAPPA).a_s
    rhs = wall_vanishing_scalar(grid16, rng, band=2)
    # the operator, preconditioner and right-hand side of a real solve
    system = {}
    own = linear_step.bicgstab

    def capture(matvec, b, **kwargs):
        system.update(matvec=matvec, b=b, M=kwargs["M"])
        return own(matvec, b, **kwargs)

    monkeypatch.setattr(linear_step, "bicgstab", capture)
    implicit_diffusion_solve(grid16, a_s, rhs, 0.01)
    matvec, b, psolve = system["matvec"], system["b"], system["M"]
    size = b.size
    iters = {"own": 0, "scipy": 0}

    def counter(name):
        def count(_):
            iters[name] += 1
        return count

    x, iterations = own(matvec, b, rtol=1e-9, maxiter=500, M=psolve, callback=counter("own"))
    ref, ref_info = sla.bicgstab(
        sla.LinearOperator((size, size), matvec=matvec, dtype=float), b,
        rtol=1e-9, atol=0.0, maxiter=500,
        M=sla.LinearOperator((size, size), matvec=psolve, dtype=float),
        callback=counter("scipy"),
    )
    assert ref_info == 0
    assert iterations == iters["own"] == iters["scipy"] > 1
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


_THREAD_PROBE = """
import hashlib
import numpy as np
from lfmhd.fields import perturbed_map, wall_vanishing_scalar
from lfmhd.geometry import build_geometry
from lfmhd.grid import Grid, GridSpec
from lfmhd.linear_step import implicit_diffusion_solve
from lfmhd.smoothing import mollify
grid = Grid(GridSpec(32, 32, 32))
rng = np.random.default_rng(7)
a_s = build_geometry(grid, perturbed_map(grid, rng, eps=0.05), 0.1).a_s
rhs = wall_vanishing_scalar(grid, rng, band=3)
f = rng.standard_normal((3,) + grid.shape)
outs = (implicit_diffusion_solve(grid, a_s, rhs, 0.01), grid.dealias(f), mollify(grid, f, 0.1, 2),
        grid.tangential_laplacian(f), grid.gradient(f))
print(" ".join(hashlib.sha256(x.tobytes()).hexdigest() for x in outs))
"""


def test_diffusion_solve_independent_of_blas_threads():
    # 32^3 vectors are above OpenBLAS's threading threshold; 16^3 ones are
    # not.  The tangential operators run as matrix products along each axis,
    # so they are hashed too.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cores < 2:
        pytest.skip("needs two cores to run two BLAS threads")
    src = str(Path(lfmhd.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests


def test_step_diffuses_at_the_diffusivity(grid16):
    # with b* = 0 the step's field is the backward-Euler diffusion of the
    # initial b at dt * lambda
    steps = {}
    for lam in (1.0, 0.25):
        eos = lfmhd.EquationOfState(diffusivity=lam)
        st = make_initial_data(grid16, "magnetic-tube", amplitude=0.3, seed=3, eos=eos)
        frozen = FrozenCoefficients.freeze(trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 1))
        b1 = advance_linearized(frozen, st).final.b
        np.testing.assert_array_equal(
            b1, implicit_diffusion_solve(grid16, frozen.node(1).a_s, st.b, DT * lam))
        steps[lam] = b1
    assert np.abs(steps[0.25] - steps[1.0]).max() > 1e-3 * np.abs(steps[1.0]).max()


def test_diffusion_unconditionally_stable_per_step(grid16, eos):
    # with velocity frozen to zero the field obeys pure backward Euler
    # diffusion; its L2 norm cannot grow for any dt
    st = make_initial_data(grid16, "magnetic-tube", amplitude=0.3, seed=3)
    st.v[...] = 0.0
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, 0.02, 5)
    frozen = FrozenCoefficients.freeze(traj)
    out = advance_linearized(frozen, st)
    norms = [grid16.low_norm(s.b) for s in out.states]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12, norms


def test_nonzero_dynamics_move_the_state(grid16, eos):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 4)
    frozen = FrozenCoefficients.freeze(traj)
    out = advance_linearized(frozen, st)
    assert np.abs(out.final.eta - grid16.identity_map).max() > 1e-5
    assert np.abs(out.final.q - st.q).max() > 1e-4


# ----------------------------------------------------------------------
# a vanishing frozen field: the magnetic terms are exact zeros


def _reference_advance(grid, frozen, init, dt, nsteps):
    """The advance with the general rate formulas, which compute the
    Lorentz force and the induction transport whatever the frozen b."""
    rho0 = init.rho0

    def rates(smp, v, q, grad_b, half_b2):
        lorentz = np.einsum("a...,al...->l...", smp.b,
                            cov_grad_vector(grid, smp.a_s, grad_b))
        grad_Q = grid.gradient(q + half_b2)
        dv = (smp.J_s / rho0)[None] * (lorentz - cov_grad(grid, smp.a_s, grad_Q))
        return v + smp.psi, dv, -cov_div(grid, smp.a_s, grid.gradient(v)) / smp.r

    def walls(q):
        q[..., 0] = 0.0
        q[..., -1] = 0.0
        return q

    state = init.copy()
    states = [state]
    for n in range(nsteps):
        b = state.b
        half_b2 = 0.5 * np.sum(b * b, axis=0)
        grad_b = grid.gradient(b)
        k1 = rates(frozen.node(n), state.v, state.q, grad_b, half_b2)
        v_m = state.v + 0.5 * dt * k1[1]
        q_m = walls(state.q + 0.5 * dt * k1[2])
        k2 = rates(frozen.midpoint(n), v_m, q_m, grad_b, half_b2)
        v_n = state.v + dt * k2[1]
        s1 = frozen.node(n + 1)
        grad_v = grid.gradient(v_n)
        transport = np.einsum(
            "a...,al...->l...", s1.b, cov_grad_vector(grid, s1.a_s, grad_v)
        ) - s1.b * cov_div(grid, s1.a_s, grad_v)
        state = FlowState(
            grid=grid, eos=init.eos, t=n * dt + dt, eta=state.eta + dt * k2[0], v=v_n,
            b=implicit_diffusion_solve(grid, s1.a_s, b + dt * transport, dt),
            q=walls(state.q + dt * k2[2]), rho0=rho0,
        )
        states.append(state)
    return states


def _frozen_field_vanishing_at(grid, eos, init, nodes):
    """Coefficients frozen from a magnetic advance, with b* zeroed at ``nodes``."""
    first = advance_linearized(
        FrozenCoefficients.freeze(trivial_trajectory(grid, eos, init.rho0, KAPPA, DT, 4)), init)
    for j in nodes:
        first.states[j].b = np.zeros_like(init.b)
    return FrozenCoefficients.freeze(first)


@pytest.mark.parametrize("nodes", [(0, 2, 3), (0, 1, 2, 3, 4)], ids=["mixed", "field-free"])
def test_vanishing_frozen_field_matches_the_general_formulas_bitwise(grid16, eos, nodes):
    # mixed: stage 1 of step 0 and both stages of step 2 see b* = 0, the
    # b steps into nodes 2 and 3 too; field-free: every stage and b step
    init = make_initial_data(grid16, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    frozen = _frozen_field_vanishing_at(grid16, eos, init, nodes)
    assert [bool(np.any(s.b)) for s in frozen.traj.states] == [j not in nodes for j in range(5)]
    out = advance_linearized(frozen, init)
    ref = _reference_advance(grid16, frozen, init, DT, 4)
    for j, (s, r) in enumerate(zip(out.states, ref)):
        for name in ("eta", "v", "q", "b"):
            assert getattr(s, name).tobytes() == getattr(r, name).tobytes(), (j, name)


def test_vanishing_frozen_field_takes_no_magnetic_derivative(grid_small, eos, monkeypatch):
    init = make_initial_data(grid_small, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    frozen = FrozenCoefficients.freeze(
        trivial_trajectory(grid_small, eos, init.rho0, KAPPA, DT, 4))
    contractions, gradients = [], []
    real_contraction, real_gradient = linear_step.cov_grad_vector, Grid.gradient

    def contraction(*args):
        contractions.append(None)
        return real_contraction(*args)

    def gradient(self, f):
        gradients.append(f)
        return real_gradient(self, f)

    monkeypatch.setattr(linear_step, "cov_grad_vector", contraction)
    monkeypatch.setattr(Grid, "gradient", gradient)
    out = advance_linearized(frozen, init)
    assert contractions == []
    assert gradients and not any(f is s.b for f in gradients for s in out.states)
    assert np.any(out.final.b)  # b diffuses; only the transport is skipped
