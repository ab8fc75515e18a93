"""Frozen coefficients, CFL gate, implicit diffusion, linearized advance."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lfmhd
from lfmhd import linear_step

from lfmhd.fields import perturbed_map, wall_vanishing_scalar
from lfmhd.geometry import build_geometry, cov_laplacian
from lfmhd.grid import Grid, GridSpec
from lfmhd.linear_step import (
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


def test_frozen_coefficients_interpolate(grid16, eos):
    traj = trivial_trajectory(grid16, eos, np.full(grid16.shape, 1.0), KAPPA, DT, 4)
    frozen = FrozenCoefficients.freeze(traj)
    s = frozen.at(1.5 * DT)
    assert np.abs(s.J_s - 1.0).max() < 1e-13
    assert np.abs(s.psi).max() == 0.0
    assert np.abs(s.r - 1.0).max() < 1e-12
    # clamping at the ends instead of extrapolating
    end = frozen.at(4 * DT + 1e-13)
    assert np.abs(end.J_s - 1.0).max() < 1e-13


def test_cfl_bound_and_error(grid16, eos):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 4)
    frozen = FrozenCoefficients.freeze(traj)
    bound = frozen.cfl_bound(cfl_safety=0.4)
    assert 0.0 < bound < 1.0
    with pytest.raises(CflError) as err:
        advance_linearized(grid16, frozen, st, 2.0 * bound, 4 * 2.0 * bound)
    msg = str(err.value)
    assert "CFL" in msg and "bound" in msg


def test_advance_requires_coverage(grid16, eos):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 2)
    frozen = FrozenCoefficients.freeze(traj)
    with pytest.raises(ValueError):
        # frozen ring only covers [0, 2 dt], asking for twice that
        advance_linearized(grid16, frozen, st, DT, 8 * DT)


def test_zero_data_stays_zero(grid16, eos):
    st = _zero_state(grid16, eos)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 4)
    frozen = FrozenCoefficients.freeze(traj)
    out = advance_linearized(grid16, frozen, st, DT, 4 * DT)
    for s in out.states:
        assert np.abs(s.v).max() == 0.0
        assert np.abs(s.b).max() == 0.0
        assert np.abs(s.q).max() == 0.0
        assert np.abs(s.eta - grid16.identity_map).max() == 0.0


def test_walls_enforced_every_node(grid16, eos):
    st = make_initial_data(grid16, "acoustic", amplitude=0.2, seed=3)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 8)
    frozen = FrozenCoefficients.freeze(traj)
    out = advance_linearized(grid16, frozen, st, DT, 8 * DT)
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

    from lfmhd.linear_step import _d3_matrix
    n3 = g.spec.n3
    D3 = _d3_matrix(n3 + 1, g.h3)
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


def test_implicit_diffusion_perturbed_geometry_converges(grid16, rng):
    eta = perturbed_map(grid16, rng, eps=0.05)
    cache = build_geometry(grid16, eta, KAPPA)
    rhs = wall_vanishing_scalar(grid16, rng, band=2)
    sol = implicit_diffusion_solve(grid16, cache.a_s, rhs, 0.01)
    assert np.isfinite(sol).all()
    assert np.abs(sol[..., 0]).max() == 0.0
    # iteration budget too small -> named failure
    with pytest.raises(DiffusionSolveError):
        implicit_diffusion_solve(grid16, cache.a_s, rhs, 0.01, max_iter=1)


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

    x, info = own(matvec, b, rtol=1e-9, maxiter=500, M=psolve, callback=counter("own"))
    ref, ref_info = sla.bicgstab(
        sla.LinearOperator((size, size), matvec=matvec, dtype=float), b,
        rtol=1e-9, atol=0.0, maxiter=500,
        M=sla.LinearOperator((size, size), matvec=psolve, dtype=float),
        callback=counter("scipy"),
    )
    assert info == ref_info == 0
    assert iters["own"] == iters["scipy"] > 1
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


_THREAD_PROBE = """
import hashlib
import numpy as np
from lfmhd.fields import perturbed_map, wall_vanishing_scalar
from lfmhd.geometry import build_geometry
from lfmhd.grid import Grid, GridSpec
from lfmhd.linear_step import implicit_diffusion_solve
grid = Grid(GridSpec(32, 32, 32))
rng = np.random.default_rng(7)
a_s = build_geometry(grid, perturbed_map(grid, rng, eps=0.05), 0.1).a_s
rhs = wall_vanishing_scalar(grid, rng, band=3)
print(hashlib.sha256(implicit_diffusion_solve(grid, a_s, rhs, 0.01).tobytes()).hexdigest())
"""


def test_diffusion_solve_independent_of_blas_threads():
    # 32^3 vectors are above OpenBLAS's threading threshold; 16^3 ones are not
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


def test_diffusion_unconditionally_stable_per_step(grid16, eos):
    # with velocity frozen to zero the field obeys pure backward Euler
    # diffusion; its L2 norm cannot grow for any dt
    st = make_initial_data(grid16, "magnetic-tube", amplitude=0.3, seed=3)
    st.v[...] = 0.0
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, 0.02, 5)
    frozen = FrozenCoefficients.freeze(traj)
    out = advance_linearized(grid16, frozen, st, 0.02, 0.1)
    norms = [grid16.low_norm(s.b) for s in out.states]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12, norms


def test_nonzero_dynamics_move_the_state(grid16, eos):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 4)
    frozen = FrozenCoefficients.freeze(traj)
    out = advance_linearized(grid16, frozen, st, DT, 4 * DT)
    assert np.abs(out.final.eta - grid16.identity_map).max() > 1e-5
    assert np.abs(out.final.q - st.q).max() > 1e-4


def test_step_count_must_divide_horizon(grid16, eos):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    traj = trivial_trajectory(grid16, eos, st.rho0, KAPPA, DT, 4)
    frozen = FrozenCoefficients.freeze(traj)
    with pytest.raises(ValueError):
        advance_linearized(grid16, frozen, st, DT, 2.7 * DT)
