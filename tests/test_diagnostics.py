"""Energy reports, residual audits, and the empirical lemma battery."""

import copy
import sys

import numpy as np
import pytest

from lfmhd import correction, fields, geometry
from lfmhd.checkpoint import read_trajectory, write_trajectory
from lfmhd.diagnostics import (
    ENERGY_COLUMNS,
    _time_energies,
    alinhac_residual,
    constraint_residuals,
    difference_energy,
    divergence_monitor,
    energy_functionals,
    lemma_suite,
    map_norm,
    nonlinear_residuals,
    physical_energy_balance,
    time_difference,
    wave_equation_residual,
)
from lfmhd.geometry import build_geometry
from lfmhd.grid import Grid, GridSpec
from lfmhd.linear_step import (FrozenCoefficients, Trajectory, implicit_diffusion_solve,
                               trivial_trajectory)
from lfmhd.picard import max_correction_norm, solve_nonlinear_kappa
from lfmhd.state import EquationOfState, FlowState, make_initial_data

# the squared Sobolev-4 norm of the reference positions on the 16^3 lattice
ID4_SQ = 3.9394531249999996


@pytest.fixture(scope="module")
def quiescent_run(grid16, eos):
    init = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=0, eos=eos)
    traj, log = solve_nonlinear_kappa(init, kappa=0.1, T=0.1, dt=0.01)
    assert log.converged
    return traj


@pytest.fixture(scope="module")
def magnetic_run(grid16, eos):
    init = make_initial_data(grid16, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    traj, log = solve_nonlinear_kappa(init, kappa=0.1, T=0.1, dt=0.01)
    assert log.converged
    return traj


# ----------------------------------------------------------------------
# time stencils and map norms


def _time_rows(stack, dt, order):
    n = len(stack)
    return np.stack([time_difference(stack.__getitem__, n, j, dt, order) for j in range(n)])


def test_time_derivative_exact_on_polynomials():
    t = 0.05 * np.arange(9)
    lin = (0.7 - 1.3 * t)[:, None] * np.ones((9, 4))
    quad = (2.0 + t * t)[:, None] * np.ones((9, 4))
    d1 = _time_rows(lin, 0.05, 1)
    assert np.abs(d1 + 1.3).max() < 1e-12
    d2 = _time_rows(quad, 0.05, 2)
    assert np.abs(d2 - 2.0).max() < 1e-9
    # the quadratic's first derivative: centered rows exact, ends one-sided
    d1q = _time_rows(quad, 0.05, 1)
    assert np.abs(d1q[1:-1] - 2.0 * t[1:-1, None]).max() < 1e-12
    assert np.abs(d1q[0] - 2.0 * t[0]).max() < 1e-12


def test_time_derivative_short_history_rejected():
    stack = np.zeros((2, 3))
    with pytest.raises(ValueError, match="insufficient history"):
        time_difference(stack.__getitem__, 2, 0, 0.1, 2)
    with pytest.raises(ValueError, match="order"):
        time_difference(np.zeros((6, 3)).__getitem__, 6, 0, 0.1, 3)


def _stacked_stencil(stack, dt, order):
    # the whole-stack form of the stencil, kept here as an independent
    # reference for the node-by-node form
    out = np.empty_like(stack)
    if order == 1:
        out[1:-1] = (stack[2:] - stack[:-2]) / (2.0 * dt)
        out[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / (2.0 * dt)
        out[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / (2.0 * dt)
        return out
    out[1:-1] = (stack[2:] - 2.0 * stack[1:-1] + stack[:-2]) / (dt * dt)
    if len(stack) >= 4:
        out[0] = (2.0 * stack[0] - 5.0 * stack[1] + 4.0 * stack[2] - stack[3]) / (dt * dt)
        out[-1] = (2.0 * stack[-1] - 5.0 * stack[-2] + 4.0 * stack[-3] - stack[-4]) / (dt * dt)
    else:
        out[0] = out[-1] = out[1]
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("order", [1, 2])
def test_time_difference_matches_stacked_stencil_bitwise(n, order, rng):
    stack = rng.standard_normal((n, 3, 5))
    dt = 0.0125
    if n < 3:  # every stencil of order 1 or 2 reads three nodes
        with pytest.raises(ValueError, match="insufficient history"):
            time_difference(stack.__getitem__, n, 0, dt, order)
        return
    ref = _stacked_stencil(stack, dt, order)
    for j in range(n):
        np.testing.assert_array_equal(time_difference(stack.__getitem__, n, j, dt, order), ref[j])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_zero_stack_time_energies_equal_the_computed_table_bitwise(grid16, order):
    n, dt = 4, 0.0125
    stack = np.zeros((n, 3) + grid16.shape)
    computed = np.array([
        [grid16.norm(time_difference(stack.__getitem__, n, j, dt, order - k), k) ** 2
         for j in range(n)]
        for k in range(order + 1)
    ])
    assert _time_energies(grid16, stack, dt, order).tobytes() == computed.tobytes()


@pytest.mark.parametrize("grid", [(16, 16, 16), (8, 12, 9)], ids=["grid16", "8x12x9"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_time_energies_match_the_norm_table(grid, n, order, rng):
    # differences formed from each node's normal spectra equal the norms
    # of the differences formed in physical space, short histories included
    grid = Grid(GridSpec(*grid))
    dt = 0.0125
    stack = rng.standard_normal((n, 3) + grid.shape)
    if order and n < 3:  # every stencil of order 1 or 2 reads three nodes
        with pytest.raises(ValueError, match="insufficient history"):
            _time_energies(grid, stack, dt, order)
        return
    want = np.array([
        [grid.norm(time_difference(stack.__getitem__, n, j, dt, order - k), k) ** 2
         for j in range(n)]
        for k in range(order + 1)
    ])
    np.testing.assert_allclose(_time_energies(grid, stack, dt, order), want, rtol=1e-12, atol=0.0)


def test_map_norm_identity_pins(grid16):
    # order 0 picks up the raw positions; derivatives see only the
    # identity's constant gradient, so every s >= 1 lands on the same value
    assert map_norm(grid16, grid16.identity_map, 0) ** 2 == pytest.approx(
        0.939453125, rel=1e-13
    )
    for s in (1, 2, 4):
        assert map_norm(grid16, grid16.identity_map, s) ** 2 == pytest.approx(
            ID4_SQ, rel=1e-13
        )


# ----------------------------------------------------------------------
# difference energy


def test_difference_energy_self_is_zero(quiescent_run):
    d = difference_energy(quiescent_run, quiescent_run)
    assert d.shape == (len(quiescent_run),)
    assert np.all(d == 0.0)


def test_difference_energy_symmetric_and_positive(quiescent_run, grid16, eos):
    rho0 = quiescent_run.states[0].rho0
    triv = trivial_trajectory(
        grid16, eos, rho0, quiescent_run.kappa, quiescent_run.dt,
        len(quiescent_run) - 1,
    )
    d12 = difference_energy(quiescent_run, triv)
    d21 = difference_energy(triv, quiescent_run)
    assert np.allclose(d12, d21, rtol=1e-12)
    assert d12.min() > 0.0


def test_difference_energy_equals_the_stacked_definition_bitwise(magnetic_run, quiescent_run):
    # node-by-node differences give the bytes of whole-trajectory stacks
    t1, t2 = magnetic_run, quiescent_run
    grid, dt, n = t1.grid, t1.dt, len(t1)

    def diff(name):
        return np.stack([getattr(s, name) for s in t1.states]) \
            - np.stack([getattr(s, name) for s in t2.states])

    want = np.zeros(n)
    for name in ("v", "b", "q"):
        for row in _time_energies(grid, diff(name), dt, 2):
            want += row
    deta = diff("eta")
    for j in range(n):
        want[j] += grid.norm(deta[j], 2) ** 2
    assert difference_energy(t1, t2).tobytes() == want.tobytes()


def test_difference_energy_mismatch_rejected(quiescent_run, grid16, eos):
    rho0 = quiescent_run.states[0].rho0
    short = trivial_trajectory(grid16, eos, rho0, 0.1, quiescent_run.dt, 2)
    with pytest.raises(ValueError, match="time lattices"):
        difference_energy(quiescent_run, short)
    other_dt = trivial_trajectory(
        grid16, eos, rho0, 0.1, 0.5 * quiescent_run.dt, len(quiescent_run) - 1
    )
    with pytest.raises(ValueError, match="time lattices"):
        difference_energy(quiescent_run, other_dt)
    # dt is compared relatively: 1e-15 and 2e-15 are two lattices, while
    # a rounding-sized difference is one
    t1, t2, t3 = (trivial_trajectory(grid16, eos, rho0, 0.1, dt, 2)
                  for dt in (1e-15, 2e-15, 1e-15 * (1.0 + 1e-12)))
    with pytest.raises(ValueError, match="time lattices"):
        difference_energy(t1, t2)
    assert difference_energy(t1, t3).tobytes() == np.zeros(3).tobytes()


# ----------------------------------------------------------------------
# energy functionals


def test_trivial_trajectory_report(grid16, eos):
    rho0 = np.full(grid16.shape, eos.rho(0.0))
    triv = trivial_trajectory(grid16, eos, rho0, 0.1, 0.0125, 4)
    c = energy_functionals(triv).columns
    assert c["E_eta4"][0] == pytest.approx(ID4_SQ, rel=1e-13)
    for name in ("E_boundary", "E_v", "E_b", "E_q", "H_run", "H_b", "W_q",
                 "E_phys", "D_diss", "taylor_margin", "small_geometry", "div_b"):
        assert np.abs(c[name]).max() == 0.0, name
    # bitwise, not approximately: nothing moved, nothing dissipated
    assert np.all(c["balance_residual"] == 0.0)


def test_single_snapshot_insufficient(grid16, eos):
    rho0 = np.full(grid16.shape, eos.rho(0.0))
    one = trivial_trajectory(grid16, eos, rho0, 0.1, 0.0125, 0)
    with pytest.raises(ValueError, match="insufficient history"):
        energy_functionals(one)
    # the readers run the same pass, order-2 time energies included
    two = trivial_trajectory(grid16, eos, rho0, 0.1, 0.0125, 1)
    with pytest.raises(ValueError, match="insufficient history"):
        constraint_residuals(two)


def test_quiescent_energy_stays_bounded(quiescent_run):
    rep = energy_functionals(quiescent_run)
    c = rep.columns
    for name in ENERGY_COLUMNS:
        assert np.all(np.isfinite(c[name])), name
    for name in ("E_total", "E_eta4", "E_v", "E_q", "E_phys", "D_diss"):
        assert np.all(c[name] >= 0.0), name
    # the contraction-window run moves, but the truncated scale stays
    # within a factor 4 of its initial value
    assert c["E_total"].max() <= 4.0 * c["E_total"][0]
    assert np.all(c["taylor_margin"] > 0.2)
    assert np.abs(c["balance_residual"]).max() < 1e-5


def test_running_dissipation_monotone(magnetic_run):
    c = energy_functionals(magnetic_run).columns
    assert c["H_run"][0] == 0.0
    assert np.all(np.diff(c["H_run"]) >= 0.0)
    assert c["H_run"][-1] > 0.0
    assert np.all(c["E_b"] > 0.0)


# ----------------------------------------------------------------------
# physical balance


def _heat_trajectory(grid, eos, dt, nsteps, seed=3):
    # velocity frozen at zero, flat map: backward-Euler resistive decay only
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


def test_pure_diffusion_balance_halves_with_dt(grid16, eos):
    ratios = []
    prev = None
    for dt in (0.02, 0.01, 0.005):
        traj = _heat_trajectory(grid16, eos, dt, int(round(0.08 / dt)))
        E, D, res = physical_energy_balance(traj)
        assert np.all(np.diff(E) <= 1e-14)
        rel = np.abs(res[1:]).max() / D.max()
        if prev is not None:
            ratios.append(prev / rel)
        prev = rel
    assert all(r > 1.8 for r in ratios), ratios
    assert prev < 2e-3


def test_balance_zero_run_exact(grid16, eos):
    rho0 = np.full(grid16.shape, eos.rho(0.0))
    triv = trivial_trajectory(grid16, eos, rho0, 0.1, 0.01, 5)
    E, D, res = physical_energy_balance(triv)
    assert np.all(E == 0.0)
    assert np.all(D == 0.0)
    assert np.all(res == 0.0)


# ----------------------------------------------------------------------
# constraint monitors


def test_constraint_rows_trivial(grid16, eos):
    rho0 = np.full(grid16.shape, eos.rho(0.0))
    triv = trivial_trajectory(grid16, eos, rho0, 0.1, 0.0125, 2)
    rows = constraint_residuals(triv)
    assert all(r["div_b"] == 0.0 for r in rows)
    assert all(r["small_geometry"] == 0.0 for r in rows)
    assert all(r["small_ok"] for r in rows)
    assert all(r["taylor_ok"] for r in rows)  # no c0 given, gate open


def test_constraint_rows_healthy_run(quiescent_run):
    rows = constraint_residuals(quiescent_run, c0=0.25)
    assert all(r["taylor_ok"] for r in rows)
    # the geometry gauge is a third-order norm and grows quickly; the
    # SMALL_GEOMETRY window certifies the early nodes, not the whole horizon
    assert all(r["small_ok"] for r in rows[:4])
    assert rows[0]["small_geometry"] == 0.0


def test_constraint_rows_read_from_energy_report(magnetic_run):
    computed = constraint_residuals(magnetic_run, c0=0.25)
    read = energy_functionals(magnetic_run).constraint_rows(c0=0.25)
    assert read == computed


def test_divergence_monitor_flags_corruption(magnetic_run, grid16):
    div, flags = divergence_monitor(magnetic_run, drift_constant=1.0)
    assert not flags.any()
    bad = Trajectory(
        grid=magnetic_run.grid, eos=magnetic_run.eos, kappa=magnetic_run.kappa,
        dt=magnetic_run.dt, states=[copy.deepcopy(s) for s in magnetic_run.states],
    )
    rng = np.random.default_rng(11)
    for s in bad.states[1:]:
        s.b = s.b + 1e-4 * rng.standard_normal(s.b.shape)
    _, bad_flags = divergence_monitor(bad, drift_constant=1.0)
    assert bad_flags[1:].all()


# ----------------------------------------------------------------------
# residual audits on converged runs


def test_nonlinear_residuals_at_scheme_accuracy(quiescent_run):
    res = nonlinear_residuals(quiescent_run)
    assert set(res) == {"eta", "v", "q", "b"}
    assert res["eta"].max() < 1e-3
    assert res["v"].max() < 5e-3
    assert res["q"].max() < 5e-2
    assert res["b"].max() == 0.0  # quiescent carries no field at all


def test_wave_residual_zero_run(grid16, eos):
    rho0 = np.full(grid16.shape, eos.rho(0.0))
    triv = trivial_trajectory(grid16, eos, rho0, 0.1, 0.01, 4)
    assert np.all(wave_equation_residual(triv) == 0.0)


def test_wave_residual_scheme_sized_and_noise_sensitive(quiescent_run):
    res = wave_equation_residual(quiescent_run)
    assert res.shape == (len(quiescent_run),)
    assert res.max() < 0.5
    bad = Trajectory(
        grid=quiescent_run.grid, eos=quiescent_run.eos, kappa=quiescent_run.kappa,
        dt=quiescent_run.dt,
        states=[copy.deepcopy(s) for s in quiescent_run.states],
    )
    rng = np.random.default_rng(99)
    for s in bad.states:
        pert = 1e-3 * rng.standard_normal(s.q.shape)
        pert[..., 0] = 0.0
        pert[..., -1] = 0.0
        s.q = s.q + pert
    noisy = wave_equation_residual(bad)
    assert noisy.max() > 10.0 * res.max()


def test_residual_audit_takes_one_gradient_of_b_and_v_per_node(magnetic_run, monkeypatch):
    states = magnetic_run.states
    real = Grid.gradient
    seen = []

    def recording(self, f):
        seen.extend((j, name) for j, s in enumerate(states)
                    for name in ("b", "v") if f is getattr(s, name))
        # Q is formed afresh on every read, so it is matched by value
        seen.extend((j, "Q") for j, s in enumerate(states) if np.array_equal(f, s.Q))
        return real(self, f)

    monkeypatch.setattr(Grid, "gradient", recording)
    report = energy_functionals(magnetic_run, residuals=True)
    assert sorted(seen) == [(j, name) for j in range(len(states)) for name in ("Q", "b", "v")]
    seen.clear()
    energy_functionals(magnetic_run)  # no defects, so no gradient of v
    assert sorted(seen) == [(j, name) for j in range(len(states)) for name in ("Q", "b")]
    monkeypatch.undo()
    audit = report.residuals
    res = nonlinear_residuals(magnetic_run)
    assert set(audit) == set(res) | {"wave"}
    for name in res:
        np.testing.assert_array_equal(res[name], audit[name])
    np.testing.assert_array_equal(wave_equation_residual(magnetic_run), audit["wave"])


def test_field_free_audit_takes_one_gradient_per_node_for_v(quiescent_run, monkeypatch):
    # b vanishes at every node, so of the state fields only v is differentiated
    states = quiescent_run.states
    assert not any(np.any(s.b) for s in states)
    real = Grid.gradient
    seen = []

    def recording(self, f):
        seen.extend((j, name) for j, s in enumerate(states)
                    for name in ("b", "v") if f is getattr(s, name))
        return real(self, f)

    monkeypatch.setattr(Grid, "gradient", recording)
    D = energy_functionals(quiescent_run, residuals=True).columns["D_diss"]
    assert seen == [(j, "v") for j in range(len(states))]
    assert D.tobytes() == np.zeros(len(states)).tobytes()


def test_field_free_energy_balance_takes_no_covariant_gradient_of_b(quiescent_run,
                                                                     monkeypatch):
    states = quiescent_run.states
    real = Grid.gradient
    seen = []

    def recording(self, f):
        seen.extend(j for j, s in enumerate(states) if f is s.b)
        return real(self, f)

    monkeypatch.setattr(Grid, "gradient", recording)
    _, D, _ = physical_energy_balance(quiescent_run)
    assert seen == []
    assert D.tobytes() == np.zeros(len(quiescent_run)).tobytes()


def test_induction_residual_reads_the_diffusivity(grid16, magnetic_run):
    # a run at lambda = 0.25 audited at its own lambda stays within the
    # lambda = 1 run's b defect; audited at lambda = 1 it misses 0.75 lap_b
    # and is more than ten times larger at every node
    eos = EquationOfState(diffusivity=0.25)
    init = make_initial_data(grid16, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    traj, log = solve_nonlinear_kappa(init, kappa=0.1, T=0.1, dt=0.01)
    assert log.converged
    res_b = nonlinear_residuals(traj)["b"]
    assert res_b.max() <= nonlinear_residuals(magnetic_run)["b"].max()
    misread = Trajectory(grid=grid16, eos=magnetic_run.eos, kappa=traj.kappa, dt=traj.dt,
                         states=traj.states)
    assert np.all(nonlinear_residuals(misread)["b"] > 10.0 * res_b)


def test_audit_dissipation_is_the_energy_balance_column(magnetic_run):
    shared = energy_functionals(magnetic_run, residuals=True).columns
    _, D, _ = physical_energy_balance(magnetic_run)
    np.testing.assert_array_equal(shared["D_diss"], D)
    assert D.max() > 0.0
    for name, col in energy_functionals(magnetic_run).columns.items():
        np.testing.assert_array_equal(shared[name], col, err_msg=name)


# ----------------------------------------------------------------------
# one smoothed geometry per trajectory


def _small_tube_run(grid, eos):
    init = make_initial_data(grid, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    traj, log = solve_nonlinear_kappa(init, kappa=0.1, T=0.05, dt=0.0125)
    assert log.converged and log.self_check is not None
    return traj


def _trajectory_diagnostics(traj):
    out = {f"energy.{k}": v for k, v in energy_functionals(traj).columns.items()}
    out.update({f"residual.{k}": v for k, v in nonlinear_residuals(traj).items()})
    out["wave"] = wave_equation_residual(traj)
    rows = constraint_residuals(traj)
    out.update({f"constraint.{k}": np.array([r[k] for r in rows]) for k in rows[0]})
    out["divergence"] = divergence_monitor(traj, drift_constant=1.0)[0]
    out["psi_max"] = np.array(max_correction_norm(traj))
    return out


def test_diagnostics_build_no_geometry_after_attested_solve(grid_small, eos, monkeypatch):
    traj = _small_tube_run(grid_small, eos)
    real = geometry.build_geometry
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    bound = [m for name, m in sys.modules.items()
             if name.startswith("lfmhd") and getattr(m, "build_geometry", None) is real]
    assert geometry in bound
    for module in bound:
        monkeypatch.setattr(module, "build_geometry", counting)
    _trajectory_diagnostics(traj)
    assert len(calls) == 0


def test_fresh_trajectory_gives_identical_diagnostics(grid_small, eos):
    traj = _small_tube_run(grid_small, eos)
    fresh = Trajectory(
        grid=traj.grid, eos=traj.eos, kappa=traj.kappa, dt=traj.dt,
        states=[copy.deepcopy(s) for s in traj.states],
    )
    solved, rebuilt = _trajectory_diagnostics(traj), _trajectory_diagnostics(fresh)
    assert solved.keys() == rebuilt.keys()
    for name in solved:
        np.testing.assert_array_equal(rebuilt[name], solved[name], err_msg=name)


def _count_correction_fields(monkeypatch):
    real = correction.correction_field
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("lfmhd") and getattr(module, "correction_field", None) is real:
            monkeypatch.setattr(module, "correction_field", counting)
    return calls


def test_energy_table_of_a_read_checkpoint_builds_no_correction_field(
        grid_small, eos, tmp_path, monkeypatch):
    path = tmp_path / "trajectory.ckpt"
    write_trajectory(path, _small_tube_run(grid_small, eos))
    back = read_trajectory(path)
    calls = _count_correction_fields(monkeypatch)
    energy_functionals(back)
    assert len(calls) == 0
    back.geometry.psi  # the first read builds one per node
    assert len(calls) == len(back)


def test_frozen_and_audited_psi_is_the_per_node_correction_field(grid_small, eos):
    solved = _small_tube_run(grid_small, eos)
    fresh = Trajectory(grid=solved.grid, eos=solved.eos, kappa=solved.kappa, dt=solved.dt,
                       states=solved.states)
    for traj in (solved, fresh):
        grid, geo, n = traj.grid, traj.geometry, len(traj)
        want = [correction.correction_field(grid, s.eta, s.v, geo.a_s[j], traj.kappa)
                for j, s in enumerate(traj.states)]
        frozen = FrozenCoefficients.freeze(traj)
        for j in range(n):
            np.testing.assert_array_equal(frozen.node(j).psi, want[j])
        eta = [s.eta for s in traj.states]
        res_eta = [grid.low_norm(time_difference(eta.__getitem__, n, j, traj.dt, 1)
                                 - s.v - want[j])
                   for j, s in enumerate(traj.states)]
        audit = energy_functionals(traj, residuals=True).residuals
        assert audit["eta"].tobytes() == np.array(res_eta).tobytes()


# ----------------------------------------------------------------------
# good-unknown decomposition


def test_alinhac_flat_geometry_commutes(grid16, rng):
    cache = build_geometry(grid16, grid16.identity_map, 0.1)
    f = fields.random_scalar(grid16, rng, band=2, n3_modes=2)
    assert alinhac_residual(cache, f) < 1e-10


def test_alinhac_perturbed_map_small():
    g = Grid(GridSpec(32, 32, 32))
    rng = np.random.default_rng(7)
    eta = fields.perturbed_map(g, rng, eps=0.05, band=1)
    cache = build_geometry(g, eta, 0.1)
    f = fields.random_scalar(g, rng, band=2, n3_modes=2)
    r = alinhac_residual(cache, f)
    assert r < 1e-4  # measured 1.4e-5; anything near 1e-3 means a term broke


# ----------------------------------------------------------------------
# lemma battery


def _values(rows, check):
    return [r["value"] for r in rows if r["check"] == check]


def test_lemma_suite_windows(grid16):
    rows = lemma_suite(grid16, seed=0)
    hodge = _values(rows, "hodge")
    assert len(hodge) == 8
    assert 0.2 < min(hodge) and max(hodge) < 1.5
    elliptic = _values(rows, "elliptic")
    assert all(0.005 < v < 0.1 for v in elliptic)
    pins = _values(rows, "trace_pin")
    assert all(v < 0.5 for v in pins)  # trapezoid error on sinh^2, worst mode k ~ 19
    ratios = _values(rows, "trace_ratio")
    assert all(0.9 < v < 1.3 for v in ratios)


def test_lemma_constants_stable_under_refinement(grid16):
    r16 = lemma_suite(grid16, seed=0)
    r32 = lemma_suite(Grid(GridSpec(32, 32, 32)), seed=0)
    for check in ("hodge", "elliptic"):
        lo = min(min(_values(r16, check)), min(_values(r32, check)))
        hi = max(max(_values(r16, check)), max(_values(r32, check)))
        assert hi / lo < 2.0, check
    # the closed-form trace pin tightens with the wall-normal resolution
    assert max(_values(r32, "trace_pin")) < max(_values(r16, "trace_pin"))
