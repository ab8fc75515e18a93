"""Nonlinear fixed-point iteration and the smoothing-scale cascade."""

import gc
import warnings

import numpy as np
import pytest

from lfmhd import picard
from lfmhd.diagnostics import difference_energy
from lfmhd.linear_step import BreakdownError, FrozenCoefficients
from lfmhd.picard import (
    kappa_sweep,
    max_correction_norm,
    solve_nonlinear_kappa,
)
from lfmhd.state import FlowState, InitialDataError, make_initial_data

KAPPA = 0.1
DT = 0.0125
T = 0.05


def _zero_state(grid, eos):
    return FlowState(
        grid=grid, eos=eos, t=0.0, eta=grid.identity_map.copy(),
        v=np.zeros((3,) + grid.shape), b=np.zeros((3,) + grid.shape),
        q=np.zeros(grid.shape), rho0=np.full(grid.shape, eos.rho(0.0)),
    )


def test_zero_data_converges_immediately(grid16, eos):
    st = _zero_state(grid16, eos)
    traj, log = solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert log.converged
    assert log.iterations == 2
    assert log.d_history[-1] == 0.0
    assert np.abs(traj.final.v).max() == 0.0


def test_solver_refuses_a_negative_taylor_margin(grid_small, monkeypatch):
    # the head turned upside down: walls and div b untouched, margin < 0
    st = make_initial_data(grid_small, "quiescent", amplitude=0.1, seed=3)
    st.q = -st.q
    monkeypatch.setattr(picard, "advance_linearized", None)  # refused before any step
    with pytest.raises(InitialDataError, match=r"sign condition violated: margin -0\.\d+ is not"):
        solve_nonlinear_kappa(st, KAPPA, T, DT)


def test_solver_refuses_a_nan_head_without_warning(grid_small):
    # a NaN fails no "<" test; the gate fails closed and names Q
    st = make_initial_data(grid_small, "magnetic-tube", amplitude=0.1, seed=3)
    st.q[2, 3, 4] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InitialDataError, match=r"^total pressure head Q .* not finite"):
            solve_nonlinear_kappa(st, KAPPA, T, DT)


def test_non_finite_difference_energy_raises_breakdown(grid_small, monkeypatch):
    # a NaN d_n fails every comparison, so without the gate the
    # non-contraction monitor would not see it and the loop would run on
    st = make_initial_data(grid_small, "quiescent", amplitude=0.1, seed=3)
    calls = []

    def nan_from_the_second(t1, t2):
        calls.append(None)
        d = difference_energy(t1, t2)
        return d if len(calls) < 2 else np.full_like(d, np.nan)

    monkeypatch.setattr(picard, "difference_energy", nan_from_the_second)
    with pytest.raises(BreakdownError, match=r"^picard iterate 2: difference energy d_2 = nan"):
        solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert len(calls) == 2


def test_non_finite_self_check_raises_breakdown(grid_small, monkeypatch):
    # the self-check is one more iterate: a NaN there names iterate n + 1
    st = make_initial_data(grid_small, "quiescent", amplitude=0.1, seed=3)
    _, log = solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert log.converged
    n = log.iterations
    calls = []

    def nan_at_the_self_check(t1, t2):
        calls.append(None)
        d = difference_energy(t1, t2)
        return d if len(calls) <= n else np.full_like(d, np.nan)

    monkeypatch.setattr(picard, "difference_energy", nan_at_the_self_check)
    with pytest.raises(BreakdownError, match=rf"^picard iterate {n + 1}: difference energy "
                                             rf"d_{n + 1} = nan"):
        solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert len(calls) == n + 1


def test_no_frozen_coefficients_live_through_a_difference_energy(grid_small, eos, monkeypatch):
    # the frozen coefficients are released with the advance that reads
    # them, the self-check's included
    st = make_initial_data(grid_small, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    live = []

    def counting(t1, t2):
        gc.collect()
        live.append(sum(isinstance(o, FrozenCoefficients) for o in gc.get_objects()))
        return difference_energy(t1, t2)

    monkeypatch.setattr(picard, "difference_energy", counting)
    _, log = solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert log.converged and log.self_check is not None
    assert live == [0] * (log.iterations + 1)


@pytest.mark.parametrize("horizon, dt, message", [
    (1e300, 1e-300, "is not a positive integer multiple of dt"),
    (0.05, 0.03, "is not a positive integer multiple of dt"),
    # one step: the wave residual and the order-2 energies read three nodes
    (0.0125, 0.0125, r"^T = 0\.0125 at dt = 0\.0125 gives 2 nodes; at least 3 are needed$"),
], ids=["1e+300-1e-300", "0.05-0.03", "0.0125-0.0125"])
def test_horizon_off_the_lattice_is_refused_before_any_freeze(grid_small, monkeypatch,
                                                              horizon, dt, message):
    st = make_initial_data(grid_small, "quiescent", amplitude=0.1, seed=3)
    freezes = []
    real = FrozenCoefficients.freeze.__func__

    def counting(cls, traj):
        freezes.append(None)
        return real(cls, traj)

    monkeypatch.setattr(FrozenCoefficients, "freeze", classmethod(counting))
    with pytest.raises(ValueError, match=message):
        solve_nonlinear_kappa(st, KAPPA, horizon, dt)
    with pytest.raises(ValueError, match=message):
        kappa_sweep(st, (0.2, 0.1), horizon, dt)
    assert freezes == []


def test_max_iter_below_one_is_refused_before_any_freeze(grid_small, monkeypatch):
    # no iterate would leave the trivial trajectory, b = 0 even at node 0
    st = make_initial_data(grid_small, "magnetic-tube", amplitude=0.1, seed=3)
    freezes = []
    real = FrozenCoefficients.freeze.__func__

    def counting(cls, traj):
        freezes.append(None)
        return real(cls, traj)

    monkeypatch.setattr(FrozenCoefficients, "freeze", classmethod(counting))
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        solve_nonlinear_kappa(st, KAPPA, T, DT, max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        kappa_sweep(st, (0.2, 0.1), T, DT, max_iter=0)
    assert freezes == []


def test_quiescent_contracts_fast(grid16):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    traj, log = solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert log.converged
    assert log.iterations <= 8
    for r in log.ratios():
        assert r <= 0.5
    # attested fixed point: re-freezing the limit reproduces it
    assert log.self_check <= 1e-12 * (1.0 + log.d_history[0])


def test_solution_independent_of_first_guess_scale(grid16):
    # converged limit must not remember the trivial initial trajectory:
    # two tolerances, same answer within the looser one
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    t1, _ = solve_nonlinear_kappa(st, KAPPA, T, DT, tol=1e-8)
    t2, _ = solve_nonlinear_kappa(st, KAPPA, T, DT, tol=1e-10)
    d = float(np.max(difference_energy(t1, t2)))
    assert d <= 10.0 * 1e-8


def test_determinism_bitwise(grid16):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    t1, log1 = solve_nonlinear_kappa(st, KAPPA, T, DT)
    t2, log2 = solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert log1.d_history == log2.d_history
    for s1, s2 in zip(t1.states, t2.states):
        assert np.array_equal(s1.v, s2.v)
        assert np.array_equal(s1.q, s2.q)
        assert np.array_equal(s1.b, s2.b)
        assert np.array_equal(s1.eta, s2.eta)


def test_kappa_sweep_shapes_and_determinism(grid16):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    kappas = (0.2, 0.1)
    traj, report = kappa_sweep(st, kappas, T, DT)
    assert report.kappas == list(kappas)
    assert len(report.deltas) == 1
    assert report.deltas[0] > 0.0
    assert traj.kappa == 0.1
    assert len(report.psi_max) == 2
    assert all(p >= 0.0 for p in report.psi_max)


def test_kappa_sweep_validates_ordering(grid16):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=3)
    with pytest.raises(ValueError):
        kappa_sweep(st, (0.1, 0.2), T, DT)
    with pytest.raises(ValueError):
        kappa_sweep(st, (0.2, -0.1), T, DT)
    with pytest.raises(ValueError, match="strictly descending"):
        kappa_sweep(st, (0.1, 0.1), T, DT)
    with pytest.raises(ValueError, match="at least one"):
        kappa_sweep(st, (), T, DT)


def test_max_correction_norm_zero_on_trivial(grid16, eos):
    st = _zero_state(grid16, eos)
    traj, _ = solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert max_correction_norm(traj) == 0.0


def test_initial_map_geometry_built_once_per_solve(grid_small, eos, monkeypatch):
    from lfmhd import picard, state

    st = make_initial_data(grid_small, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    real = state.build_geometry
    calls = {"picard": [], "state": []}

    def counting(name):
        def build(*args, **kwargs):
            calls[name].append(args[2] if len(args) > 2 else kwargs["kappa"])
            return real(*args, **kwargs)
        return build

    monkeypatch.setattr(picard, "build_geometry", counting("picard"))
    monkeypatch.setattr(state, "build_geometry", counting("state"))
    _, log = solve_nonlinear_kappa(st, KAPPA, T, DT)
    assert log.converged
    # check_compatibility reads the unsmoothed inverse of the same build
    assert calls == {"picard": [KAPPA], "state": []}
