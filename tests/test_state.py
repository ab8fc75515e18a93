"""Equation of state, presets, compatibility and sign checks."""

import numpy as np
import pytest

from lfmhd import state
from lfmhd.geometry import build_geometry, cov_div, cov_grad
from lfmhd.state import (
    EquationOfState,
    InitialDataError,
    PRESETS,
    admit,
    check_compatibility,
    make_initial_data,
    taylor_sign_margin,
)


def _margin(st, a_s):
    return taylor_sign_margin(cov_grad(st.grid, a_s, st.grid.gradient(st.Q)))


def test_eos_closed_forms():
    eos = EquationOfState()
    assert eos.rho(0.0) == 1.0
    assert eos.rho(1.0) == pytest.approx(np.e)
    # the density derivative coincides with the density for the exponential law
    q = np.linspace(-1, 1, 11)
    assert np.allclose(eos.rho(q), eos.rho_p(q))


def test_eos_potential_properties():
    eos = EquationOfState()
    # potential of the reference density is zero and it is convex around it
    assert eos.q_potential(1.0) == pytest.approx(0.0)
    rho = np.linspace(0.25, 4.0, 31)
    pot = np.asarray(eos.q_potential(rho))
    assert pot.min() >= -1e-15
    assert pot[0] > 0 and pot[-1] > 0


@pytest.mark.parametrize("preset", PRESETS)
def test_presets_satisfy_order_zero_compatibility(grid16, preset):
    st = make_initial_data(grid16, preset, amplitude=0.1, seed=5)
    rep = check_compatibility(st, build_geometry(grid16, st.eta, 0.0))
    assert set(rep) == {"q_wall_sup", "b_wall_sup", "div_b_norm"}
    assert rep["q_wall_sup"] < 1e-10
    assert rep["b_wall_sup"] < 1e-10
    assert rep["div_b_norm"] < 1e-10


def test_acoustic_preset_carries_divergence(grid16):
    st = make_initial_data(grid16, "acoustic", amplitude=0.1, seed=5)
    cache = build_geometry(grid16, st.eta, 0.1)
    div_v = cov_div(grid16, cache.a_s, grid16.gradient(st.v))
    assert grid16.low_norm(div_v) > 1e-3


def test_magnetic_tube_divergence_free_and_wall_flat(grid16):
    st = make_initial_data(grid16, "magnetic-tube", amplitude=0.2, seed=5)
    assert np.abs(st.b).max() > 1e-3
    cache = build_geometry(grid16, st.eta, 0.1)
    # flat divergence vanishes spectrally; the covariant one is small
    # because the preset perturbs geometry only weakly
    assert np.abs(st.b[..., 0]).max() == 0.0
    assert np.abs(st.b[..., -1]).max() == 0.0
    rep = check_compatibility(st, cache)
    assert rep["div_b_norm"] < 1e-8


def test_taylor_margin_positive_for_presets(grid16):
    for preset in PRESETS:
        st = make_initial_data(grid16, preset, amplitude=0.1, seed=5)
        assert _margin(st, build_geometry(grid16, st.eta, 0.0).a_s) > 0.2


def test_taylor_violation_rejected(grid16):
    # amplitude close to 1 eats the whole background margin
    with pytest.raises(InitialDataError) as err:
        make_initial_data(grid16, "quiescent", amplitude=0.999, seed=5, c0=0.25)
    assert "sign condition" in str(err.value)


@pytest.mark.parametrize("name,value,fragment", [
    ("check_compatibility", {"div_b_norm": np.nan}, "compatibility"),
    ("taylor_sign_margin", np.nan, "sign condition"),
])
def test_admit_fails_closed_on_nan(grid_small, monkeypatch, name, value, fragment):
    st = make_initial_data(grid_small, "quiescent", amplitude=0.1, seed=5)
    cache = build_geometry(grid_small, st.eta, 0.0)
    admit(st, cache, c0=0.25)
    monkeypatch.setattr(state, name, lambda *args: value)
    with pytest.raises(InitialDataError, match=fragment):
        admit(st, cache)


def test_admit_holds_nontrivial_data_to_c0(grid_small):
    st = make_initial_data(grid_small, "quiescent", amplitude=0.1, seed=5, c0=0.25)
    cache = build_geometry(grid_small, st.eta, 0.0)
    margin = _margin(st, cache.a_s)
    admit(st, cache, c0=margin)
    with pytest.raises(InitialDataError, match="at least c0"):
        admit(st, cache, c0=1.01 * margin)
    # all-zero data carry no margin and need none
    for name in ("v", "b", "q"):
        setattr(st, name, np.zeros_like(getattr(st, name)))
    admit(st, cache, c0=0.25)


def test_unknown_preset_rejected(grid16):
    with pytest.raises(InitialDataError):
        make_initial_data(grid16, "vortex", amplitude=0.1, seed=5)


def test_zero_amplitude_statics(grid16):
    st = make_initial_data(grid16, "quiescent", amplitude=0.0, seed=5)
    assert np.abs(st.v).max() == 0.0
    assert np.abs(st.b).max() == 0.0
    # background head only, linear profile absent tangential modulation
    assert np.abs(st.q[..., 0]).max() < 1e-14


def test_rho0_consistency(grid16):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=5)
    eos = st.eos
    # mass is set from the initial head through the EOS at J = 1
    assert np.allclose(st.rho0, np.asarray(eos.rho(st.q)), atol=1e-12)


def test_state_copy_is_deep(grid16):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=5)
    c = st.copy()
    c.q[...] = 7.0
    assert np.abs(st.q - 7.0).min() > 0.1
