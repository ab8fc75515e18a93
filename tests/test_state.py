"""Equation of state, presets, compatibility and sign checks."""

import numpy as np
import pytest

from lfmhd.geometry import build_geometry, cov_div
from lfmhd.grid import Grid, GridSpec
from lfmhd.state import (
    EquationOfState,
    InitialDataError,
    PRESETS,
    check_compatibility,
    make_initial_data,
    taylor_sign_margin,
)


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
    rep = check_compatibility(st, order=0)
    assert rep.q_wall_sup < 1e-10
    assert rep.b_wall_sup < 1e-10
    assert rep.div_b_norm < 1e-10
    assert rep.max_residual() < 1e-8


def test_quiescent_meets_order_one_too(grid16):
    st = make_initial_data(grid16, "quiescent", amplitude=0.1, seed=5)
    rep = check_compatibility(st, order=1)
    assert rep.div_v_wall_sup < 1e-10
    assert rep.heat_trace_sup < 1e-10


def test_acoustic_preset_carries_divergence(grid16):
    st = make_initial_data(grid16, "acoustic", amplitude=0.1, seed=5)
    cache = build_geometry(grid16, st.eta, 0.1)
    div_v = cov_div(grid16, cache.a_s, st.v)
    assert grid16.low_norm(div_v) > 1e-3
    # and therefore fails the order-1 check, by design
    rep = check_compatibility(st, order=1, cache=cache)
    assert rep.div_v_wall_sup > 1e-3


def test_magnetic_tube_divergence_free_and_wall_flat(grid16):
    st = make_initial_data(grid16, "magnetic-tube", amplitude=0.2, seed=5)
    assert np.abs(st.b).max() > 1e-3
    cache = build_geometry(grid16, st.eta, 0.1)
    # flat divergence vanishes spectrally; the covariant one is small
    # because the preset perturbs geometry only weakly
    assert np.abs(st.b[..., 0]).max() == 0.0
    assert np.abs(st.b[..., -1]).max() == 0.0
    rep = check_compatibility(st, order=0, cache=cache)
    assert rep.div_b_norm < 1e-8


def test_magnetic_tube_heat_trace_decays_with_resolution():
    sups = []
    for n3 in (16, 32):
        g = Grid(GridSpec(16, 16, n3))
        st = make_initial_data(g, "magnetic-tube", amplitude=0.2, seed=5)
        rep = check_compatibility(st, order=1)
        sups.append(rep.heat_trace_sup)
    # cubic wall profile makes the true trace zero; what remains is the
    # one-sided stencil truncation, first order at the wall
    assert sups[1] < 0.75 * sups[0]


def test_taylor_margin_positive_for_presets(grid16):
    for preset in PRESETS:
        st = make_initial_data(grid16, preset, amplitude=0.1, seed=5)
        assert taylor_sign_margin(st) > 0.2


def test_taylor_violation_rejected(grid16):
    # amplitude close to 1 eats the whole background margin
    with pytest.raises(InitialDataError) as err:
        make_initial_data(grid16, "quiescent", amplitude=0.999, seed=5, c0=0.25)
    assert "sign condition" in str(err.value)


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
