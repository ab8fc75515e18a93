"""Lattice, derivatives, norms: the layer everything else leans on."""

import numpy as np
import pytest

from lfmhd.grid import FieldShapeError, Grid, GridSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(7, 16, 16)  # odd tangential count
    with pytest.raises(ValueError):
        GridSpec(16, 16, 4)  # too few levels
    with pytest.raises(ValueError):
        GridSpec(16, 16, 16, dealias_fraction=0.0)
    s = GridSpec(16, 32, 24)
    assert s.shape == (16, 32, 25)
    assert s.h3 == pytest.approx(1.0 / 24)


def test_field_kind_discrimination(grid16):
    g = grid16
    assert g.field_kind(np.zeros(g.shape)) == "interior"
    assert g.field_kind(np.zeros((3,) + g.shape)) == "interior"
    assert g.field_kind(np.zeros((2, 16, 16))) == "boundary"
    assert g.field_kind(np.zeros((3, 2, 16, 16))) == "boundary"
    with pytest.raises(FieldShapeError):
        g.field_kind(np.zeros((5, 5)))


def test_tangential_derivative_is_spectral(grid16):
    g = grid16
    y1 = g.y1[:, None, None]
    y2 = g.y2[None, :, None]
    f = np.sin(2 * np.pi * 3 * y1) * np.cos(2 * np.pi * 2 * y2) * np.ones(g.shape)
    d1 = g.derivative(f, 1)
    ref = 6 * np.pi * np.cos(6 * np.pi * y1) * np.cos(4 * np.pi * y2) * np.ones(g.shape)
    assert np.abs(d1 - ref).max() < 1e-11
    d2 = g.derivative(f, 2)
    ref2 = -4 * np.pi * np.sin(6 * np.pi * y1) * np.sin(4 * np.pi * y2) * np.ones(g.shape)
    assert np.abs(d2 - ref2).max() < 1e-11


def test_normal_derivative_second_order():
    errs = []
    for n3 in (16, 32, 64):
        g = Grid(GridSpec(8, 8, n3))
        f = np.exp(g.y3)[None, None, :] * np.ones(g.shape)
        d = g.derivative(f, 3)
        errs.append(np.abs(d - f).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.9, f"normal FD orders {orders}"


def test_derivative_of_constant_vanishes(grid16):
    c = np.full(grid16.shape, 2.5)
    for axis in (1, 2, 3):
        assert np.abs(grid16.derivative(c, axis)).max() == 0.0


def test_nyquist_mode_killed_by_tangential_derivatives(grid16):
    g = grid16
    # pure Nyquist sawtooth in y1; its spectral first derivative is
    # ambiguous and the convention drops it, and multi-derivatives are
    # defined by composition so every positive power drops it too
    f = np.cos(np.pi * g.spec.n1 * g.y1)[:, None, None] * np.ones(g.shape)
    assert np.abs(g.derivative(f, 1)).max() < 1e-10
    assert np.abs(g.derivative_multi(f, 2, 0, 0)).max() < 1e-10
    composed = g.derivative(g.derivative(f, 1), 1)
    assert np.abs(g.derivative_multi(f, 2, 0, 0) - composed).max() < 1e-10


def test_integrate_matches_closed_forms(grid16):
    g = grid16
    assert g.integrate(np.ones(g.shape)) == pytest.approx(1.0)
    f = np.sin(2 * np.pi * g.y1)[:, None, None] ** 2 * np.ones(g.shape)
    assert g.integrate(f) == pytest.approx(0.5, abs=1e-12)


def test_boundary_slices_and_norm(grid16):
    g = grid16
    f = np.outer(np.ones(16), np.ones(16))
    w = np.stack([0.0 * f, 3.0 * f])
    # both wall planes summed in the boundary norm
    assert g.norm(w, 0, where="boundary") == pytest.approx(3.0)
    interior = np.broadcast_to(g.y3, g.shape).copy()
    sl = g.boundary_slices(interior)
    assert sl.shape == (2, 16, 16)
    assert np.all(sl[0] == 0.0) and np.all(sl[1] == 1.0)


def test_interior_norm_on_plane_wave(grid16):
    g = grid16
    f = np.cos(2 * np.pi * g.y1)[:, None, None] * np.ones(g.shape)
    # ||f||_0^2 = 1/2, each tangential derivative adds (2 pi)^2 / 2
    n0 = g.norm(f, 0)
    n1 = g.norm(f, 1)
    assert n0 == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert n1 == pytest.approx(np.sqrt(0.5 + 0.5 * (2 * np.pi) ** 2), rel=1e-10)


def test_interior_norm_vector_sums_components(grid16):
    g = grid16
    f = np.cos(2 * np.pi * g.y1)[:, None, None] * np.ones(g.shape)
    X = np.stack([f, 2 * f, 2 * f])
    assert g.norm(X, 1) == pytest.approx(3 * g.norm(f, 1), rel=1e-12)


def test_boundary_norm_scaling(grid16):
    g = grid16
    w = np.zeros((2, 16, 16))
    w[0] = np.cos(2 * np.pi * g.y1)[:, None]
    k = 2 * np.pi
    for s in (0.5, 1.5):
        expect = np.sqrt(0.5 * (1 + k * k) ** s)
        assert g.norm(w, s, where="boundary") == pytest.approx(expect, rel=1e-10)


def test_half_norm_rejects_interior(grid16):
    with pytest.raises(ValueError):
        grid16.norm(np.zeros(grid16.shape), 0.5)


def test_dealias_keeps_low_band_exactly(grid16):
    g = grid16
    f = np.cos(2 * np.pi * 4 * g.y1)[:, None, None] * np.ones(g.shape)
    assert np.abs(g.dealias(f) - f).max() < 1e-12
    hi = np.cos(2 * np.pi * 7 * g.y1)[:, None, None] * np.ones(g.shape)
    assert np.abs(g.dealias(hi)).max() < 1e-12


def test_tangential_laplacian_inverse_roundtrip(grid16, rng):
    g = grid16
    f = rng.standard_normal((2, 16, 16))
    f -= f.mean(axis=(-2, -1), keepdims=True)  # zero tangential mean
    u = g.invert_tangential_laplacian_nonzero(f)
    back = g.tangential_laplacian(u)
    assert np.abs(back - f).max() < 1e-10


def test_identity_map_round_values(grid16):
    g = grid16
    eta = g.identity_map
    assert eta.shape == (3,) + g.shape
    assert np.abs(g.displacement(eta)).max() == 0.0
    # frozen grid constant: quadrature of the raw position term plus the
    # three unit gradient entries (lattice means of y^2, not 1/3 exactly)
    from lfmhd.diagnostics import map_norm
    assert map_norm(g, eta, 4) ** 2 == pytest.approx(3.9394531249999996, rel=1e-13)
