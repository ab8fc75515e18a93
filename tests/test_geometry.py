"""Flow-map calculus: Jacobians, cofactors, covariant operators, Piola."""

import numpy as np
import pytest

from lfmhd.fields import perturbed_map, random_scalar, random_vector
from lfmhd.geometry import (
    DegenerateMapError,
    _invert_pointwise,
    build_geometry,
    cov_div,
    cov_grad,
    cov_grad_vector,
    cov_laplacian,
    curl_from_gradient,
    deformation_gradient,
    piola_residual,
)
from lfmhd.grid import Grid, GridSpec


KAPPA = 0.1


def _raw_jacobian(grid, eta):
    """The unsmoothed Jacobian, which the geometry build checks but does not keep."""
    return _invert_pointwise(deformation_gradient(grid, eta), grid)[0]


def test_identity_map_geometry(grid16):
    cache = build_geometry(grid16, grid16.identity_map, KAPPA)
    assert np.abs(_raw_jacobian(grid16, grid16.identity_map) - 1.0).max() < 1e-13
    assert np.abs(cache.J_s - 1.0).max() < 1e-13
    eye = np.eye(3)[:, :, None, None, None]
    assert np.abs(cache.a - eye).max() < 1e-13
    assert np.abs(cache.a_s - eye).max() < 1e-13
    assert piola_residual(cache) < 1e-12


def test_linear_shear_map_exact(grid16):
    # eta = y + 0.1 sin(2 pi y1) e3: gradient and inverse known in closed form
    g = grid16
    eta = g.identity_map.copy()
    bump = 0.1 * np.sin(2 * np.pi * g.y1)[:, None, None]
    eta[2] = eta[2] + bump
    cache = build_geometry(g, eta, 0.0)
    d = deformation_gradient(g, eta)
    assert np.abs(d[2, 0] - 0.2 * np.pi * np.cos(2 * np.pi * g.y1)[:, None, None]).max() < 1e-10
    assert np.abs(_raw_jacobian(g, eta) - 1.0).max() < 1e-10  # unimodular shear
    # inverse of the triangular shear: a[mu=3, alpha=1] = -d(eta_3)/d(y_1)
    assert np.abs(cache.a[2, 0] + d[2, 0]).max() < 1e-10


def test_inverse_composition(grid16, rng):
    eta = perturbed_map(grid16, rng, eps=0.05)
    cache = build_geometry(grid16, eta, KAPPA)
    d = deformation_gradient(grid16, eta)
    comp = np.einsum("ma...,am...->...", cache.a, d) / 3.0
    assert np.abs(comp - 1.0).max() < 1e-10


def test_degenerate_map_rejected(grid16):
    g = grid16
    eta = g.identity_map.copy()
    # collapse the normal direction at one slab level
    eta[2] = 0.0 * eta[2]
    with pytest.raises(DegenerateMapError) as err:
        build_geometry(g, eta, KAPPA)
    assert "det" in str(err.value)
    assert err.value.index is not None


def test_nan_map_rejected_at_first_nan(grid16):
    g = grid16
    eta = g.identity_map.copy()
    eta[2][3, 5, 7] = np.nan
    # J is NaN wherever an entry of the deformation gradient is
    bad = np.isnan(deformation_gradient(g, eta)).any(axis=(0, 1))
    with pytest.raises(DegenerateMapError) as err:
        build_geometry(g, eta, KAPPA)
    assert np.isnan(err.value.value) and "nan" in str(err.value)
    assert err.value.index == np.unravel_index(np.argmax(bad), bad.shape)


def test_cov_ops_reduce_to_flat_at_identity(grid16, rng):
    g = grid16
    cache = build_geometry(g, g.identity_map, KAPPA)
    f = random_scalar(g, rng)
    G = cov_grad(g, cache.a_s, g.gradient(f))
    for mu in range(3):
        assert np.abs(G[mu] - g.dealias(g.derivative(f, mu + 1))).max() < 1e-11
    X = random_vector(g, rng)
    assert np.abs(cov_div(g, cache.a_s, g.gradient(X)) - g.dealias(sum(
        g.derivative(X[i], i + 1) for i in range(3)
    ))).max() < 1e-11


def test_cov_curl_annihilates_cov_grad(grid16, rng):
    # curl_a grad_a f = 0 identically (antisymmetrization of a symmetric
    # second covariant derivative); with dealiased products it holds on the
    # kept band
    g = grid16
    eta = perturbed_map(g, rng, eps=0.03, band=1)
    cache = build_geometry(g, eta, KAPPA)
    f = random_scalar(g, rng, band=2)
    grad_f = cov_grad(g, cache.a_s, g.gradient(f))
    C = curl_from_gradient(cov_grad_vector(g, cache.a_s, g.gradient(grad_f)))
    scale = np.abs(grad_f).max()
    assert np.abs(C).max() / scale < 5e-2  # FD in y3 breaks exactness, spectral part cancels


def test_cov_laplacian_matches_div_grad(grid16, rng):
    g = grid16
    eta = perturbed_map(g, rng, eps=0.05)
    cache = build_geometry(g, eta, KAPPA)
    f = random_scalar(g, rng)
    grad_f = cov_grad(g, cache.a_s, g.gradient(f))
    lhs = cov_laplacian(g, cache.a_s, grad_f)
    rhs = cov_div(g, cache.a_s, g.gradient(grad_f))
    assert np.abs(lhs - rhs).max() < 1e-12
    # a vector's table: the Laplacian of each component
    X = random_vector(g, rng)
    lhs = cov_laplacian(g, cache.a_s, cov_grad_vector(g, cache.a_s, g.gradient(X)))
    for lam in range(3):
        rhs = cov_div(g, cache.a_s, g.gradient(cov_grad(g, cache.a_s, g.gradient(X[lam]))))
        assert np.abs(lhs[lam] - rhs).max() < 1e-12


def test_piola_identity_refinement_order(rng):
    # the cofactor divergence identity holds exactly in the continuum;
    # discretely the y3 stencil leaves an O(h^2) residual
    errs = []
    for n3 in (16, 32, 64):
        g = Grid(GridSpec(16, 16, n3))
        eta = perturbed_map(g, np.random.default_rng(7), eps=0.1, band=1)
        cache = build_geometry(g, eta, 0.0)
        errs.append(piola_residual(cache))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.8, f"piola orders {orders} from residuals {errs}"


def test_smoothed_geometry_close_to_raw_for_small_kappa(grid16, rng):
    eta = perturbed_map(grid16, rng, eps=0.05)
    c1 = build_geometry(grid16, eta, 0.05)
    c2 = build_geometry(grid16, eta, 0.0125)
    raw = _raw_jacobian(grid16, eta)
    d1 = np.abs(c1.J_s - raw).max()
    d2 = np.abs(c2.J_s - raw).max()
    assert d2 < d1
