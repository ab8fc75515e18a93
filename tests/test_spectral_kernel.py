"""The spectral kernel against full complex-FFT references.

Separable tangential operators (derivatives, the tangential Laplacian,
dealiasing and the mollifier) run as one cached real matrix per axis
through ``Grid.apply_factor``; symbols that couple k1 and k2 or carry a
y3 profile run through ``Grid.apply_symbol`` on the half spectrum.
Interior Sobolev norms take one tangential transform: the y3 stencil acts
on the half spectrum once per normal order, and every order, the top one
included, is summed by Parseval.  The references below are the direct
forms: full ``fft2``/``ifft2`` round trips per multiplier and the
multi-index composition sum, in physical space, per norm.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfmhd
from lfmhd.correction import harmonic_extension
from lfmhd.diagnostics import map_norm
from lfmhd.fields import perturbed_map
from lfmhd.geometry import DegenerateMapError, _invert_pointwise, build_geometry, deformation_gradient
from lfmhd.grid import DEALIAS_FRACTION, Grid, GridSpec
from lfmhd.linear_step import _flat_preconditioner
from lfmhd.smoothing import mollify

GRIDS = (Grid(GridSpec(8, 8, 8)), Grid(GridSpec(8, 12, 9)))


# ----------------------------------------------------------------------
# full-spectrum references


def _axes(grid, f):
    return (-3, -2) if grid.field_kind(f) == "interior" else (-2, -1)


def _broadcast(grid, f, sym2d):
    """Reshape an (n1, n2) symbol onto the tangential axes of f."""
    return sym2d[:, :, None] if grid.field_kind(f) == "interior" else sym2d


def _full_apply(grid, f, sym2d):
    ax = _axes(grid, f)
    fh = np.fft.fft2(f, axes=ax) * _broadcast(grid, f, sym2d)
    return np.fft.ifft2(fh, axes=ax).real


def _full_derivative_symbol(grid, p1, p2):
    n1, n2 = grid.spec.n1, grid.spec.n2
    m1 = (1j * grid.k1) ** p1 if p1 else np.ones(n1, dtype=complex)
    m2 = (1j * grid.k2) ** p2 if p2 else np.ones(n2, dtype=complex)
    if p1:
        m1[n1 // 2] = 0.0
    if p2:
        m2[n2 // 2] = 0.0
    return m1[:, None] * m2[None, :]


def _full_ksq(grid):
    return grid.k1[:, None] ** 2 + grid.k2[None, :] ** 2


def _composition_norm(grid, f, s):
    """sqrt of the sum over p1 + p2 + p3 <= s of ||d1^p1 d2^p2 d3^p3 f||_0^2."""
    total = 0.0
    for order in range(s + 1):
        for p1 in range(order + 1):
            for p2 in range(order - p1 + 1):
                d = _full_apply(grid, f, _full_derivative_symbol(grid, p1, p2))
                for _ in range(order - p1 - p2):
                    d = grid.derivative(d, 3)
                total += grid.integrate(d * d)
    return np.sqrt(total)


def _random_field(grid, rng, lead, nyquist):
    """Random interior field with extra energy on both Nyquist lines."""
    f = rng.standard_normal(lead + grid.shape)
    n1, n2 = grid.spec.n1, grid.spec.n2
    saw1 = np.cos(np.pi * n1 * grid.y1)[:, None, None]
    saw2 = np.cos(np.pi * n2 * grid.y2)[None, :, None]
    profile = rng.standard_normal(lead + (1, 1, grid.spec.n3 + 1))
    return f + nyquist * profile * (saw1 + saw2 + saw1 * saw2)


def _close(got, want, rel):
    scale = max(np.abs(want).max(), 1e-300)
    return np.abs(got - want).max() <= rel * scale


# ----------------------------------------------------------------------
# Parseval norms


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    grid_index=st.integers(0, len(GRIDS) - 1),
    lead=st.sampled_from([(), (3,), (2, 3)]),
    nyquist=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval_norm_equals_composition_sum(grid_index, lead, nyquist, seed):
    grid = GRIDS[grid_index]
    f = _random_field(grid, np.random.default_rng(seed), lead, nyquist)
    for s in range(5):
        assert grid.norm(f, s) == pytest.approx(_composition_norm(grid, f, s), rel=1e-12)


@pytest.mark.parametrize("grid", GRIDS)
def test_map_norm_equals_composition_sum(grid):
    # the expanded first-order squares against the direct sum with the
    # identity's unit gradient added back component by component
    eta = perturbed_map(grid, np.random.default_rng(3), eps=0.05)
    disp = grid.displacement(eta)
    for s in range(5):
        total = grid.integrate(np.sum(eta * eta, axis=0))
        for order in range(1, s + 1):
            for p1 in range(order + 1):
                for p2 in range(order - p1 + 1):
                    p3 = order - p1 - p2
                    d = _full_apply(grid, disp, _full_derivative_symbol(grid, p1, p2))
                    for _ in range(p3):
                        d = grid.derivative(d, 3)
                    if order == 1:
                        mu = (p1, p2, p3).index(1)
                        d[mu] += 1.0
                    total += grid.integrate(np.sum(d * d, axis=0))
        assert map_norm(grid, eta, s) == pytest.approx(np.sqrt(total), rel=1e-12)


@pytest.mark.parametrize("grid", GRIDS)
def test_boundary_norm_matches_full_spectrum(grid):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 2, grid.spec.n1, grid.spec.n2))
    fh = np.fft.fft2(w, axes=(-2, -1)) / (grid.spec.n1 * grid.spec.n2)
    for two_s in range(8):
        s = two_s / 2.0
        want = np.sqrt(np.sum((1.0 + _full_ksq(grid)) ** s * np.abs(fh) ** 2))
        assert grid.norm(w, s) == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# the tangential operators, one multiplier kind at a time


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("layout", ["interior", "boundary"])
def test_plane_symbols_match_full_fft(grid, layout):
    rng = np.random.default_rng(7)
    shape = (3,) + (grid.shape if layout == "interior" else (2, grid.spec.n1, grid.spec.n2))
    f = _random_field(grid, rng, (3,), 1.0) if layout == "interior" else rng.standard_normal(shape)
    ksq = _full_ksq(grid)

    # higher and mixed derivatives are compositions of first ones
    for p1, p2 in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 3), (2, 2)):
        ref = _full_apply(grid, f, _full_derivative_symbol(grid, p1, p2))
        g = f
        for axis in (1,) * p1 + (2,) * p2:
            g = grid.derivative(g, axis)
        assert _close(g, ref, 1e-12)

    assert _close(grid.tangential_laplacian(f), _full_apply(grid, f, -ksq), 1e-12)
    with np.errstate(divide="ignore"):
        inv = np.where(ksq > 0.0, -1.0 / np.where(ksq > 0.0, ksq, 1.0), 0.0)
    assert _close(grid.invert_tangential_laplacian_nonzero(f), _full_apply(grid, f, inv), 1e-12)
    for kappa, power in ((0.1, 1), (0.1, 2), (0.05, 2)):
        gauss = np.exp(-0.5 * power * kappa * kappa * ksq)
        assert _close(mollify(grid, f, kappa, power), _full_apply(grid, f, gauss), 1e-12)

    n1, n2, frac = grid.spec.n1, grid.spec.n2, DEALIAS_FRACTION
    idx1 = np.abs(np.fft.fftfreq(n1, d=1.0 / n1))
    idx2 = np.abs(np.fft.fftfreq(n2, d=1.0 / n2))
    mask = (idx1[:, None] <= np.floor(frac * n1 / 2.0)) & (idx2[None, :] <= np.floor(frac * n2 / 2.0))
    assert _close(grid.dealias(f), _full_apply(grid, f, mask), 1e-12)


@pytest.mark.parametrize("grid", (Grid(GridSpec(16, 16, 16)), GRIDS[1]))
@pytest.mark.parametrize("layout", ["interior", "boundary"])
@pytest.mark.parametrize("axis", [1, 2])
def test_constant_along_an_axis_has_exactly_zero_derivative_along_it(grid, layout, axis):
    # the derivative matrices act on the field minus its first line along
    # the axis, so a constant line maps to 0.0 exactly, as the FFT gives
    rng = np.random.default_rng(21)
    tangential = (2, grid.spec.n1, grid.spec.n2) if layout == "boundary" else grid.shape
    shape = (3,) + tangential
    pos = axis - 4 if layout == "interior" else axis - 3
    f = np.broadcast_to(np.take(rng.standard_normal(shape), [0], axis=pos), shape).copy()
    assert np.all(grid.derivative(f, axis) == 0.0)
    if axis == 1:
        # the constant axis goes first, so the mixed derivative is exact too
        assert np.all(grid.derivative(grid.derivative(f, 1), 2) == 0.0)
    if layout == "interior":
        assert np.all(grid.gradient(f)[axis - 1] == 0.0)


@pytest.mark.parametrize("grid", GRIDS)
def test_gradient_is_the_three_partials(grid):
    f = _random_field(grid, np.random.default_rng(9), (3,), 1.0)
    G = grid.gradient(f)
    assert G.shape == (3,) + f.shape
    for mu in range(3):
        np.testing.assert_allclose(G[mu], grid.derivative(f, mu + 1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid", GRIDS)
def test_harmonic_extension_matches_full_sinh_profiles(grid):
    # every mode of these lattices is small enough for the plain ratio
    rng = np.random.default_rng(13)
    g = rng.standard_normal((3, 2, grid.spec.n1, grid.spec.n2))
    k = np.sqrt(_full_ksq(grid))[:, :, None]
    y3 = grid.y3[None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        S0 = np.sinh(k * (1.0 - y3)) / np.sinh(k)
        S1 = np.sinh(k * y3) / np.sinh(k)
    S0[0, 0], S1[0, 0] = 1.0 - grid.y3, grid.y3
    gh = np.fft.fft2(g, axes=(-2, -1))
    psi_h = gh[..., 0, :, :, None] * S0 + gh[..., 1, :, :, None] * S1
    ref = np.fft.ifft2(psi_h, axes=(-3, -2)).real
    assert _close(harmonic_extension(grid, g), ref, 1e-12)


def _stencil3_matrix(nz, h):
    """The y3 stencil of ``Grid.derivative(f, 3)`` written out: central
    inside, one-sided second order at the walls."""
    D = np.zeros((nz, nz))
    for i in range(1, nz - 1):
        D[i, i - 1], D[i, i + 1] = -0.5 / h, 0.5 / h
    D[0, :3] = -1.5 / h, 2.0 / h, -0.5 / h
    D[-1, -3:] = 0.5 / h, -2.0 / h, 1.5 / h
    return D


@pytest.mark.parametrize("n3", (8, 16, 32, 33))
def test_y3_stencil_matrix_form_matches_fd3(n3):
    # the flat preconditioner factors the stencil applied to the identity
    grid = Grid(GridSpec(8, 8, n3))
    M = grid._stencil3(np.eye(n3 + 1)).T
    assert np.array_equal(M, _stencil3_matrix(n3 + 1, grid.h3))
    # as a matrix product it sums the same terms in another order
    f = np.random.default_rng(n3).standard_normal(grid.shape)
    bound = 8.0 * np.finfo(float).eps * np.abs(f).max() / grid.h3
    assert np.abs(f @ M.T - grid.derivative(f, 3)).max() <= bound


@pytest.mark.parametrize("grid", GRIDS)
def test_flat_preconditioner_matches_full_modal_solve(grid):
    # per tangential mode, a dense solve of (1 + dt |xi|^2) - dt D33 on
    # the interior rows
    dt = 0.01
    nz = grid.spec.n3 + 1
    D3 = _stencil3_matrix(nz, grid.h3)
    D33 = (D3 @ D3)[1:-1, 1:-1]
    res = np.random.default_rng(17).standard_normal((grid.spec.n1, grid.spec.n2, nz - 2))
    rh = np.fft.fft2(res, axes=(0, 1))
    ops = (1.0 + dt * _full_ksq(grid))[:, :, None, None] * np.eye(nz - 2) - dt * D33
    ref = np.fft.ifft2(np.linalg.solve(ops, rh[..., None])[..., 0], axes=(0, 1)).real
    assert _close(_flat_preconditioner(grid, dt)(res), ref, 1e-12)


# ----------------------------------------------------------------------
# closed-form cofactors


@pytest.mark.parametrize("seed", range(4))
def test_adjugate_matches_linalg_inverse(seed):
    grid = GRIDS[1]
    rng = np.random.default_rng(seed)
    deta = np.eye(3)[:, :, None, None, None] + 0.1 * rng.standard_normal((3, 3) + grid.shape)
    J, A, a = _invert_pointwise(deta, grid)
    mats = np.moveaxis(deta, (0, 1), (-2, -1))
    inv = np.moveaxis(np.linalg.inv(mats), (-2, -1), (0, 1))
    assert np.abs(J - np.linalg.det(mats)).max() < 1e-13
    assert np.abs(a - inv).max() < 1e-13
    assert np.abs(A - J * inv).max() < 1e-13


def test_degenerate_map_reports_the_linalg_index():
    grid = GRIDS[1]
    eta = grid.identity_map.copy()
    # a normal fold, deepest at one lattice point
    y1 = grid.y1[:, None, None]
    y2 = grid.y2[None, :, None]
    y3 = grid.y3[None, None, :]
    bump = np.exp(-40.0 * ((y3 - 0.4) ** 2)) * (1.0 + 0.2 * np.cos(2 * np.pi * y1)
                                                 + 0.1 * np.sin(2 * np.pi * y2))
    eta[2] = eta[2] - 1.5 * (y3 - 0.4) * bump
    mats = np.moveaxis(deformation_gradient(grid, eta), (0, 1), (-2, -1))
    det = np.linalg.det(mats)
    assert det.min() <= 1e-6
    want = tuple(int(i) for i in np.unravel_index(int(np.argmin(det)), det.shape))
    with pytest.raises(DegenerateMapError) as err:
        build_geometry(grid, eta, 0.1)
    assert err.value.index == want
    assert err.value.value == pytest.approx(det.min(), abs=1e-13)


# ----------------------------------------------------------------------
# the single spectral primitive stays single


def test_numpy_fft_only_in_grid_module():
    package = Path(lfmhd.__file__).parent
    offenders = [
        p.name for p in sorted(package.glob("*.py"))
        if p.name != "grid.py" and re.search(r"\bfft\b", p.read_text())
    ]
    assert offenders == []


def test_no_module_reads_the_environment():
    # every setting reaches the package through its arguments or the config
    package = Path(lfmhd.__file__).parent
    offenders = [
        p.name for p in sorted(package.glob("*.py"))
        if re.search(r"\bos\.environ\b|\bgetenv\b", p.read_text())
    ]
    assert offenders == []
