"""Boundary correction data, harmonic extension, and the full psi field."""

import numpy as np
import pytest

from lfmhd.correction import (
    correction_boundary_data,
    correction_field,
    harmonic_extension,
)
from lfmhd.fields import perturbed_map, random_vector
from lfmhd.geometry import build_geometry
from lfmhd.grid import Grid, GridSpec

KAPPA = 0.1


def _tangential_laplacian_3d(grid, f):
    # flat interior laplacian of the extension: lap_t + d33 via FD
    d33 = grid.derivative(grid.derivative(f, 3), 3)
    return grid.tangential_laplacian(f) + d33


def test_psi_vanishes_for_identity_map(grid16, rng):
    g = grid16
    cache = build_geometry(g, g.identity_map, KAPPA)
    v = random_vector(g, rng)
    gdata = correction_boundary_data(g, g.identity_map, v, cache.a_s, KAPPA)
    psi = correction_field(g, g.identity_map, v, cache.a_s, KAPPA)
    assert np.abs(gdata).max() == 0.0
    assert np.abs(psi).max() == 0.0


def test_psi_vanishes_for_zero_velocity(grid16, rng):
    g = grid16
    eta = perturbed_map(g, rng, eps=0.05)
    cache = build_geometry(g, eta, KAPPA)
    psi = correction_field(g, eta, np.zeros((3,) + g.shape), cache.a_s, KAPPA)
    assert np.abs(psi).max() == 0.0


def test_boundary_data_has_zero_tangential_mean(grid16, rng):
    g = grid16
    eta = perturbed_map(g, rng, eps=0.05)
    cache = build_geometry(g, eta, KAPPA)
    v = random_vector(g, rng)
    gdata = correction_boundary_data(g, eta, v, cache.a_s, KAPPA)
    means = np.abs(gdata.mean(axis=(-2, -1)))
    assert means.max() < 1e-13


def test_harmonic_extension_traces_and_interior_laplace():
    g = Grid(GridSpec(16, 16, 64))
    gdata = np.zeros((2, 16, 16))
    gdata[0] = np.cos(2 * np.pi * g.y1)[:, None]
    gdata[1] = -0.5 * np.sin(4 * np.pi * g.y2)[None, :]
    psi = harmonic_extension(g, gdata)
    assert np.abs(psi[..., 0] - gdata[0]).max() < 1e-12
    assert np.abs(psi[..., -1] - gdata[1]).max() < 1e-12


def test_harmonic_extension_interior_laplace_refines():
    # the extension is exact per mode; applying the nested FD Laplacian
    # leaves pure stencil truncation: second order on a fixed interior
    # window (wide composed stencil), first order on the wall-adjacent
    # level where the exponential profile also moves with h
    deep, near = [], []
    for n3 in (32, 64):
        g = Grid(GridSpec(16, 16, n3))
        gdata = np.zeros((2, 16, 16))
        gdata[0] = np.cos(2 * np.pi * g.y1)[:, None]
        gdata[1] = -0.5 * np.sin(4 * np.pi * g.y2)[None, :]
        psi = harmonic_extension(g, gdata)
        lap = _tangential_laplacian_3d(g, psi)
        # inclusive upper edge so the window covers the same physical slab
        # [1/4, 3/4] at both resolutions; the wall-driven modes grow
        # exponentially toward the walls, so a drifting edge skews the ratio
        deep.append(np.abs(lap[..., n3 // 4: 3 * n3 // 4 + 1]).max())
        near.append(max(np.abs(lap[..., 1]).max(), np.abs(lap[..., -2]).max()))
    assert deep[0] / deep[1] > 3.5, deep
    assert near[0] / near[1] > 1.25, near


def test_harmonic_extension_zero_mode_linear(grid16):
    gdata = np.zeros((2, 16, 16))
    gdata[0] = 2.0
    gdata[1] = -1.0
    psi = harmonic_extension(grid16, gdata)
    expect = 2.0 - 3.0 * grid16.y3
    assert np.abs(psi - expect[None, None, :]).max() < 1e-12


def test_harmonic_extension_decays_from_driving_wall():
    g = Grid(GridSpec(16, 16, 32))
    gdata = np.zeros((2, 16, 16))
    gdata[0] = np.cos(2 * np.pi * 3 * g.y1)[:, None]
    psi = harmonic_extension(g, gdata)
    # high tangential mode decays like exp(-k y3) away from its wall
    prof = np.abs(psi[0, 0, :])
    assert prof[0] == pytest.approx(1.0, abs=1e-12)
    k = 2 * np.pi * 3
    expect = np.exp(-k * 0.25)
    idx = 8  # y3 = 0.25
    assert prof[idx] == pytest.approx(expect, rel=0.05)


def test_harmonic_extension_matches_dense_bvp_solve():
    # oracle: per tangential mode the profile solves u'' = k^2 u with the
    # wall values as boundary data; a dense second-order solve, Richardson
    # extrapolated on a fine interior lattice, pins the answer to 1e-8
    import numpy.linalg as la

    g = Grid(GridSpec(16, 16, 16))
    rng = np.random.default_rng(11)
    gdata = rng.standard_normal((2, 16, 16))
    gdata = g.project_nonzero(gdata)
    psi = harmonic_extension(g, gdata)

    gh = np.fft.fft2(gdata, axes=(-2, -1))
    ksq = g.k1[:, None] ** 2 + g.k2[None, :] ** 2

    def bvp_profile(k2, y, n):
        # u'' = k2 u on (0,1), u(0) = a, u(1) = b: dense FD solve at n+1 nodes
        h = 1.0 / n
        m = np.zeros((n - 1, n - 1))
        np.fill_diagonal(m, -2.0 / h**2 - k2)
        idx = np.arange(n - 2)
        m[idx, idx + 1] = 1.0 / h**2
        m[idx + 1, idx] = 1.0 / h**2
        return m

    n_ref = 1024
    y_coarse = g.y3
    errs = []
    for (i1, i2) in ((1, 0), (3, 2), (5, 5)):
        k2 = ksq[i1, i2]
        a, b = gh[0, i1, i2], gh[1, i1, i2]
        vals = {}
        for n in (n_ref, 2 * n_ref):
            m = bvp_profile(k2, None, n)
            rhs = np.zeros(n - 1, dtype=complex)
            rhs[0] = -a / (1.0 / n) ** 2
            rhs[-1] = -b / (1.0 / n) ** 2
            u = la.solve(m, rhs)
            full = np.concatenate([[a], u, [b]])
            take = np.round(np.linspace(0, n, g.spec.n3 + 1)).astype(int)
            vals[n] = full[take]
        richardson = vals[2 * n_ref] + (vals[2 * n_ref] - vals[n_ref]) / 3.0
        psih = np.fft.fft2(psi, axes=(0, 1))[i1, i2, :]
        errs.append(np.abs(psih - richardson).max() / (abs(a) + abs(b)))
    assert max(errs) < 1e-8, errs


def test_correction_vanishes_quadratically_in_small_kappa(grid16, rng):
    # the two parts of the boundary data cancel as the smoother tends to
    # the identity; on random data the decay is monotone once kappa is in
    # the asymptotic band (the large-kappa side need not be monotone, the
    # preset-level sweep checks that separately on converged runs)
    g = grid16
    eta = perturbed_map(g, rng, eps=0.05)
    v = random_vector(g, rng)
    norms = []
    for kappa in (0.1, 0.05, 0.025, 0.0125):
        cache = build_geometry(g, eta, kappa)
        psi = correction_field(g, eta, v, cache.a_s, kappa)
        norms.append(g.low_norm(psi))
    assert all(a > b for a, b in zip(norms, norms[1:])), norms
    # quadratic tail: each halving cuts the norm by ~4, demand at least 2.5
    assert norms[-2] / norms[-1] > 2.5
