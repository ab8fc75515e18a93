"""Tangential Gaussian smoothing and its commutators."""

import numpy as np
import pytest

from lfmhd.fields import random_boundary_rough, random_boundary_smooth, random_scalar
from lfmhd.smoothing import commutator, mollify


def test_kappa_validation(grid16):
    f = np.zeros(grid16.shape)
    with pytest.raises(ValueError):
        mollify(grid16, f, -0.1)
    out = mollify(grid16, f, 0.0)
    assert out is not f  # kappa = 0 still returns a fresh copy


def test_constant_preserved_exactly(grid16):
    f = np.full(grid16.shape, 1.75)
    out = mollify(grid16, f, 0.2)
    assert np.abs(out - f).max() < 1e-13


def test_single_mode_eigenfunction(grid16):
    g = grid16
    kappa = 0.1
    f = np.sin(2 * np.pi * g.y1)[:, None, None] * np.ones(g.shape)
    out = mollify(g, f, kappa)
    factor = np.exp(-kappa * kappa * (2 * np.pi) ** 2 / 2)
    assert np.abs(out - factor * f).max() < 1e-12


def test_mass_preserved_per_plane(grid16, rng):
    f = random_scalar(grid16, rng)
    out = mollify(grid16, f, 0.17)
    assert np.abs(out.mean(axis=(0, 1)) - f.mean(axis=(0, 1))).max() < 1e-13


def test_norm_contraction_every_sample(grid16, rng):
    # |m| <= 1 makes the smoothing a contraction in every integer norm
    for _ in range(5):
        f = random_scalar(grid16, rng)
        for s in (0, 1, 2):
            assert mollify(grid16, f, 0.15).shape == f.shape
            assert grid16.norm(mollify(grid16, f, 0.15), s) <= grid16.norm(f, s) + 1e-12


def test_convergence_to_identity_monotone(grid16, rng):
    f = random_scalar(grid16, rng)
    errs = [grid16.low_norm(mollify(grid16, f, k) - f) for k in (0.2, 0.1, 0.05, 0.025)]
    assert all(a > b for a, b in zip(errs, errs[1:])), errs


def test_power_two_is_multiplier_squared(grid16, rng):
    f = random_scalar(grid16, rng)
    once = mollify(grid16, mollify(grid16, f, 0.12), 0.12)
    squared = mollify(grid16, f, 0.12, power=2)
    assert np.abs(once - squared).max() < 1e-13


def test_self_adjoint_in_plane_l2(grid16, rng):
    f = random_scalar(grid16, rng)
    g = random_scalar(grid16, rng)
    lhs = grid16.integrate(mollify(grid16, f, 0.2) * g)
    rhs = grid16.integrate(f * mollify(grid16, g, 0.2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_boundary_field_smoothing(grid16, rng):
    w = random_boundary_smooth(grid16, rng)
    out = mollify(grid16, w, 0.1)
    assert out.shape == w.shape
    assert grid16.norm(out, 0) <= grid16.norm(w, 0)


def test_commutator_trivial_cases(grid16, rng):
    f = np.full((2, 16, 16), 3.0)
    g = random_boundary_smooth(grid16, rng)
    out = commutator(grid16, f, g, 0.1)
    assert np.abs(out).max() < 1e-12
    zero = commutator(grid16, g, np.zeros_like(g), 0.1)
    assert np.abs(zero).max() == 0.0


def test_approximation_rate_on_smooth_field(grid16, rng):
    # smooth data decays faster than the generic rate; the fitted slope
    # over dyadic kappa must clear the 0.45 floor comfortably
    f = random_boundary_smooth(grid16, rng)
    kappas = np.array([0.2, 0.1, 0.05, 0.025])
    errs = np.array([np.abs(mollify(grid16, f, k) - f).max() for k in kappas])
    slope = np.polyfit(np.log(kappas), np.log(errs), 1)[0]
    assert slope >= 0.45, f"fitted decay exponent {slope}"


def test_product_commutator_constant_stable(grid16, rng):
    # [smoother, f] g against |f|_inf |g|_0 on rough data; the constant
    # must sit in a 2x window as kappa halves
    consts = {k: [] for k in (0.2, 0.1, 0.05)}
    for _ in range(10):
        f = random_boundary_smooth(grid16, rng)
        g = random_boundary_rough(grid16, rng)
        f_inf = np.abs(f).max()
        g0 = grid16.norm(g, 0)
        for k in consts:
            c = grid16.norm(commutator(grid16, f, g, k), 0)
            consts[k].append(c / (f_inf * g0))
    worst = {k: max(v) for k, v in consts.items()}
    vals = list(worst.values())
    for a, b in zip(vals, vals[1:]):
        assert b <= 2.0 * a + 1e-12 and a <= 2.0 * b + 1e-12, worst


def test_derivative_commutator_constant_stable(grid16, rng):
    # [smoother, f] d1 g against the W^{1,inf} x L2 product; kappa runs an
    # octave lower so the critical band k ~ 1/kappa is on the lattice
    consts = {k: [] for k in (0.1, 0.05, 0.025)}
    for _ in range(10):
        f = random_boundary_smooth(grid16, rng)
        g = random_boundary_rough(grid16, rng)
        f_inf = np.abs(f).max() + max(
            np.abs(grid16.derivative(f, i)).max() for i in (1, 2)
        )
        g0 = grid16.norm(g, 0)
        for k in consts:
            c = grid16.norm(commutator(grid16, f, grid16.derivative(g, 1), k), 0)
            consts[k].append(c / (f_inf * g0))
    worst = {k: max(v) for k, v in consts.items()}
    vals = list(worst.values())
    for a, b in zip(vals, vals[1:]):
        assert b <= 2.0 * a + 1e-12 and a <= 2.0 * b + 1e-12, worst
