"""Harmonic correction of the flow-map transport on the walls.

The correction field psi is harmonic in the slab and matches, on each
wall, the inverse tangential Laplacian of the mean-free datum

    lap_t(eta_beta) a~^{i beta} d_i (S^2 v)  -  lap_t(S^2 eta_beta) a~^{i beta} d_i v,

with i running over the tangential directions only and S^2 the squared
tangential mollifier.  It vanishes identically when the map is the
identity or the velocity is zero, and shrinks with the smoothing scale;
adding it to the transport keeps the smoothed boundary geometry moving
with the smoothed velocity.

The harmonic extension is modal: for each nonzero tangential mode the
normal profile is the exact two-point sinh solution, evaluated through
scaled exponentials once |xi| is large enough for sinh to lose digits;
the zero mode interpolates the two wall means linearly.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .smoothing import mollify

# switch the sinh ratio to the scaled-exponential form beyond this |xi|
_SINH_SWITCH = 30.0


def correction_boundary_data(
    grid: Grid,
    eta: np.ndarray,
    v: np.ndarray,
    a_s: np.ndarray,
    kappa: float,
) -> np.ndarray:
    """Wall datum for psi, one mean-free scalar per component and wall;
    ``a_s`` is the smoothed inverse a~ of eta."""
    disp = grid.displacement(eta)
    disp_w = grid.boundary_slices(disp)          # (3, 2, n1, n2)
    v_w = grid.boundary_slices(v)
    a_w = grid.boundary_slices(a_s)              # (3, 3, 2, n1, n2)

    lap_eta = grid.tangential_laplacian(disp_w)
    lap_eta_s = grid.tangential_laplacian(mollify(grid, disp_w, kappa, power=2))
    v_s = mollify(grid, v_w, kappa, power=2)

    g = np.zeros_like(v_w)
    for i in range(2):
        coeff = np.einsum("b...,b...->...", lap_eta, a_w[i])
        coeff_s = np.einsum("b...,b...->...", lap_eta_s, a_w[i])
        g += coeff[None] * grid.derivative(v_s, i + 1)
        g -= coeff_s[None] * grid.derivative(v_w, i + 1)
    return grid.invert_tangential_laplacian_nonzero(g)


def _sinh_profiles(grid: Grid) -> np.ndarray:
    """Normal profiles S0, S1 per tangential mode, shape (2, n1, n2 // 2 + 1, n3+1)."""
    kk = np.sqrt(grid.ksq)
    y3 = grid.y3

    def ratio(s: np.ndarray) -> np.ndarray:
        # sinh(k s) / sinh(k), stable for large k
        with np.errstate(over="ignore", invalid="ignore"):
            out_small = np.sinh(kk * s) / np.sinh(kk)
        exp_form = (
            np.exp(kk * (s - 1.0))
            * (1.0 - np.exp(-2.0 * kk * s))
            / (1.0 - np.exp(-2.0 * kk))
        )
        return np.where(kk < _SINH_SWITCH, out_small, exp_form)

    with np.errstate(divide="ignore", invalid="ignore"):
        S = np.stack([ratio(1.0 - y3), ratio(y3)])
    # zero mode: linear interpolation of the wall means
    S[0, 0, 0] = 1.0 - y3
    S[1, 0, 0] = y3
    return S


def harmonic_extension(grid: Grid, g: np.ndarray) -> np.ndarray:
    """Harmonic interior field matching boundary data g on both walls.

    Accepts any boundary layout ``(..., 2, n1, n2)`` and returns
    ``(..., n1, n2, n3+1)``.
    """
    if grid.field_kind(g) != "boundary" or g.shape[-3] != 2:
        raise ValueError(f"boundary data must have shape (..., 2, n1, n2), got {g.shape}")
    S = grid.cached_symbol("sinh_profiles", lambda: _sinh_profiles(grid))
    # each wall's profile lifts its datum into the slab; psi is their sum
    return grid.apply_symbol(g, S).sum(axis=-4)


def correction_field(
    grid: Grid,
    eta: np.ndarray,
    v: np.ndarray,
    a_s: np.ndarray,
    kappa: float,
) -> np.ndarray:
    """The harmonic correction field psi for one (eta, v) pair; ``a_s`` is
    the smoothed inverse a~ of eta."""
    g = correction_boundary_data(grid, eta, v, a_s, kappa)
    return harmonic_extension(grid, g)
