"""Tangential mollifier and its commutators.

The smoothing operator acts plane by plane in the tangential Fourier
variables through the Gaussian multiplier

    m_kappa(xi) = exp(-kappa^2 |xi|^2 / 2),

so it is self-adjoint on every plane, contracts every tangential Sobolev
norm, and the squared operator used for the smoothed flow map is just the
multiplier squared applied in one pass.  The multiplier is the product of
exp(-kappa^2 k^2 / 2) along each tangential axis and is applied one axis
after the other.  kappa = 0 is the identity.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


def mollify(grid: Grid, f: np.ndarray, kappa: float, power: int = 1) -> np.ndarray:
    """Apply the Gaussian tangential mollifier (to the given power).

    Works on interior and boundary layouts alike; the y3 direction is
    untouched.  ``power=2`` gives the squared operator.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if kappa == 0.0:
        return f.copy()
    def factor(k):
        return np.exp(-0.5 * power * kappa * kappa * k * k)
    key = ("gaussian", kappa, power)
    return grid.apply_factor(grid.apply_factor(f, 1, key, factor), 2, key, factor)


def commutator(grid: Grid, f: np.ndarray, g: np.ndarray, kappa: float) -> np.ndarray:
    """[mollifier, f] g = mollify(f g) - f mollify(g), pointwise products."""
    return mollify(grid, f * g, kappa) - f * mollify(grid, g, kappa)
