"""Flow-map geometry: deformation gradient, cofactors, covariant calculus.

Index conventions, with Greek indices running over 1..3:

* ``deta[alpha, mu]`` holds d(eta_alpha)/d(y_mu);
* ``a[mu, alpha]`` is the inverse, so that a^{mu alpha} d_mu pulls back
  the Eulerian gradient;
* ``A = J a`` is the cofactor matrix, whose rows are divergence free for
  any smooth map (the Piola identity) up to discretization error.

Derivatives of flow maps always act on the periodic displacement
``eta - Id`` in the tangential directions, so the identity map is exact
on the discrete lattice.  Jacobians and inverses come from the
closed-form 3x3 adjugate, pointwise; products inside covariant operators are pointwise with the
grid's tangential dealiasing applied to each result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .smoothing import mollify

# Jacobians at or below this value, or NaN, are refused as degenerate
DET_FLOOR = 1e-6


class DegenerateMapError(RuntimeError):
    """Flow map Jacobian at or below the determinant floor, or NaN.

    Carries the offending lattice index (for NaN, the first one), its
    reference coordinates and the Jacobian value there.
    """

    def __init__(self, value: float, index: tuple[int, int, int], coords: tuple[float, float, float]):
        self.value = value
        self.index = index
        self.coords = coords
        super().__init__(
            f"flow map degenerate: det = {value:.6e} at lattice index {index}, "
            f"y = ({coords[0]:.4f}, {coords[1]:.4f}, {coords[2]:.4f})"
        )


@dataclass
class GeometryCache:
    """Geometry of one flow map and of its tangentially smoothed copy."""

    grid: Grid
    kappa: float
    eta: np.ndarray      # (3, n1, n2, n3+1)
    J: np.ndarray        # (n1, n2, n3+1)
    a: np.ndarray        # (3, 3, n1, n2, n3+1), a[mu, alpha]
    A: np.ndarray        # cofactor J * a
    eta_s: np.ndarray    # smoothed map (squared mollifier on the displacement)
    J_s: np.ndarray
    a_s: np.ndarray


def deformation_gradient(grid: Grid, eta: np.ndarray) -> np.ndarray:
    """d(eta_alpha)/d(y_mu) as a (3, 3, n1, n2, n3+1) array."""
    grad = grid.gradient(grid.displacement(eta))  # grad[mu, alpha]
    return grad.swapaxes(0, 1) + np.eye(3)[:, :, None, None, None]


def _invert_pointwise(deta: np.ndarray, grid: Grid):
    """Jacobian J, cofactor A (the adjugate, A[mu, alpha]) and a = A / J."""
    A = np.empty_like(deta)
    for mu in range(3):
        m1, m2 = (mu + 1) % 3, (mu + 2) % 3
        for alpha in range(3):
            a1, a2 = (alpha + 1) % 3, (alpha + 2) % 3
            A[mu, alpha] = deta[a1, m1] * deta[a2, m2] - deta[a1, m2] * deta[a2, m1]
    J = deta[0, 0] * A[0, 0] + deta[0, 1] * A[1, 0] + deta[0, 2] * A[2, 0]
    jmin = float(J.min())
    if not jmin > DET_FLOOR:  # NaN fails too; argmin finds the first NaN
        index = np.unravel_index(int(np.argmin(J)), J.shape)
        coords = (float(grid.y1[index[0]]), float(grid.y2[index[1]]), float(grid.y3[index[2]]))
        raise DegenerateMapError(jmin, tuple(int(i) for i in index), coords)
    return J, A, A / J


def build_geometry(grid: Grid, eta: np.ndarray, kappa: float) -> GeometryCache:
    """Assemble the geometry cache for a flow map and its smoothed copy.

    The smoothed map applies the squared tangential mollifier to the
    displacement.  Raises :class:`DegenerateMapError` if either Jacobian
    drops to ``DET_FLOOR`` or is NaN.
    """
    J, A, a = _invert_pointwise(deformation_gradient(grid, eta), grid)
    eta_s = grid.identity_map + mollify(grid, grid.displacement(eta), kappa, power=2)
    J_s, _, a_s = _invert_pointwise(deformation_gradient(grid, eta_s), grid)

    return GeometryCache(
        grid=grid, kappa=kappa, eta=eta, J=J, a=a, A=A,
        eta_s=eta_s, J_s=J_s, a_s=a_s,
    )


# ----------------------------------------------------------------------
# covariant operators (pass a = cache.a or cache.a_s explicitly)


def cov_grad(grid: Grid, a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Covariant gradient a^{mu alpha} d_mu f of a scalar field."""
    return grid.dealias(np.einsum("ma...,m...->a...", a, grid.gradient(f)))


def cov_grad_vector(grid: Grid, a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Covariant gradient of a vector field; out[alpha, lam] = grad^alpha X_lam."""
    return cov_grad_vector_from_gradient(grid, a, grid.gradient(X))


def cov_grad_vector_from_gradient(grid: Grid, a: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``cov_grad_vector`` from a gradient table G[mu, lam] = d_mu X_lam."""
    return grid.dealias(np.einsum("ma...,ml...->al...", a, G))


def cov_div(grid: Grid, a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Covariant divergence a^{mu alpha} d_mu X_alpha."""
    return cov_div_from_gradient(grid, a, grid.gradient(X))


def cov_div_from_gradient(grid: Grid, a: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``cov_div`` from a gradient table G[mu, alpha] = d_mu X_alpha."""
    return grid.dealias(np.einsum("ma...,ma...->...", a, G))


def curl_from_gradient(G: np.ndarray) -> np.ndarray:
    """Curl from a gradient table G[mu, alpha] = d_mu X_alpha."""
    return np.stack([G[1, 2] - G[2, 1], G[2, 0] - G[0, 2], G[0, 1] - G[1, 0]])


def cov_laplacian(grid: Grid, a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Nested covariant Laplacian div_a(grad_a f), scalar or component-wise."""
    if f.ndim == 3:
        return cov_div(grid, a, cov_grad(grid, a, f))
    return np.stack([cov_div(grid, a, cov_grad(grid, a, comp)) for comp in f])


def piola_field(grid: Grid, A: np.ndarray) -> np.ndarray:
    """Row divergences d_mu A^{mu alpha} of a cofactor matrix."""
    return np.einsum("mma...->a...", grid.gradient(A))


def piola_residual(cache: GeometryCache, smoothed: bool = False) -> float:
    """Max over alpha of the L2 norm of the cofactor row divergences."""
    A = cache.J_s[None, None] * cache.a_s if smoothed else cache.A
    res = piola_field(cache.grid, A)
    return max(cache.grid.low_norm(res[alpha]) for alpha in range(3))
