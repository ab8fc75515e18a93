"""Reproducible synthetic fields for tests, demos and the lemma battery."""

from __future__ import annotations

import numpy as np

from .grid import Grid


def random_scalar(
    grid: Grid,
    rng: np.random.Generator,
    band: int = 3,
    n3_modes: int = 2,
) -> np.ndarray:
    """Smooth random interior scalar, band-limited tangentially.

    A sum of tangential modes with |k1|, |k2| <= band modulated by
    cos(m pi y3) profiles, so the field is analytic in all directions
    without being periodic in y3.
    """
    shape = grid.spec.shape
    Y1 = grid.y1[:, None, None]
    Y2 = grid.y2[None, :, None]
    Y3 = grid.y3[None, None, :]
    out = np.zeros(shape)
    for m in range(n3_modes + 1):
        prof = np.cos(m * np.pi * Y3)
        plane = np.zeros(shape[:2])[:, :, None]
        for k1 in range(-band, band + 1):
            for k2 in range(0, band + 1):
                if k2 == 0 and k1 < 0:
                    continue
                amp = rng.normal() / (1.0 + k1 * k1 + k2 * k2)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                plane = plane + amp * np.cos(
                    2.0 * np.pi * (k1 * Y1 + k2 * Y2) + phase
                )
        out += prof * plane / (1.0 + m * m)
    return out


def random_vector(grid: Grid, rng: np.random.Generator, **kw) -> np.ndarray:
    return np.stack([random_scalar(grid, rng, **kw) for _ in range(3)])


def random_boundary_smooth(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Smooth random boundary scalar (independent fields on the two walls)."""
    return np.stack([random_scalar(grid, rng, n3_modes=0)[..., 0] for _ in range(2)])


def random_boundary_rough(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """White-noise boundary scalar; saturates the high tangential modes."""
    return rng.standard_normal((2, grid.spec.n1, grid.spec.n2))


def wall_vanishing_scalar(grid: Grid, rng: np.random.Generator, band: int) -> np.ndarray:
    """Smooth interior scalar vanishing on both walls (sin(pi y3) profile)."""
    prof = np.sin(np.pi * grid.y3)[None, None, :]
    return random_scalar(grid, rng, band=band, n3_modes=0) * prof


def perturbed_map(
    grid: Grid,
    rng: np.random.Generator,
    eps: float,
    band: int = 1,
) -> np.ndarray:
    """Identity map plus a smooth, low-mode, wall-respecting perturbation.

    The normal component keeps the perturbation inside the slab by a
    y3 (1 - y3) factor; tangential components use full-depth profiles.
    """
    Y3 = grid.y3[None, None, :]
    eta = grid.identity_map.copy()
    for alpha in range(3):
        pert = random_scalar(grid, rng, band=band, n3_modes=1)
        scale = np.max(np.abs(pert))
        pert = pert / scale if scale > 0 else pert
        if alpha == 2:
            pert = pert * 4.0 * Y3 * (1.0 - Y3)
        eta[alpha] += eps * pert
    return eta
