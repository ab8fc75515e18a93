"""Collocation grid and discrete calculus on the slab T^2 x (0, 1).

Tangential directions (y1, y2) are periodic with period 1 and are handled
spectrally; the normal direction y3 lives on a uniform grid with n3 + 1
points including both walls and is handled with second-order finite
differences (one-sided stencils at the walls).

Array layout conventions used throughout the package:

* interior scalar field: shape ``(n1, n2, n3 + 1)``
* interior vector field: shape ``(3, n1, n2, n3 + 1)``
* boundary scalar field: shape ``(2, n1, n2)`` (plane 0 is y3 = 0)
* boundary vector field: shape ``(3, 2, n1, n2)``

Leading axes beyond the grid axes are treated as component axes and
broadcast over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class FieldShapeError(ValueError):
    """Raised when an array does not match any known field layout."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution and dealiasing parameters for the slab grid.

    Attributes
    ----------
    n1, n2 : int
        Tangential point counts.  Must be even and at least 8.
    n3 : int
        Number of normal intervals; the lattice carries n3 + 1 planes.
    dealias_fraction : float
        Fraction of the tangential spectrum retained when products are
        dealiased.  1.0 disables truncation.
    """

    n1: int
    n2: int
    n3: int
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        for name in ("n1", "n2"):
            n = getattr(self, name)
            if n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be even and >= 8, got {n}")
        if self.n3 < 8:
            raise ValueError(f"n3 must be >= 8, got {self.n3}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )

    @property
    def h3(self) -> float:
        return 1.0 / self.n3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3 + 1)


def _wavenumbers(n: int) -> np.ndarray:
    # period-1 torus: mode k carries wavenumber 2*pi*k
    return 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)


class Grid:
    """Cached operators for one :class:`GridSpec`.

    Holds wavenumber tables, cached half-spectrum symbols and axis
    matrices, quadrature weights and the coordinate lattice, and
    implements derivatives, tangential inversion and the Sobolev norms
    used by the diagnostics.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n1, n2, n3 = spec.n1, spec.n2, spec.n3
        self.shape = spec.shape
        self.h3 = spec.h3
        self.y1 = np.arange(n1) / n1
        self.y2 = np.arange(n2) / n2
        self.y3 = np.linspace(0.0, 1.0, n3 + 1)
        self.k1 = _wavenumbers(n1)
        self.k2 = _wavenumbers(n2)
        self._k1h = self.k1[:, None, None]
        self._k2h = self.k2[None, : n2 // 2 + 1, None]
        self._symbols: dict = {}
        # trapezoid weights along y3; tangential quadrature is the plain mean
        w3 = np.full(n3 + 1, self.h3)
        w3[0] *= 0.5
        w3[-1] *= 0.5
        self.w3 = w3

    # ------------------------------------------------------------------
    # layout helpers

    def field_kind(self, f: np.ndarray) -> str:
        """Classify ``f`` as 'interior' or 'boundary' from its trailing axes."""
        s = self.spec
        if f.ndim >= 3 and f.shape[-3:] == (s.n1, s.n2, s.n3 + 1):
            return "interior"
        if f.ndim >= 2 and f.shape[-2:] == (s.n1, s.n2):
            return "boundary"
        raise FieldShapeError(
            f"array of shape {f.shape} matches neither interior {s.shape} "
            f"nor boundary (..., {s.n1}, {s.n2}) layout"
        )

    @cached_property
    def identity_map(self) -> np.ndarray:
        """The reference position field y, shape (3, n1, n2, n3 + 1)."""
        s = self.spec
        out = np.zeros((3,) + s.shape)
        out[0] = self.y1[:, None, None]
        out[1] = self.y2[None, :, None]
        out[2] = self.y3[None, None, :]
        return out

    def displacement(self, eta: np.ndarray) -> np.ndarray:
        """Periodic part of a flow map: eta minus the identity."""
        return eta - self.identity_map

    # ------------------------------------------------------------------
    # the spectral kernel
    #
    # A multiplier that is a product of two one-dimensional factors acts
    # along each tangential axis as the real matrix Re(F^-1 diag(m) F),
    # cached under a key and applied with matmul; on these lattices that is
    # cheaper than a transform round trip.  Symbols that couple k1 and k2
    # or carry a y3 profile go through rfft2/irfft2 on the half spectrum,
    # shape (n1, n2 // 2 + 1), with a trailing y3 axis of length 1
    # (plane-wise multipliers) or n3 + 1 (normal profiles).

    def cached_symbol(self, key, build) -> np.ndarray:
        """The symbol or axis matrix stored under ``key``; ``build()`` makes it once."""
        sym = self._symbols.get(key)
        if sym is None:
            sym = self._symbols[key] = build()
        return sym

    @cached_property
    def ksq(self) -> np.ndarray:
        """|xi|^2 on the half spectrum, shape (n1, n2 // 2 + 1, 1)."""
        return self._k1h**2 + self._k2h**2

    def apply_factor(self, f: np.ndarray, axis: int, key, factor) -> np.ndarray:
        """Multiply ``f`` by the one-dimensional multiplier ``factor(k)`` along
        tangential axis 1 or 2, in the interior or the boundary layout.

        ``factor`` maps the axis's wavenumbers to a multiplier that is real
        in physical space (m(-k) = conj m(k)); its matrix is built once and
        cached under ``(axis, key)``.  When m(0) = 0 the first line along
        the axis is subtracted first, so a field constant along the axis
        maps to exactly 0.0.
        """
        def build():
            k = self.k1 if axis == 1 else self.k2
            m = factor(k)
            n = len(k)
            # circulant: column l is the response to a unit impulse at l
            c = np.fft.ifft(m).real
            return c[np.subtract.outer(np.arange(n), np.arange(n)) % n], m[0] == 0.0
        M, annihilates_constants = self.cached_symbol(("factor", axis, key), build)
        pos = axis - 4 if self.field_kind(f) == "interior" else axis - 3
        if annihilates_constants:
            f = f - np.take(f, [0], axis=pos)
        shape = f.shape
        if pos == -1:
            return (f.reshape(-1, shape[-1]) @ M.T).reshape(shape)
        return (M @ f.reshape(shape[:pos] + (shape[pos], -1))).reshape(shape)

    def _spectrum(self, f: np.ndarray) -> np.ndarray:
        """Tangential half spectrum; boundary fields gain a length-1 y3 axis."""
        if self.field_kind(f) == "interior":
            return np.fft.rfft2(f, axes=(-3, -2))
        return np.fft.rfft2(f, axes=(-2, -1))[..., None]

    def apply_symbol(self, f: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Multiply the tangential spectrum of ``f`` by ``symbol`` and transform back.

        The product broadcasts as numpy does.  A boundary field keeps its
        layout under a plane-wise symbol and is lifted into the slab by a
        symbol with a full y3 axis.
        """
        out = np.fft.irfft2(self._spectrum(f) * symbol, s=(self.spec.n1, self.spec.n2),
                            axes=(-3, -2))
        return out[..., 0] if out.shape[-1] == 1 else out

    def _fd3(self, f: np.ndarray) -> np.ndarray:
        """Second-order d/dy3: central inside, one-sided at the walls."""
        if self.field_kind(f) != "interior":
            raise FieldShapeError("axis-3 derivative needs an interior field")
        return self._stencil3(f)

    def _stencil3(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The y3 stencil of ``_fd3`` along the last axis, for a field or its
        tangential half spectrum: it acts on y3 only, so it commutes with
        the tangential transform."""
        h = self.h3
        if out is None:
            out = np.empty_like(f)
        out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
        out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
        out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * h)
        return out

    # ------------------------------------------------------------------
    # public operators

    def _derivative_along(self, f: np.ndarray, axis: int, power: int) -> np.ndarray:
        """d_axis^power along tangential axis 1 or 2; the Nyquist line is
        zeroed, so mixed derivatives agree with composed single ones."""
        def factor(k):
            m = (1j * k) ** power
            m[len(k) // 2] = 0.0
            return m
        return self.apply_factor(f, axis, ("derivative", power), factor)

    def derivative(self, f: np.ndarray, axis: int) -> np.ndarray:
        """Partial derivative along axis 1, 2 (spectral) or 3 (FD)."""
        if axis in (1, 2):
            return self._derivative_along(f, axis, 1)
        if axis == 3:
            return self._fd3(f)
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """All three partials of an interior field, derivative axis first.

        ``out[mu]`` is d f / d y_(mu+1).
        """
        out = np.empty((3,) + f.shape)
        out[2] = self._fd3(f)  # refuses anything but an interior field
        out[0] = self._derivative_along(f, 1, 1)
        out[1] = self._derivative_along(f, 2, 1)
        return out

    def derivative_multi(self, f: np.ndarray, p1: int, p2: int, p3: int) -> np.ndarray:
        """Mixed derivative d1^p1 d2^p2 d3^p3 by composition."""
        g = self._derivative_along(f, 1, p1) if p1 else f
        if p2:
            g = self._derivative_along(g, 2, p2)
        for _ in range(p3):
            g = self._fd3(g)
        return g

    def tangential_laplacian(self, f: np.ndarray) -> np.ndarray:
        """Flat tangential Laplacian d11 + d22, the factor -k^2 along each
        axis with the Nyquist line kept."""
        def factor(k):
            return -k * k
        return (self.apply_factor(f, 1, "laplacian", factor)
                + self.apply_factor(f, 2, "laplacian", factor))

    def invert_tangential_laplacian_nonzero(self, g: np.ndarray) -> np.ndarray:
        """Solve lap_t u = P_{!=0} g plane-wise with zero tangential mean."""
        def build():
            with np.errstate(divide="ignore"):
                return np.where(self.ksq > 0.0, -1.0 / self.ksq, 0.0)
        return self.apply_symbol(g, self.cached_symbol("inverse_laplacian", build))

    def dealias(self, f: np.ndarray) -> np.ndarray:
        """Truncate the tangential spectrum to the dealias fraction, one axis
        after the other."""
        frac = self.spec.dealias_fraction
        if frac >= 1.0:
            return f

        def mask(k):
            n = len(k)
            return (np.abs(np.rint(k / (2.0 * np.pi))) <= np.floor(frac * n / 2.0)).astype(float)
        return self.apply_factor(self.apply_factor(f, 1, "dealias", mask), 2, "dealias", mask)

    # ------------------------------------------------------------------
    # quadrature and norms

    def integrate(self, f: np.ndarray) -> float:
        """Integral over the slab: exact tangential mean, trapezoid in y3."""
        if self.field_kind(f) != "interior":
            raise FieldShapeError("integrate expects an interior field")
        plane_mean = f.mean(axis=(-3, -2))
        return float(np.sum(plane_mean * self.w3, axis=-1).sum())

    def low_norm(self, f: np.ndarray) -> float:
        """Interior L2 norm without derivative terms (components summed)."""
        return float(np.sqrt(self.integrate(f * f)))

    def _parseval_weight(self, key, build) -> np.ndarray:
        """A half-spectrum weight with the mirrored columns counted twice and
        the transform scaling folded in, so sum(weight |f^|^2) is a plane mean."""
        def scaled():
            n1, n2 = self.spec.n1, self.spec.n2
            mirror = np.full(n2 // 2 + 1, 2.0)
            mirror[[0, -1]] = 1.0
            return build() * mirror[:, None] / float(n1 * n2) ** 2
        return self.cached_symbol(("parseval",) + key, scaled)

    def _sobolev_weight(self, r: int) -> np.ndarray:
        """sum over p1 + p2 <= r of k1^(2 p1) k2^(2 p2); the Nyquist line of
        each axis is zeroed, as the derivative matrices do."""
        def build():
            kk1, kk2 = self._k1h**2, self._k2h**2
            kk1[self.spec.n1 // 2] = 0.0
            kk2[:, -1] = 0.0
            return sum(kk1**p1 * kk2**p2 for p1 in range(r + 1) for p2 in range(r + 1 - p1))
        return self._parseval_weight(("interior", r), build)[..., 0]

    def normal_spectra(self, f: np.ndarray, s: int) -> np.ndarray:
        """Half spectra of d3^p3 f for p3 = 0..s, stacked on a leading axis:
        one transform of the interior field f, then the y3 stencil applied
        to the spectrum s times."""
        if self.field_kind(f) != "interior":
            raise FieldShapeError("normal spectra need an interior field")
        fh = self._spectrum(f)
        out = np.empty((s + 1,) + fh.shape, dtype=fh.dtype)
        out[0] = fh
        for p3 in range(s):
            self._stencil3(out[p3], out=out[p3 + 1])
        return out

    def sobolev_sq(self, spectra: np.ndarray, s: int) -> float:
        """Squared interior H^s norm from ``normal_spectra(f, r)``, r >= s:
        the squared L2 norms of all mixed derivatives of order <= s of f,
        by Parseval on every y3 plane, each normal order p3 weighted by the
        summed tangential symbol of order <= s - p3."""
        total = 0.0
        for p3 in range(s + 1):
            gh = spectra[p3]
            power = (gh.real**2 + gh.imag**2) @ self.w3
            total += float(np.sum(power * self._sobolev_weight(s - p3)))
        return total

    def norm(self, f: np.ndarray, s: float, where: str = "interior") -> float:
        """Sobolev norm of a field.

        Interior norms take integer s in 0..4 and sum squared L2 norms of
        all mixed derivatives of order <= s, by Parseval from one
        tangential transform (:meth:`sobolev_sq`).  Boundary norms take
        half-integer s in 0..7/2 and use the tangential multiplier
        (1 + |xi|^2)^(s/2), summed over both planes.  Component axes are
        summed in quadrature.
        """
        if where == "interior":
            if s != int(s) or not 0 <= int(s) <= 4:
                raise ValueError(f"interior norm order must be an integer in 0..4, got {s}")
            if self.field_kind(f) != "interior":
                raise FieldShapeError("interior norm expects an interior field")
            s = int(s)
            return float(np.sqrt(self.sobolev_sq(self.normal_spectra(f, s), s)))
        if where == "boundary":
            two_s = 2.0 * s
            if two_s != int(two_s) or not 0 <= int(two_s) <= 7:
                raise ValueError(
                    f"boundary norm order must be a half-integer in 0..7/2, got {s}"
                )
            if self.field_kind(f) != "boundary":
                raise FieldShapeError("boundary norm expects a boundary field")
            fh = self._spectrum(f)
            weight = self._parseval_weight(("boundary", s), lambda: (1.0 + self.ksq) ** s)
            return float(np.sqrt(np.sum((fh.real**2 + fh.imag**2) * weight)))
        raise ValueError(f"where must be 'interior' or 'boundary', got {where!r}")

    def boundary_slices(self, f: np.ndarray) -> np.ndarray:
        """Restrict an interior field to the two walls, plane axis first.

        Output shape is ``(..., 2, n1, n2)`` with plane 0 at y3 = 0.
        """
        if self.field_kind(f) != "interior":
            raise FieldShapeError("boundary_slices expects an interior field")
        return np.stack([f[..., 0], f[..., -1]], axis=-3)
