"""How the boundary correction field scales with the smoothing width.

The wall datum feeding the harmonic correction is a difference of
smoothed and unsmoothed products, so each pair of tangential shells
(k1 < k2) contributes a weight |exp(-kappa^2 k1^2) - exp(-kappa^2 k2^2)|
that rises from zero, peaks near kappa ~ 1/k1, and decays again.  On a
16^2 tangential lattice the lowest shell is |k| = 2 pi, which parks
every pair's peak below kappa = 0.16: the correction norm is *not*
monotone across that peak, and only decays once kappa drops past it.

The script prints the norm on a multi-shell random flow first (both
regimes visible), then on the quiescent preset, whose single-shell
modulation cancels in the datum and leaves pure rounding noise.
"""

import numpy as np

import lfmhd
from lfmhd.correction import correction_field
from lfmhd.fields import perturbed_map, random_vector
from lfmhd.geometry import build_geometry


def psi_norm(grid, eta, v, kappa):
    cache = build_geometry(grid, eta, kappa)
    psi = correction_field(grid, eta, v, cache.a_s, kappa)
    return grid.low_norm(psi)


def main():
    grid = lfmhd.Grid(lfmhd.GridSpec(16, 16, 16))
    eos = lfmhd.EquationOfState()
    rng = np.random.default_rng(4)
    eta = perturbed_map(grid, rng, eps=0.08, band=2)
    v = random_vector(grid, rng, band=2, n3_modes=2)

    kappas = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)
    print("multi-shell random (eta, v):")
    print("  kappa    ||psi||_0")
    for k in kappas:
        print(f"  {k:6.4f}  {psi_norm(grid, eta, v, k):.6e}")
    print("  (rise-then-fall: the peak sits near 1/|k_min| = 0.16)")
    print()

    init = lfmhd.make_initial_data(grid, "quiescent", amplitude=0.3, seed=0, eos=eos)
    traj, _ = lfmhd.solve_nonlinear_kappa(init, kappa=0.1, T=0.025, dt=0.0125)
    s = traj.final
    print("quiescent preset (single-shell modulation, datum cancels):")
    print("  kappa    ||psi||_0")
    for k in kappas:
        print(f"  {k:6.4f}  {psi_norm(grid, s.eta, s.v, k):.6e}")


if __name__ == "__main__":
    main()
