"""The solenoidal constraint under transport plus resistive diffusion.

A divergence-free tube stays divergence-free to scheme accuracy; the
monitor's envelope grows like t (dt + h3^2) and the measured drift sits
orders of magnitude under it.  Tampering with the initial field puts
the very first node over the envelope.
"""

import numpy as np

import lfmhd
from lfmhd.diagnostics import divergence_monitor
from lfmhd.fields import wall_vanishing_scalar
from lfmhd.linear_step import Trajectory

DRIFT_C = 0.05


def report(traj, title):
    div, flags = divergence_monitor(traj, DRIFT_C)
    print(title)
    print("      t     ||div_a b||_0   flagged")
    for j in range(len(traj)):
        print(f"  {traj.times[j]:.3f}  {div[j]:.6e}   {'YES' if flags[j] else 'no'}")
    print()


def main():
    grid = lfmhd.Grid(lfmhd.GridSpec(16, 16, 16))
    eos = lfmhd.EquationOfState()
    init = lfmhd.make_initial_data(grid, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    traj, _ = lfmhd.solve_nonlinear_kappa(init, kappa=0.1, T=0.05, dt=0.01)
    report(traj, "clean run:")

    rng = np.random.default_rng(9)
    tampered = [s.copy() for s in traj.states]
    tampered[0].b[2] += 1e-4 * wall_vanishing_scalar(grid, rng, band=1)
    bad = Trajectory(grid=grid, eos=eos, kappa=traj.kappa, dt=traj.dt, states=tampered)
    report(bad, "after corrupting the initial field by 1e-4:")


if __name__ == "__main__":
    main()
