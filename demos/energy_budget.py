"""Energy budget of a magnetic-tube run.

Prints the physical energy, the accumulated resistive dissipation, and
the discrete balance residual per node.  The residual is dominated by
the dt term of the calibrated envelope; halve dt and the last column
halves with it.
"""

import numpy as np

import lfmhd


def main():
    grid = lfmhd.Grid(lfmhd.GridSpec(16, 16, 16))
    eos = lfmhd.EquationOfState()
    init = lfmhd.make_initial_data(grid, "magnetic-tube", amplitude=0.1, seed=0, eos=eos)
    for dt in (0.01, 0.005):
        traj, _ = lfmhd.solve_nonlinear_kappa(init, kappa=0.1, T=0.1, dt=dt)
        E, D, res = lfmhd.physical_energy_balance(traj)
        print(f"dt = {dt}:")
        print("      t     E_phys        D_diss        balance_residual")
        stride = max(1, len(traj) // 5)
        for j in range(0, len(traj), stride):
            print(f"  {traj.times[j]:.3f}  {E[j]:.8f}  {D[j]:.6e}  {res[j]:+.6e}")
        print(f"  max |residual| = {np.abs(res).max():.6e}")
        print()


if __name__ == "__main__":
    main()
