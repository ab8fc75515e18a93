"""Sensitivity of the converged trajectory to the stopping tolerance.

Two solves of the same problem at tolerances four decades apart land on
trajectories whose difference energy is far below the looser tolerance,
and repeating a solve bit-for-bit reproduces it.  Together these are
the practical face of uniqueness.
"""

import numpy as np

import lfmhd


def main():
    grid = lfmhd.Grid(lfmhd.GridSpec(16, 16, 16))
    eos = lfmhd.EquationOfState()
    init = lfmhd.make_initial_data(grid, "quiescent", amplitude=0.1, seed=0, eos=eos)

    def solve(tol):
        traj, log = lfmhd.solve_nonlinear_kappa(
            init, kappa=0.1, T=0.05, dt=0.0125, tol=tol,
        )
        print(f"  tol = {tol:.0e}: {log.iterations} iterates, "
              f"d_final = {log.d_history[-1]:.3e}")
        return traj

    print("solves:")
    loose = solve(1e-6)
    tight = solve(1e-10)
    again = solve(1e-6)

    gap = float(np.max(lfmhd.difference_energy(loose, tight)))
    print(f"difference energy between tolerances: {gap:.3e}")

    identical = all(
        np.array_equal(getattr(s1, name), getattr(s2, name))
        for s1, s2 in zip(loose.states, again.states)
        for name in ("eta", "v", "b", "q")
    )
    print(f"repeated run bitwise identical: {identical}")


if __name__ == "__main__":
    main()
