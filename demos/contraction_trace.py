"""Contraction of the frozen-coefficient iteration, and where it dies.

Short horizons contract hard: each sweep of the linearized system cuts
the iterate distance by orders of magnitude.  Stretching the horizon
weakens the contraction factor until the difference energies grow and
the solver refuses.  Pass --ladder to run the horizon doubling to the
failure point (a few minutes); the default prints the healthy trace.
"""

import argparse

import numpy as np

import lfmhd
from lfmhd.picard import NonContractionError


def trace(grid, eos, amplitude, T, dt):
    init = lfmhd.make_initial_data(grid, "quiescent", amplitude=amplitude, seed=0, eos=eos)
    traj, log = lfmhd.solve_nonlinear_kappa(init, kappa=0.1, T=T, dt=dt)
    d = np.array(log.d_history)
    print(f"amplitude {amplitude}, T = {T}: {log.iterations} iterates, {log.stop_reason}")
    print("  iterate  difference_energy  ratio")
    for i, val in enumerate(d):
        r = "" if i == 0 else f"{d[i] / d[i - 1]:.3e}"
        print(f"  {i + 1:7d}  {val:.6e}       {r}")
    return traj


def ladder(grid, eos, amplitude, dt):
    T = 0.05
    while T <= 12.8:
        init = lfmhd.make_initial_data(grid, "quiescent", amplitude=amplitude, seed=0, eos=eos)
        try:
            _, log = lfmhd.solve_nonlinear_kappa(
                init, kappa=0.1, T=T, dt=dt, max_iter=8,
            )
            print(f"T = {T:5.2f}: {log.iterations} iterates, {log.stop_reason}")
        except NonContractionError as exc:
            print(f"T = {T:5.2f}: {exc}")
            return
        T *= 2.0
    print("never left the contraction regime up to T = 12.8")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ladder", action="store_true",
                        help="double T at amplitude 0.45 until the iteration fails")
    args = parser.parse_args()
    grid = lfmhd.Grid(lfmhd.GridSpec(16, 16, 16))
    eos = lfmhd.EquationOfState()
    trace(grid, eos, amplitude=0.04, T=0.05, dt=0.0125)
    print()
    if args.ladder:
        ladder(grid, eos, amplitude=0.45, dt=0.05 / 3.0)
    else:
        print("(--ladder doubles the horizon at amplitude 0.45 until the "
              "non-contraction guard fires)")


if __name__ == "__main__":
    main()
