"""Cauchy behaviour of the smoothing-scale cascade.

Runs the fixed-point solve at a descending ladder of smoothing widths
and prints the sup-in-time difference energy between consecutive runs.
Decreasing deltas are the numerical face of convergence as the
regularization is removed; the final column is the correction-field
ceiling for each member.
"""

import lfmhd


def main():
    grid = lfmhd.Grid(lfmhd.GridSpec(16, 16, 16))
    eos = lfmhd.EquationOfState()
    init = lfmhd.make_initial_data(grid, "quiescent", amplitude=0.1, seed=0, eos=eos)
    _, _, rows = lfmhd.kappa_sweep(
        init, kappas=(0.2, 0.1, 0.05, 0.025), T=0.05, dt=0.0125,
    )
    print("  kappa   iters  d_final       delta_to_prev  psi_max")
    for row in rows:
        delta = row["delta_to_prev"]
        delta_s = "" if delta is None else f"{delta:.6e}"
        print(f"  {row['kappa']:.4f}  {row['iterations']:5d}  "
              f"{row['d_final']:.6e}  {delta_s:>13s}  {row['psi_max']:.3e}")


if __name__ == "__main__":
    main()
