"""Desk-scale laboratory for free-boundary resistive MHD in flow-map form.

The package advances the tangentially mollified, linearized system with
frozen ring coefficients, iterates it to the nonlinear fixed point, and
audits every run against the energy functionals and structural
identities the construction rests on.

The root holds the entry points: the lattice, the equation of state,
the initial data, the solver, the kappa cascade and the two energy
audits.  Everything else is imported from its module (``lfmhd.geometry``,
``lfmhd.linear_step``, ``lfmhd.diagnostics``, ...).
"""

from .diagnostics import difference_energy, physical_energy_balance
from .grid import Grid, GridSpec
from .picard import kappa_sweep, solve_nonlinear_kappa
from .state import EquationOfState, InitialDataError, make_initial_data

__version__ = "0.1.0"

__all__ = [
    "EquationOfState",
    "Grid",
    "GridSpec",
    "InitialDataError",
    "difference_energy",
    "kappa_sweep",
    "make_initial_data",
    "physical_energy_balance",
    "solve_nonlinear_kappa",
]
