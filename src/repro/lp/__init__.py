"""Linear-programming substrate for the AP-Rad radius estimation.

AP-Rad (paper Section III-C2) estimates every AP's maximum transmission
distance by solving::

    maximize   sum(r_i)
    subject to r_i + r_j >= d_ij   for co-observed AP pairs
               r_i + r_j <  d_ij   for never-co-observed pairs
               0 <= r_i <= r_max

This package provides two from-scratch solvers behind one modeling
layer (:class:`LpProblem`):

* :func:`solve_revised` — the production solver and the default of
  :meth:`LpProblem.solve`: a sparse revised simplex (CSC constraint
  storage, sparse-LU-factorized basis with product-form eta updates)
  that accepts an :class:`LpState` warm start, so streaming AP-Rad
  re-fits restart from the previous optimal basis;
* :func:`solve_lp` — a dense two-phase tableau simplex, kept as the
  test suite's reference implementation.

Both are cross-checked against each other and against
``scipy.optimize.linprog`` in the test suite.
"""

from repro.lp.simplex import LpResult, solve_lp
from repro.lp.revised import LpState, RevisedResult, solve_revised
from repro.lp.problem import LpProblem

__all__ = [
    "solve_lp",
    "LpResult",
    "LpProblem",
    "solve_revised",
    "RevisedResult",
    "LpState",
]
