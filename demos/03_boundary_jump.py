"""Boundary values on the cut and the jump matrix.

Off the interval the fundamental solution is analytic in z; approaching
a cut point s from above and below gives different limits W+ and W-.
For the rank-one scenario the two limits differ by the constant factor
R^2 = I + 2 pi J beta* beta, and the difference V = W+ - W- stays
uniformly bounded along the cut.  Both limits are products of matrix
exponentials over panels graded towards s, with the weight 1/(z - t)
integrated exactly on every panel; they share every factor but the one
whose panel straddles s, W(x, s +/- i0) = T_R exp(Omega_s +/- pi J H(s)) T_L,
where Omega_s takes the principal value.  The grading is refined until two
successive levels agree; ``extrapolation_error`` reports their
difference.  The dressed limits W~+- = v W+- v(xi)^{-1} are cross-checked
against the same products run on the dressed system, whose Hamiltonian
is w0* H w0.
"""

import numpy as np

from cansys import boundary_values, transformed_boundary_values, evolve
from cansys import rank_one
from cansys.linalg import fro

system = rank_one.make_system(b=1.0)
expected = rank_one.jump_matrix()
print("expected jump R^2 =\n", np.round(expected, 6))

for s in (0.25, 0.5, 0.75):
    report = boundary_values(system, 1.0, s, tol=1e-10)
    print(f"s = {s}: |jump - R^2| = {fro(report.jump - expected):.2e} "
          f"(extrapolation error {report.extrapolation_error:.2e}), "
          f"|V| = {fro(report.v):.4f}")

# away from the cut the two limits coincide
report = boundary_values(system, 0.5, 0.8, tol=1e-10)
print("s outside the cut: |jump - I| =", fro(report.jump - np.eye(2)))

# the dressed system jumps by the conjugated factor: both routes agree
traj = evolve(
    rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0]).to_gbdt_params(),
    system, grid=np.linspace(0, 1, 201), tol=1e-11,
)
dressed = transformed_boundary_values(traj, 1.0, 0.5, tol=1e-10)
print("dressed limits, multiplier identity vs dressed-system products:",
      dressed.cross_check_error)
