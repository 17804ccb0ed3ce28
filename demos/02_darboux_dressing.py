"""Darboux dressing of a canonical system.

A dressing triple (B, S, Pi) tied together by the displacement identity
A S - S A* = i Pi J Pi* evolves along the interval and produces a new
Hamiltonian H~ = w0* H w0 together with the dressed fundamental solution
W~ = v W v(xi)^{-1}.  Everything here is checked two independent ways:
the evolved triple against closed forms, and the dressed solution
against direct integration of the dressed system.
"""

import numpy as np

from cansys import (
    evolve,
    fundamental_solution,
    positivity_report,
    sample_params,
    transfer,
    transformed_fundamental,
    transformed_system,
    validate_params,
)
from cansys import rank_one
from cansys.linalg import fro

system = rank_one.make_system(b=1.0)

# order-one dressing with pole i: the whole trajectory has a closed form
diag = rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0])
params = diag.to_gbdt_params()
print("parameter check:", validate_params(params, system).violations or "valid")

traj = evolve(params, system, grid=np.linspace(0, 1, 201), tol=1e-12)
print("displacement-identity residual along the grid:", traj.identity_residual)
print("evolved S(0.5) vs closed form:",
      abs(traj.s_at(0.5)[0, 0] - diag.s_at(0.5)[0, 0]))

# the dressed system keeps the factored, degenerate structure: its factor
# is beta w0, and the triangular routes take it as they take any model
dressed = transformed_system(traj)
print("dressed factor at x = 0.5:", np.round(dressed.hamiltonian.beta_at(0.5), 6))

# transfer matrices: J-property and the closed-form inverse of w0
te = transfer(traj, 0.5, 2j)
print("J-property defect of w_A:", te.j_defect)
print("w0 w0^{-1} - I:", te.w0_inv_residual)

# dressed fundamental solution vs direct integration of the dressed system
grid = np.linspace(0.0, 1.0, 21)
via_multiplier = transformed_fundamental(traj, 2j, grid=grid, tol=1e-11)
direct = fundamental_solution(dressed, 2j, grid=grid, tol=1e-11, method="rk45")
gap = max(fro(a - b) for a, b in zip(via_multiplier.values, direct.values))
print("multiplier route vs direct integration:", gap)

# positive S(xi) propagates: S(x) > 0 with a computable inverse bound
pd_params = sample_params(0, system, n=3, positive=True)
report = positivity_report(evolve(pd_params, system, tol=1e-9))
print("random positive-definite draw:", report)
